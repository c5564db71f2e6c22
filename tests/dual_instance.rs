//! Dual-instance deletion/update (Section V-F) under longer, randomized
//! lifecycles, checked against a live plaintext model.

use slicer_core::{DualSlicer, Query, RecordId, SlicerConfig};
use slicer_crypto::Rng;
use slicer_workload::splitmix_stream;
use std::collections::HashMap;

fn ids(records: &[RecordId]) -> Vec<u64> {
    let mut v: Vec<u64> = records.iter().map(|r| r.as_u64().unwrap()).collect();
    v.sort_unstable();
    v
}

fn oracle(model: &HashMap<u64, u64>, q: &Query) -> Vec<u64> {
    let mut v: Vec<u64> = model
        .iter()
        .filter(|(_, &val)| q.matches(val))
        .map(|(&id, _)| id)
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn randomized_lifecycle_matches_model() {
    let mut dual = DualSlicer::try_setup(SlicerConfig::test_8bit(), 50).unwrap();
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut rng = splitmix_stream(123);
    let mut next_id = 0u64;

    for step in 0..40 {
        match rng.next_u64() % 10 {
            // 60%: insert
            0..=5 => {
                let v = rng.next_u64() % 256;
                dual.insert(&[(RecordId::from_u64(next_id), v)]).unwrap();
                model.insert(next_id, v);
                next_id += 1;
            }
            // 20%: delete a random live record
            6..=7 if !model.is_empty() => {
                let keys: Vec<u64> = model.keys().copied().collect();
                let id = keys[(rng.next_u64() % keys.len() as u64) as usize];
                dual.delete(RecordId::from_u64(id)).unwrap();
                model.remove(&id);
            }
            // 20%: update a random live record
            _ if !model.is_empty() => {
                let keys: Vec<u64> = model.keys().copied().collect();
                let id = keys[(rng.next_u64() % keys.len() as u64) as usize];
                let v = rng.next_u64() % 256;
                dual.update(RecordId::from_u64(id), v).unwrap();
                model.insert(id, v);
            }
            _ => {}
        }

        // Periodic verified check.
        if step % 10 == 9 {
            let q = Query::less_than(128);
            let out = dual.search(&q, 10).unwrap();
            assert!(out.verified, "step {step}");
            assert_eq!(ids(&out.records), oracle(&model, &q), "step {step}");
        }
    }
    assert_eq!(dual.live_count(), model.len());
    assert!(dual.chain().verify_chain());
}

#[test]
fn delete_everything_yields_empty_results() {
    let mut dual = DualSlicer::try_setup(SlicerConfig::test_8bit(), 51).unwrap();
    let records: Vec<(RecordId, u64)> = (0u64..10)
        .map(|i| (RecordId::from_u64(i), i * 20 % 256))
        .collect();
    dual.insert(&records).unwrap();
    for (id, _) in &records {
        dual.delete(*id).unwrap();
    }
    let out = dual.search(&Query::less_than(255), 10).unwrap();
    assert!(out.verified);
    assert!(out.records.is_empty());
    assert_eq!(dual.live_count(), 0);
}

#[test]
fn repeated_update_cycles() {
    let mut dual = DualSlicer::try_setup(SlicerConfig::test_8bit(), 52).unwrap();
    dual.insert(&[(RecordId::from_u64(1), 10)]).unwrap();
    // Bounce the value around several times, including back to a previous
    // value (multiset semantics must hold up).
    for v in [20u64, 30, 20, 10, 99] {
        dual.update(RecordId::from_u64(1), v).unwrap();
    }
    let high = dual.search(&Query::greater_than(50), 10).unwrap();
    assert!(high.verified);
    assert_eq!(ids(&high.records), vec![1]);
    let low = dual.search(&Query::less_than(50), 10).unwrap();
    assert!(low.verified);
    assert!(low.records.is_empty(), "only the final value 99 is live");
}

#[test]
fn equality_queries_respect_deletions() {
    let mut dual = DualSlicer::try_setup(SlicerConfig::test_8bit(), 53).unwrap();
    dual.insert(&[
        (RecordId::from_u64(1), 42),
        (RecordId::from_u64(2), 42),
        (RecordId::from_u64(3), 42),
    ])
    .unwrap();
    dual.delete(RecordId::from_u64(2)).unwrap();
    assert!(dual.delete(RecordId::from_u64(2)).is_err(), "deleted once");
    let out = dual.search(&Query::equal(42), 10).unwrap();
    assert!(out.verified);
    assert_eq!(ids(&out.records), vec![1, 3]);
}
