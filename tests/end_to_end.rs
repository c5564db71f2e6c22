//! Cross-crate end-to-end tests: the full Fig. 1 workflow at moderate
//! scale, checked against a plaintext oracle.

use slicer_core::{Query, RecordId, SlicerConfig, SlicerSystem};
use slicer_telemetry::TelemetryHandle;
use slicer_workload::{sample_query_values, DatasetSpec};

fn load(n: usize, bits: u8, seed: u64) -> (SlicerSystem, Vec<(RecordId, u64)>) {
    let db: Vec<(RecordId, u64)> = DatasetSpec::uniform(n, bits, seed)
        .generate()
        .into_iter()
        .map(|(id, v)| (RecordId(id), v))
        .collect();
    let mut sys = SlicerSystem::try_setup_with(
        SlicerConfig::with_bits(bits),
        seed,
        TelemetryHandle::disabled(),
    )
    .unwrap();
    sys.build(&db).expect("generated data fits the domain");
    (sys, db)
}

fn check_query(sys: &mut SlicerSystem, db: &[(RecordId, u64)], q: &Query) {
    let out = sys.search(q, 100).expect("workflow completes");
    assert!(out.verified, "honest search verifies: {q:?}");
    let mut got: Vec<u64> = out.records.iter().map(|r| r.as_u64().unwrap()).collect();
    got.sort_unstable();
    let mut want: Vec<u64> = db
        .iter()
        .filter(|(_, v)| q.matches(*v))
        .map(|(id, _)| id.as_u64().unwrap())
        .collect();
    want.sort_unstable();
    assert_eq!(got, want, "oracle mismatch for {q:?}");
}

#[test]
fn sampled_queries_match_oracle_8bit() {
    let (mut sys, db) = load(400, 8, 1);
    let raw: Vec<([u8; 16], u64)> = db.iter().map(|(id, v)| (id.0, *v)).collect();
    for v in sample_query_values(&raw, 4, 2) {
        check_query(&mut sys, &db, &Query::equal(v));
        check_query(&mut sys, &db, &Query::less_than(v));
        check_query(&mut sys, &db, &Query::greater_than(v));
    }
}

#[test]
fn sampled_queries_match_oracle_16bit() {
    let (mut sys, db) = load(300, 16, 3);
    let raw: Vec<([u8; 16], u64)> = db.iter().map(|(id, v)| (id.0, *v)).collect();
    for v in sample_query_values(&raw, 3, 4) {
        check_query(&mut sys, &db, &Query::equal(v));
        check_query(&mut sys, &db, &Query::less_than(v));
    }
}

#[test]
fn domain_boundary_queries() {
    let (mut sys, db) = load(200, 8, 5);
    // Query values at the domain edges.
    check_query(&mut sys, &db, &Query::less_than(0)); // nothing is < 0
    check_query(&mut sys, &db, &Query::greater_than(255)); // nothing is > max
    check_query(&mut sys, &db, &Query::less_than(255));
    check_query(&mut sys, &db, &Query::greater_than(0));
    check_query(&mut sys, &db, &Query::equal(0));
}

#[test]
fn interleaved_inserts_and_searches() {
    let (mut sys, mut db) = load(150, 8, 6);
    for round in 0u64..4 {
        let new: Vec<(RecordId, u64)> = (0..25)
            .map(|i| {
                (
                    RecordId::from_u64(10_000 + round * 100 + i),
                    (round * 50 + i) % 256,
                )
            })
            .collect();
        sys.insert(&new).expect("fits domain");
        db.extend(new);
        check_query(&mut sys, &db, &Query::less_than(128));
        check_query(&mut sys, &db, &Query::equal((round * 50) % 256));
    }
}

#[test]
fn repeated_identical_queries_stay_consistent() {
    let (mut sys, db) = load(200, 8, 7);
    let q = Query::less_than(100);
    let first = sys.search(&q, 10).expect("workflow");
    for _ in 0..3 {
        let again = sys.search(&q, 10).expect("workflow");
        assert!(again.verified);
        assert_eq!(again.records.len(), first.records.len());
    }
    check_query(&mut sys, &db, &q);
}

#[test]
fn duplicate_values_return_all_records() {
    let mut sys =
        SlicerSystem::try_setup_with(SlicerConfig::test_8bit(), 8, TelemetryHandle::disabled())
            .unwrap();
    let db: Vec<(RecordId, u64)> = (0u64..20).map(|i| (RecordId::from_u64(i), 42)).collect();
    sys.build(&db).expect("fits");
    let out = sys.search(&Query::equal(42), 10).expect("workflow");
    assert!(out.verified);
    assert_eq!(out.records.len(), 20);
}

#[test]
fn chain_integrity_after_full_lifecycle() {
    let (mut sys, _) = load(100, 8, 9);
    sys.insert(&[(RecordId::from_u64(999), 5)]).expect("fits");
    sys.search(&Query::less_than(50), 10).expect("workflow");
    assert!(sys.chain().verify_chain(), "hash chain must verify");
    assert!(sys.chain().height() >= 3, "build + insert + search blocks");
}
