//! Cross-crate end-to-end tests: the full Fig. 1 workflow at moderate
//! scale, checked against a plaintext oracle.

use slicer_chain::Blockchain;
use slicer_core::{Query, RecordId, SlicerConfig, SlicerInstance};
use slicer_telemetry::TelemetryHandle;
use slicer_workload::{sample_query_values, DatasetSpec};

/// A `bits`-wide deployment with `db` built, telemetry off.
fn deploy(bits: u8, seed: u64, db: &[(RecordId, u64)]) -> (SlicerInstance, Blockchain) {
    let mut chain = Blockchain::new();
    let mut inst = SlicerInstance::try_setup_with(
        SlicerConfig::with_bits(bits),
        seed,
        &mut chain,
        TelemetryHandle::disabled(),
    )
    .unwrap();
    inst.build(&mut chain, db).expect("data fits the domain");
    (inst, chain)
}

fn load(n: usize, bits: u8, seed: u64) -> (SlicerInstance, Blockchain, Vec<(RecordId, u64)>) {
    let db: Vec<(RecordId, u64)> = DatasetSpec::uniform(n, bits, seed)
        .generate()
        .into_iter()
        .map(|(id, v)| (RecordId(id), v))
        .collect();
    let (inst, chain) = deploy(bits, seed, &db);
    (inst, chain, db)
}

fn check_query(
    inst: &mut SlicerInstance,
    chain: &mut Blockchain,
    db: &[(RecordId, u64)],
    q: &Query,
) {
    let out = inst.search(chain, q, 100).expect("workflow completes");
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
    let (mut inst, mut chain, db) = load(400, 8, 1);
    let raw: Vec<([u8; 16], u64)> = db.iter().map(|(id, v)| (id.0, *v)).collect();
    for v in sample_query_values(&raw, 4, 2) {
        check_query(&mut inst, &mut chain, &db, &Query::equal(v));
        check_query(&mut inst, &mut chain, &db, &Query::less_than(v));
        check_query(&mut inst, &mut chain, &db, &Query::greater_than(v));
    }
}

#[test]
fn sampled_queries_match_oracle_16bit() {
    let (mut inst, mut chain, db) = load(300, 16, 3);
    let raw: Vec<([u8; 16], u64)> = db.iter().map(|(id, v)| (id.0, *v)).collect();
    for v in sample_query_values(&raw, 3, 4) {
        check_query(&mut inst, &mut chain, &db, &Query::equal(v));
        check_query(&mut inst, &mut chain, &db, &Query::less_than(v));
    }
}

#[test]
fn domain_boundary_queries() {
    let (mut inst, mut chain, db) = load(200, 8, 5);
    // Query values at the domain edges.
    check_query(&mut inst, &mut chain, &db, &Query::less_than(0)); // nothing is < 0
    check_query(&mut inst, &mut chain, &db, &Query::greater_than(255)); // nothing is > max
    check_query(&mut inst, &mut chain, &db, &Query::less_than(255));
    check_query(&mut inst, &mut chain, &db, &Query::greater_than(0));
    check_query(&mut inst, &mut chain, &db, &Query::equal(0));
}

#[test]
fn interleaved_inserts_and_searches() {
    let (mut inst, mut chain, mut db) = load(150, 8, 6);
    for round in 0u64..4 {
        let new: Vec<(RecordId, u64)> = (0..25)
            .map(|i| {
                (
                    RecordId::from_u64(10_000 + round * 100 + i),
                    (round * 50 + i) % 256,
                )
            })
            .collect();
        inst.insert(&mut chain, &new).expect("fits domain");
        db.extend(new);
        check_query(&mut inst, &mut chain, &db, &Query::less_than(128));
        check_query(
            &mut inst,
            &mut chain,
            &db,
            &Query::equal((round * 50) % 256),
        );
    }
}

#[test]
fn repeated_identical_queries_stay_consistent() {
    let (mut inst, mut chain, db) = load(200, 8, 7);
    let q = Query::less_than(100);
    let first = inst.search(&mut chain, &q, 10).expect("workflow");
    for _ in 0..3 {
        let again = inst.search(&mut chain, &q, 10).expect("workflow");
        assert!(again.verified);
        assert_eq!(again.records.len(), first.records.len());
    }
    check_query(&mut inst, &mut chain, &db, &q);
}

#[test]
fn duplicate_values_return_all_records() {
    let db: Vec<(RecordId, u64)> = (0u64..20).map(|i| (RecordId::from_u64(i), 42)).collect();
    let (mut inst, mut chain) = deploy(8, 8, &db);
    let out = inst
        .search(&mut chain, &Query::equal(42), 10)
        .expect("workflow");
    assert!(out.verified);
    assert_eq!(out.records.len(), 20);
}

#[test]
fn chain_integrity_after_full_lifecycle() {
    let (mut inst, mut chain, _) = load(100, 8, 9);
    inst.insert(&mut chain, &[(RecordId::from_u64(999), 5)])
        .expect("fits");
    inst.search(&mut chain, &Query::less_than(50), 10)
        .expect("workflow");
    assert!(chain.verify_chain(), "hash chain must verify");
    assert!(chain.height() >= 3, "build + insert + search blocks");
}
