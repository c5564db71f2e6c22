//! Multi-attribute records (Section V-F): per-attribute indexing, querying
//! and dynamic updates.

use slicer_chain::Blockchain;
use slicer_core::{Query, Record, RecordId, SlicerConfig, SlicerInstance};
use slicer_telemetry::TelemetryHandle;

/// A fresh deployment with `db` built, telemetry off.
fn system(config: SlicerConfig, seed: u64, db: &[Record]) -> (SlicerInstance, Blockchain) {
    let mut chain = Blockchain::new();
    let mut inst =
        SlicerInstance::try_setup_with(config, seed, &mut chain, TelemetryHandle::disabled())
            .unwrap();
    inst.build(&mut chain, db).unwrap();
    (inst, chain)
}

fn cohort() -> Vec<Record> {
    (0u64..60)
        .map(|i| {
            Record::with_attrs(
                RecordId::from_u64(i),
                vec![
                    ("age".into(), 20 + (i * 7) % 70),
                    ("score".into(), (i * 13) % 256),
                ],
            )
        })
        .collect()
}

fn oracle(db: &[Record], attr: &str, q: &Query) -> Vec<u64> {
    let mut v: Vec<u64> = db
        .iter()
        .filter(|r| r.attrs.iter().any(|(a, x)| a == attr && q.matches(*x)))
        .map(|r| r.id.as_u64().unwrap())
        .collect();
    v.sort_unstable();
    v
}

fn got(out: &slicer_core::SearchOutcome) -> Vec<u64> {
    let mut v: Vec<u64> = out.records.iter().map(|r| r.as_u64().unwrap()).collect();
    v.sort_unstable();
    v
}

#[test]
fn per_attribute_queries_match_oracle() {
    let db = cohort();
    let (mut inst, mut chain) = system(SlicerConfig::test_8bit(), 31, &db);
    for (attr, q) in [
        ("age", Query::less_than(40).on_attr("age")),
        ("age", Query::greater_than(60).on_attr("age")),
        ("score", Query::less_than(100).on_attr("score")),
        ("score", Query::equal(13).on_attr("score")),
    ] {
        let out = inst.search(&mut chain, &q, 10).unwrap();
        assert!(out.verified, "{q:?}");
        assert_eq!(got(&out), oracle(&db, attr, &q), "{q:?}");
    }
}

#[test]
fn same_value_different_attr_does_not_leak_across() {
    let db = vec![
        Record::with_attrs(RecordId::from_u64(1), vec![("a".into(), 5)]),
        Record::with_attrs(RecordId::from_u64(2), vec![("b".into(), 5)]),
    ];
    let (mut inst, mut chain) = system(SlicerConfig::test_8bit(), 32, &db);
    for (attr, want) in [("a", 1), ("b", 2)] {
        let q = Query::equal(5).on_attr(attr);
        let out = inst.search(&mut chain, &q, 10).unwrap();
        assert_eq!(got(&out), vec![want], "attribute {attr}");
    }
    // Unindexed attribute: provably empty without touching the cloud.
    let out_c = inst
        .search(&mut chain, &Query::equal(5).on_attr("c"), 10)
        .unwrap();
    assert!(out_c.records.is_empty() && out_c.verified);
    assert_eq!(out_c.request_gas, 0);
}

#[test]
fn multiattr_insert_flows_end_to_end() {
    let db = cohort();
    let (mut inst, mut chain) = system(SlicerConfig::test_8bit(), 33, &db);
    let newcomers: Vec<Record> = (100u64..105)
        .map(|i| {
            Record::with_attrs(
                RecordId::from_u64(i),
                vec![("age".into(), 25), ("score".into(), 250)],
            )
        })
        .collect();
    inst.insert(&mut chain, &newcomers).unwrap();

    let q = Query::greater_than(240).on_attr("score");
    let out = inst.search(&mut chain, &q, 10).unwrap();
    assert!(out.verified);
    let mut want = oracle(&db, "score", &q);
    want.extend(100..105);
    want.sort_unstable();
    assert_eq!(got(&out), want);
}

#[test]
fn record_with_many_attributes() {
    let attrs: Vec<(String, u64)> = (0..10).map(|i| (format!("f{i}"), i * 11)).collect();
    let db = vec![Record::with_attrs(RecordId::from_u64(7), attrs)];
    let (mut inst, mut chain) = system(SlicerConfig::test_8bit(), 34, &db);
    for i in 0..10u64 {
        let out = inst
            .search(
                &mut chain,
                &Query::equal(i * 11).on_attr(&format!("f{i}")),
                5,
            )
            .unwrap();
        assert!(out.verified);
        assert_eq!(got(&out), vec![7], "attribute f{i}");
    }
}
