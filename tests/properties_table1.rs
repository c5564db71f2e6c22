//! Table I's feature matrix, demonstrated as executable properties:
//! Slicer claims data dynamics ✓, numerical comparison ✓, freshness ✓,
//! forward security ✓ and public verifiability ✓. Each test exhibits one
//! property end to end.

use slicer_chain::Blockchain;
use slicer_core::{malicious, CloudResponse, Query, RecordId, SlicerConfig, SlicerInstance};
use slicer_crypto::Prf;
use slicer_telemetry::TelemetryHandle;
use std::collections::HashSet;

/// A fresh deployment with `db` built, telemetry off.
fn system(config: SlicerConfig, seed: u64, db: &[(RecordId, u64)]) -> (SlicerInstance, Blockchain) {
    let mut chain = Blockchain::new();
    let mut inst =
        SlicerInstance::try_setup_with(config, seed, &mut chain, TelemetryHandle::disabled())
            .unwrap();
    inst.build(&mut chain, db).unwrap();
    (inst, chain)
}

fn ids(records: &[RecordId]) -> Vec<u64> {
    let mut v: Vec<u64> = records.iter().map(|r| r.as_u64().unwrap()).collect();
    v.sort_unstable();
    v
}

#[test]
fn property_dynamics_additions_are_first_class() {
    // Dynamics: additions work after build and compose with search
    // (deletion/update are exercised in tests/dual_instance.rs).
    let (mut inst, mut chain) =
        system(SlicerConfig::test_8bit(), 1, &[(RecordId::from_u64(1), 10)]);
    for round in 2u64..8 {
        inst.insert(&mut chain, &[(RecordId::from_u64(round), round * 10 % 256)])
            .unwrap();
    }
    let out = inst.search(&mut chain, &Query::less_than(45), 10).unwrap();
    assert!(out.verified);
    assert_eq!(ids(&out.records), vec![1, 2, 3, 4]);
}

#[test]
fn property_numerical_comparison_not_just_keywords() {
    // Numerical comparison: a single order query answers a range without
    // enumerating the value space (tokens ≤ b, not O(|domain|)).
    let db: Vec<(RecordId, u64)> = (0u64..100)
        .map(|i| (RecordId::from_u64(i), i * 601 % 65_536))
        .collect();
    let (mut inst, mut chain) = system(SlicerConfig::test_16bit(), 2, &db);
    let tokens = inst.user.tokens_for(&Query::less_than(30_000));
    assert!(
        tokens.len() <= 16,
        "order query uses at most b tokens, got {}",
        tokens.len()
    );
    let out = inst
        .search(&mut chain, &Query::less_than(30_000), 10)
        .unwrap();
    assert!(out.verified);
    let want: Vec<u64> = db
        .iter()
        .filter(|(_, v)| *v < 30_000)
        .map(|(id, _)| id.as_u64().unwrap())
        .collect();
    let mut want = want;
    want.sort_unstable();
    assert_eq!(ids(&out.records), want);
}

#[test]
fn property_freshness_stale_results_rejected() {
    // Freshness: after the owner updates the data (and the on-chain
    // digest), a result set missing the newest generation cannot verify —
    // without any online participation of the owner in the check.
    let (mut inst, mut chain) =
        system(SlicerConfig::test_8bit(), 3, &[(RecordId::from_u64(1), 77)]);
    inst.insert(&mut chain, &[(RecordId::from_u64(2), 77)])
        .unwrap();
    let stale = inst
        .search_with(&mut chain, &Query::equal(77), 100, |mut resp| {
            for r in &mut resp.results {
                // Serve only one generation's worth of results.
                r.er.truncate(1);
            }
            resp
        })
        .unwrap();
    assert!(!stale.verified, "stale view must be rejected");
    let fresh = inst.search(&mut chain, &Query::equal(77), 100).unwrap();
    assert!(fresh.verified);
    assert_eq!(ids(&fresh.records), vec![1, 2]);
}

#[test]
fn property_forward_security_old_tokens_miss_new_data() {
    // Forward security: an old search token cannot reach entries inserted
    // later — the insertion rotated the trapdoor with π_sk⁻¹, which the
    // server cannot invert.
    let (mut inst, mut chain) =
        system(SlicerConfig::test_8bit(), 4, &[(RecordId::from_u64(1), 99)]);

    // Capture the pre-insert token for value 99.
    let old_tokens = inst.user.tokens_for(&Query::equal(99));
    assert_eq!(old_tokens.len(), 1);

    inst.insert(&mut chain, &[(RecordId::from_u64(2), 99)])
        .unwrap();

    // The cloud, replaying the OLD token, recovers only the old record.
    let old_results = inst.cloud.search(&old_tokens);
    assert_eq!(
        old_results[0].er.len(),
        1,
        "new record invisible to old token"
    );

    // The fresh token reaches both generations.
    let new_tokens = inst.user.tokens_for(&Query::equal(99));
    assert_eq!(new_tokens[0].updates, old_tokens[0].updates + 1);
    let new_results = inst.cloud.search(&new_tokens);
    assert_eq!(new_results[0].er.len(), 2);

    // And the new generation's index labels are unlinkable to the old
    // token's label space: no label derivable from the old trapdoor hits
    // the new entries (checked by exhausting the old token's reach above).
    assert_ne!(new_tokens[0].trapdoor, old_tokens[0].trapdoor);
}

#[test]
fn property_forward_security_insert_output_looks_random() {
    // The L^insert leakage argument: the shipped index entries carry no
    // keyword-correlated structure — labels under the same keyword before
    // and after rotation share no bytes prefix-wise beyond chance. We test
    // a necessary observable: labels are distinct and spread.
    let (mut inst, _) = system(SlicerConfig::test_8bit(), 5, &[(RecordId::from_u64(1), 50)]);
    let out = inst.owner.insert(&[(RecordId::from_u64(2), 50)]).unwrap();
    let labels: HashSet<[u8; 32]> = out.entries.iter().map(|(l, _)| *l).collect();
    assert_eq!(labels.len(), out.entries.len(), "no label collisions");
    // First-byte distribution sanity: not all equal.
    let firsts: HashSet<u8> = out.entries.iter().map(|(l, _)| l[0]).collect();
    assert!(firsts.len() > 1 || out.entries.len() < 4);
}

#[test]
fn property_public_verifiability_no_secrets_on_chain() {
    // Public verifiability: the contract verifies with only public inputs.
    // The calldata visible on chain never contains K, K_R or plaintext
    // values/record ids.
    let secret_value = 123u64;
    let (mut inst, mut chain) = system(
        SlicerConfig::test_8bit(),
        6,
        &[(RecordId::from_u64(1), secret_value)],
    );
    let out = inst
        .search(&mut chain, &Query::equal(secret_value), 100)
        .unwrap();
    assert!(out.verified, "verification used only public data");

    // The encrypted results recovered by the cloud do not reveal the
    // record id without K_R: decrypting with the wrong key garbles.
    let tokens = inst.user.tokens_for(&Query::equal(secret_value));
    let results = inst.cloud.search(&tokens);
    let er = &results[0].er[0];
    assert_ne!(&er[..], RecordId::from_u64(1).as_bytes());
    // And the search token hides the queried value: G1/G2 are PRF outputs;
    // recomputing them requires K. A fresh PRF with a wrong key disagrees.
    let wrong = Prf::new(b"not the real K");
    assert_ne!(tokens[0].g1, wrong.derive(b"anything", 1));
}

#[test]
fn property_fairness_payment_follows_verification() {
    // Fairness: the user cannot deny a correct result (contract pays the
    // cloud), and the cloud cannot take the fee for a wrong one.
    let db: Vec<(RecordId, u64)> = (0u64..50)
        .map(|i| (RecordId::from_u64(i), i % 256))
        .collect();
    let (mut inst, mut chain) = system(SlicerConfig::test_8bit(), 7, &db);
    let (_, user, cloud) = inst.addresses();

    let u0 = chain.balance(&user);
    let c0 = chain.balance(&cloud);
    let honest = inst.search(&mut chain, &Query::less_than(25), 999).unwrap();
    assert!(honest.verified && honest.paid_cloud);
    assert_eq!(chain.balance(&user), u0 - 999);
    assert_eq!(chain.balance(&cloud), c0 + 999);

    let cheats: [fn(CloudResponse) -> CloudResponse; 4] = [
        malicious::drop_record,
        |r| malicious::inject_record(r, vec![0xAA; 32]),
        malicious::swap_results,
        malicious::corrupt_witness,
    ];
    for (i, cheat) in cheats.into_iter().enumerate() {
        let out = inst
            .search_with(&mut chain, &Query::less_than(25), 999, cheat)
            .unwrap();
        assert!(!out.verified && !out.paid_cloud, "cheat {i}");
        assert_eq!(chain.balance(&user), u0 - 999, "cheat {i}: fee refunded");
        assert_eq!(chain.balance(&cloud), c0 + 999, "cheat {i}: no payment");
    }

    // The same outcome read back from public chain events alone, with no
    // key: one accumulator update for the one build, one settlement per
    // request, and the paid/refunded split in each `Settled` event's last
    // byte.
    assert!(chain.verify_chain());
    assert_eq!(chain.logs_by_topic("AccumulatorUpdated").len(), 1);
    let settled = chain.logs_by_topic("Settled");
    let outcomes: Vec<u8> = settled.iter().map(|l| *l.data.last().unwrap()).collect();
    assert_eq!(outcomes, vec![1, 0, 0, 0, 0]);
    assert_eq!(chain.logs_by_topic("SearchRequested").len(), settled.len());
}
