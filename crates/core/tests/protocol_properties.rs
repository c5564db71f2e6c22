//! Property-based protocol invariants: random databases, random queries,
//! always equal to the plaintext oracle; VOs always verify; tampering is
//! always detected (offline variant — no chain — for property-test
//! throughput).

use slicer_accumulator::Accumulator;
use slicer_core::{CloudServer, DataOwner, Query, RecordId, SlicerConfig};
use slicer_testkit::{prop_assert, prop_assert_eq, prop_check, Gen};

fn build_system(values: &[u64], seed: u64) -> (DataOwner, CloudServer) {
    let db: Vec<(RecordId, u64)> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| (RecordId::from_u64(i as u64), v))
        .collect();
    let mut owner = DataOwner::new(SlicerConfig::test_8bit(), seed);
    let out = owner.build(&db).expect("8-bit values");
    let mut cloud = CloudServer::new(
        owner.config().clone(),
        owner.keys().trapdoor().public().clone(),
    );
    cloud.ingest(&out).expect("fresh cloud");
    (owner, cloud)
}

fn decrypted_ids(owner: &DataOwner, results: &[slicer_core::SliceResult]) -> Vec<u64> {
    let user = owner.delegate();
    let mut ids: Vec<u64> = user
        .decrypt(results)
        .expect("honest results decrypt")
        .iter()
        .map(|r| r.as_u64().expect("u64 ids"))
        .collect();
    ids.sort_unstable();
    ids
}

fn values_vec(g: &mut Gen, min: usize, max: usize) -> Vec<u64> {
    (0..g.usize_in(min, max))
        .map(|_| g.u64_in(0, 255))
        .collect()
}

#[test]
fn search_matches_oracle() {
    prop_check!(0xC0E1, 64, |g| {
        let values = values_vec(g, 1, 39);
        let qv = g.u64_in(0, 255);
        let seed = g.u64_in(0, 999);
        let (owner, cloud) = build_system(&values, seed);
        for q in [
            Query::equal(qv),
            Query::less_than(qv),
            Query::greater_than(qv),
        ] {
            let tokens = owner.search_tokens(&q);
            let results = cloud.search(&tokens);
            let got = decrypted_ids(&owner, &results);
            let mut want: Vec<u64> = values
                .iter()
                .enumerate()
                .filter(|(_, &v)| q.matches(v))
                .map(|(i, _)| i as u64)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want, "query {:?}", q);
        }
        Ok(())
    });
}

#[test]
fn honest_vos_always_verify() {
    prop_check!(0xC0E2, 64, |g| {
        let values = values_vec(g, 1, 24);
        let qv = g.u64_in(0, 255);
        let seed = g.u64_in(0, 999);
        let (owner, mut cloud) = build_system(&values, seed);
        let tokens = owner.search_tokens(&Query::less_than(qv));
        let resp = cloud.respond(&tokens).unwrap();
        let params = &owner.config().accumulator;
        let acc = Accumulator::from_value(params, owner.accumulator().clone());
        for (result, (vo, _)) in resp.results.iter().zip(&resp.proofs) {
            let (x, _) = cloud.prime_for(result).unwrap();
            let w = slicer_bignum::BigUint::from_bytes_be(vo);
            prop_assert!(acc.verify(&x, &w));
        }
        Ok(())
    });
}

#[test]
fn any_single_record_drop_is_detected() {
    prop_check!(0xC0E3, 64, |g| {
        let values = values_vec(g, 2, 24);
        let seed = g.u64_in(0, 999);
        let (owner, mut cloud) = build_system(&values, seed);
        // Query that matches everything so some slice is non-empty.
        let tokens = owner.search_tokens(&Query::less_than(255));
        let resp = cloud.respond(&tokens).unwrap();
        let params = &owner.config().accumulator;
        let acc = Accumulator::from_value(params, owner.accumulator().clone());
        // Drop one record from each non-empty slice in turn; the slice's
        // recomputed prime must no longer verify against its witness.
        for (i, result) in resp.results.iter().enumerate() {
            if result.er.is_empty() {
                continue;
            }
            let mut tampered = result.clone();
            tampered.er.pop();
            let (x, _) = cloud.prime_for(&tampered).unwrap();
            let w = slicer_bignum::BigUint::from_bytes_be(&resp.proofs[i].0);
            prop_assert!(!acc.verify(&x, &w), "slice {i} tamper undetected");
        }
        Ok(())
    });
}

#[test]
fn insert_preserves_oracle_equality() {
    prop_check!(0xC0E4, 64, |g| {
        let initial = values_vec(g, 1, 19);
        let extra = values_vec(g, 1, 9);
        let qv = g.u64_in(0, 255);
        let seed = g.u64_in(0, 999);
        let (mut owner, mut cloud) = build_system(&initial, seed);
        let delta: Vec<(RecordId, u64)> = extra
            .iter()
            .enumerate()
            .map(|(i, &v)| (RecordId::from_u64(1_000 + i as u64), v))
            .collect();
        let out = owner.insert(&delta).expect("in-domain");
        cloud.ingest(&out).expect("consistent");
        let q = Query::less_than(qv);
        let tokens = owner.search_tokens(&q);
        let results = cloud.search(&tokens);
        let got = decrypted_ids(&owner, &results);
        let mut want: Vec<u64> = initial
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .chain(
                extra
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (1_000 + i as u64, v)),
            )
            .filter(|(_, v)| q.matches(*v))
            .map(|(id, _)| id)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        Ok(())
    });
}
