//! Ablation: accumulator witness strategies (direct vs batched vs
//! root-factor) and accumulation itself — the design choice behind
//! Fig. 5b/5d's VO-generation curves — plus the states of the batch
//! prover: cold (leaf build), warm, and after one ingest.
//!
//! Sizes: 200 and 800 primes for the Fig. 5 comparisons, and 4,549 — the
//! prime count of the `search_uniform` benchmark workload — for the
//! batch prover, where the direct rows would take seconds per iteration
//! and are skipped.

use slicer_accumulator::{hash_to_prime, witness, Accumulator, RsaParams};
use slicer_bignum::BigUint;
use slicer_par::Pool;
use slicer_testkit::bench::{black_box, Bench};

fn primes(range: std::ops::Range<u32>) -> Vec<BigUint> {
    range
        .map(|i| hash_to_prime(&i.to_be_bytes(), 128).expect("width ok"))
        .collect()
}

fn main() {
    let params = RsaParams::fixed_512();
    // `SLICER_THREADS` sizes the prover's pool (the leaf build fans out).
    let pool = Pool::configured();
    let mut group = Bench::new("ads_ablation");

    for q in [200u32, 800, 4549] {
        let ps = primes(0..q);
        group.run(&format!("accumulate/{q}"), || {
            black_box(Accumulator::over(&params, &ps));
        });
        // 16 slices of an order query: direct does 16 full folds, batched
        // shares the complement exponentiation.
        let targets: Vec<usize> = (0..16).map(|i| i * (q as usize / 16)).collect();
        if q <= 800 {
            group.run(&format!("witness_direct_x1/{q}"), || {
                black_box(witness::membership_witness(&params, &ps, 0).expect("in range"));
            });
            group.run(&format!("witness_direct_x16/{q}"), || {
                black_box(
                    targets
                        .iter()
                        .map(|&t| witness::membership_witness(&params, &ps, t).expect("in range"))
                        .collect::<Vec<_>>(),
                );
            });
            let all = witness::singletons(ps.len());
            group.run(&format!("root_factor_all/{q}"), || {
                black_box(witness::root_factor(&params, params.generator(), &ps, &all));
            });
        }
        // A fresh prover used once: the leaf build over the whole list (the
        // first search after boot or restore), then 16 leaf splits.
        group.run(&format!("witness_batched_x16/{q}"), || {
            black_box(
                witness::BatchProver::new(&params)
                    .witnesses(&ps, &targets, &pool)
                    .expect("valid targets"),
            );
        });
        // The cloud's steady state: a long-lived prover answering a query
        // with nothing ingested since the last one ...
        let mut warm = witness::BatchProver::new(&params);
        warm.witnesses(&ps, &targets, &pool).expect("valid targets");
        group.run(&format!("prover_warm_x16/{q}"), || {
            black_box(warm.witnesses(&ps, &targets, &pool).expect("valid targets"));
        });
        // ... and after one single-record ingest (17 new primes at 16-bit).
        let fresh = primes(100_000..100_017);
        let mut grown = ps.clone();
        grown.extend(fresh.iter().cloned());
        group.run_batched(
            &format!("prover_ingest17_x16/{q}"),
            || warm.clone(),
            |mut p| {
                black_box(p.witnesses(&grown, &targets, &pool).expect("valid targets"));
            },
        );
        // The split share of a batched witness: root factor over the
        // 16 targets from a fixed base.
        let target_primes: Vec<BigUint> = targets.iter().map(|&t| ps[t].clone()).collect();
        let singles = witness::singletons(target_primes.len());
        group.run(&format!("root_factor_x16/{q}"), || {
            black_box(witness::root_factor(
                &params,
                params.generator(),
                &target_primes,
                &singles,
            ));
        });

        // One fold of the whole list, `g^(∏ X)`: the unit of the leaf
        // build's cost.
        group.run(&format!("powmod_product/{q}"), || {
            black_box(params.powmod_product(params.generator(), &ps));
        });

        // Verification (the contract-side cost): constant regardless of q.
        let acc = Accumulator::over(&params, &ps);
        let w = warm
            .witnesses(&ps, &[0], &pool)
            .expect("valid target")
            .remove(0);
        group.run(&format!("verify/{q}"), || {
            assert!(witness::verify_membership(&params, &ps[0], &w, acc.value()));
        });

        // Merkle-tree baseline (Section III-B's point of comparison):
        // cheaper to build and verify off-chain, but O(log n) proof size
        // and position leakage.
        let leaves: Vec<Vec<u8>> = ps.iter().map(|p| p.to_bytes_be()).collect();
        group.run(&format!("merkle_build/{q}"), || {
            black_box(slicer_bench::merkle::MerkleTree::build(&leaves).expect("non-empty"));
        });
        let tree = slicer_bench::merkle::MerkleTree::build(&leaves).expect("non-empty");
        group.run(&format!("merkle_prove/{q}"), || {
            black_box(tree.prove(0).expect("in range"));
        });
        let proof = tree.prove(0).expect("in range");
        group.run(&format!("merkle_verify/{q}"), || {
            assert!(slicer_bench::merkle::MerkleTree::verify(
                &tree.root(),
                &leaves[0],
                &proof
            ));
        });
    }
}
