//! Soak test: a longer randomized lifecycle on a single deployment — a
//! 1000-record initial build plus interleaved inserts and verified
//! searches at 16-bit, under a multi-worker pool, with the plaintext
//! oracle AND chain integrity checked at every step.
//!
//! The wide range queries (hundreds of matching records) push witness
//! generation down the batched root-factor path on every step, so this is
//! also the end-to-end exerciser for the product-tree membership
//! witnesses.

use slicer_chain::Blockchain;
use slicer_core::{Query, RecordId, SlicerConfig, SlicerInstance};
use slicer_crypto::Rng;
use slicer_telemetry::TelemetryHandle;
use slicer_workload::splitmix_stream;

#[test]
fn interleaved_16bit_lifecycle() {
    // An explicit multi-worker pool even on single-core CI boxes: the
    // deterministic fan-out must merge cross-thread results identically
    // regardless of the hardware the test lands on.
    let mut chain = Blockchain::new();
    let mut inst = SlicerInstance::try_setup_with(
        SlicerConfig::test_16bit().with_workers(3),
        99,
        &mut chain,
        TelemetryHandle::disabled(),
    )
    .unwrap();
    let mut rng = splitmix_stream(2026);
    let mut model: Vec<(u64, u64)> = Vec::new();
    let mut next_id = 0u64;

    // Initial build: 1000 records through the pooled build path.
    let initial: Vec<(RecordId, u64)> = (0..1000)
        .map(|_| {
            let id = next_id;
            next_id += 1;
            (RecordId::from_u64(id), rng.next_u64() % 65_536)
        })
        .collect();
    model.extend(initial.iter().map(|(id, v)| (id.as_u64().unwrap(), *v)));
    inst.build(&mut chain, &initial).expect("16-bit domain");

    let mut widest = 0usize;
    for step in 0..6 {
        // Insert a small batch.
        let batch: Vec<(RecordId, u64)> = (0..10)
            .map(|_| {
                let id = next_id;
                next_id += 1;
                (RecordId::from_u64(id), rng.next_u64() % 65_536)
            })
            .collect();
        model.extend(batch.iter().map(|(id, v)| (id.as_u64().unwrap(), *v)));
        inst.insert(&mut chain, &batch).expect("16-bit domain");

        // Verified search around a random pivot drawn from the data.
        let pivot = model[(rng.next_u64() % model.len() as u64) as usize].1;
        let q = match step % 3 {
            0 => Query::less_than(pivot),
            1 => Query::greater_than(pivot),
            _ => Query::equal(pivot),
        };
        let out = inst.search(&mut chain, &q, 50).expect("workflow runs");
        assert!(out.verified, "step {step}");
        widest = widest.max(out.records.len());

        let mut got: Vec<u64> = out.records.iter().map(|r| r.as_u64().unwrap()).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = model
            .iter()
            .filter(|(_, v)| q.matches(*v))
            .map(|(id, _)| *id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "step {step} query {q:?}");

        // Chain integrity after every insert + search round, not just at
        // the end: a corrupted block fails the step that broke it.
        assert!(chain.verify_chain(), "chain broken after step {step}");
    }

    // At least one range query must have matched a wide swath of the 1010+
    // records — that is what routes witness generation through the batched
    // root-factor path rather than the one-at-a-time fallback.
    assert!(
        widest >= 64,
        "soak never produced a wide result set (max {widest}); batched \
         witness path not exercised"
    );

    // Every settlement in this run was honest: all Settled events carry 1.
    let settled = chain.logs_by_topic("Settled");
    assert_eq!(settled.len(), 6);
    assert!(settled.iter().all(|l| *l.data.last().unwrap() == 1));
}
