//! Quickstart: build an encrypted numerical database, run a verified range
//! query through the blockchain, and decrypt the results.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use slicer_core::{Query, RecordId, SlicerConfig, SlicerSystem};
use slicer_telemetry::TelemetryHandle;

fn main() {
    // One call sets up all four parties: data owner, data user, cloud and
    // a blockchain running the Slicer verification contract.
    let mut system =
        SlicerSystem::try_setup_with(SlicerConfig::test_8bit(), 2024, TelemetryHandle::disabled())
            .expect("chain accepts the deployment");

    // The owner outsources 100 encrypted records (id, value).
    let db: Vec<(RecordId, u64)> = (0u64..100)
        .map(|i| (RecordId::from_u64(i), (i * 29 + 3) % 256))
        .collect();
    system.build(&db).expect("values fit the 8-bit domain");
    println!("built encrypted index for {} records", db.len());

    // The user pays 1000 wei into escrow and asks for every record with
    // value < 50. The cloud searches, proves, and the contract verifies.
    let outcome = system
        .search(&Query::less_than(50), 1_000)
        .expect("chain accepts the workflow");

    println!(
        "query `value < 50` verified={} (request {} gas, verification {} gas)",
        outcome.verified, outcome.request_gas, outcome.verify_gas
    );
    assert!(outcome.verified, "honest cloud always verifies");

    let mut hits: Vec<u64> = outcome
        .records
        .iter()
        .map(|r| r.as_u64().expect("ids built from u64"))
        .collect();
    hits.sort_unstable();
    println!("{} matching records: {:?}", hits.len(), hits);

    // Cross-check against the plaintext.
    let expected: Vec<u64> = db
        .iter()
        .filter(|(_, v)| *v < 50)
        .map(|(id, _)| id.as_u64().expect("u64 ids"))
        .collect();
    let mut expected_sorted = expected;
    expected_sorted.sort_unstable();
    assert_eq!(hits, expected_sorted);
    println!("results match the plaintext oracle ✓");

    // Dynamic insert (forward-secure), then search again.
    system
        .insert(&[(RecordId::from_u64(1_000), 7)])
        .expect("fits the domain");
    let after = system
        .search(&Query::less_than(50), 1_000)
        .expect("chain ok");
    assert!(after.verified);
    assert_eq!(after.records.len(), hits.len() + 1);
    println!("insert visible and still verifiable ✓");
}
