//! Fair-exchange scenario: a trading firm outsources encrypted transaction
//! values; an auditor pays per query. The blockchain escrow makes the
//! exchange fair in both directions:
//!
//! * a **malicious cloud** that drops, forges or mis-binds results is
//!   caught by the contract and the auditor's fee is refunded;
//! * a **quasi-honest auditor** cannot repudiate a correct result — the
//!   contract, not the auditor, decides whether the cloud gets paid.
//!
//! ```text
//! cargo run --release --example trading_audit
//! ```

use slicer_core::{malicious, Query, RecordId, SlicerConfig, SlicerSystem};
use slicer_telemetry::TelemetryHandle;
use slicer_workload::DatasetSpec;

fn main() {
    let mut system = SlicerSystem::try_setup_with(
        SlicerConfig::test_16bit(),
        31337,
        TelemetryHandle::disabled(),
    )
    .expect("chain accepts the deployment");

    // 500 trades with 16-bit notional values.
    let trades: Vec<(RecordId, u64)> = DatasetSpec::uniform(500, 16, 8)
        .generate()
        .into_iter()
        .map(|(id, v)| (RecordId(id), v))
        .collect();
    system.build(&trades).expect("16-bit domain");
    println!("outsourced {} encrypted trades", trades.len());

    let (_, auditor, cloud) = system.instance().addresses();
    let fee = 5_000u128;
    let query = Query::greater_than(60_000); // large-trade audit

    // Round 1: honest cloud. The contract verifies and pays the fee out of
    // escrow — the auditor cannot deny the result.
    let a0 = system.chain().balance(&auditor);
    let c0 = system.chain().balance(&cloud);
    let honest = system.search(&query, fee).expect("chain ok");
    assert!(honest.verified);
    println!(
        "honest audit: {} large trades, cloud paid {} wei (auditor {} → {})",
        honest.records.len(),
        fee,
        a0,
        system.chain().balance(&auditor)
    );
    assert_eq!(system.chain().balance(&cloud), c0 + fee);

    // Round 2: the cloud suppresses one matching trade. Verification fails
    // on-chain and the fee is refunded.
    let a1 = system.chain().balance(&auditor);
    let c1 = system.chain().balance(&cloud);
    let cheated = system
        .search_with(&query, fee, malicious::drop_record)
        .expect("chain ok");
    assert!(!cheated.verified, "incomplete result must fail");
    assert_eq!(system.chain().balance(&auditor), a1, "fee refunded");
    assert_eq!(system.chain().balance(&cloud), c1, "cheating cloud unpaid");
    println!("suppressed-result attack detected; fee refunded ✓");

    // Round 3: the cloud forges an extra result.
    let forged = vec![0xAAu8; 32];
    let injected = system
        .search_with(&query, fee, move |r| malicious::inject_record(r, forged))
        .expect("chain ok");
    assert!(!injected.verified, "forged result must fail");
    println!("forged-result attack detected ✓");

    // Round 4: the cloud returns correct results but swaps which slice
    // they belong to (proof/result binding attack).
    let swapped = system
        .search_with(&query, fee, malicious::swap_results)
        .expect("chain ok");
    assert!(!swapped.verified, "mis-bound results must fail");
    println!("result/proof binding attack detected ✓");

    // Round 5: garbage witness.
    let corrupt = system
        .search_with(&query, fee, malicious::corrupt_witness)
        .expect("chain ok");
    assert!(!corrupt.verified, "corrupt witness must fail");
    println!("corrupt-witness attack detected ✓");

    println!(
        "final balances — auditor: {}, cloud: {} (exactly one honest fee moved)",
        system.chain().balance(&auditor),
        system.chain().balance(&cloud)
    );
}
