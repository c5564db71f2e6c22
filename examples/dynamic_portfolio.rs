//! Dynamic data with deletion and update (Section V-F's dual-instance
//! extension): a portfolio of positions where holdings are opened, closed
//! and re-priced, with every query verified on chain.
//!
//! ```text
//! cargo run --release --example dynamic_portfolio
//! ```

use slicer_core::{DualSlicer, Query, RecordId, SlicerConfig};

fn main() {
    let mut portfolio = DualSlicer::try_setup(SlicerConfig::test_8bit(), 2026)
        .expect("chain accepts the deployment");

    // Open five positions with sizes (in lots).
    let positions = [
        (RecordId::from_u64(1), 10u64),
        (RecordId::from_u64(2), 45),
        (RecordId::from_u64(3), 80),
        (RecordId::from_u64(4), 120),
        (RecordId::from_u64(5), 200),
    ];
    portfolio.insert(&positions).expect("8-bit domain");
    println!("opened {} positions", portfolio.live_count());

    let small = portfolio
        .search(&Query::less_than(100), 100)
        .expect("chain ok");
    assert!(small.verified);
    println!("positions < 100 lots: {:?}", ids(&small.records));
    assert_eq!(ids(&small.records), vec![1, 2, 3]);

    // Close position 2 (deletion = insert into the delete-instance).
    portfolio.delete(RecordId::from_u64(2)).expect("live id");
    let after_close = portfolio
        .search(&Query::less_than(100), 100)
        .expect("chain ok");
    assert!(after_close.verified);
    assert_eq!(ids(&after_close.records), vec![1, 3]);
    println!(
        "closed #2; positions < 100 now {:?}",
        ids(&after_close.records)
    );

    // Re-price position 4 from 120 down to 60 lots (update = delete +
    // re-insert).
    portfolio
        .update(RecordId::from_u64(4), 60)
        .expect("live id");
    let after_update = portfolio
        .search(&Query::less_than(100), 100)
        .expect("chain ok");
    assert!(after_update.verified);
    assert_eq!(ids(&after_update.records), vec![1, 3, 4]);
    println!(
        "re-priced #4 to 60; positions < 100 now {:?}",
        ids(&after_update.records)
    );

    // Double-close and double-open are rejected (the paper's uniqueness
    // rule for record IDs).
    assert!(portfolio.delete(RecordId::from_u64(2)).is_err());
    assert!(portfolio.insert(&[(RecordId::from_u64(5), 1)]).is_err());
    println!("uniqueness rules enforced ✓");

    // Both instances verified on chain for every query above.
    assert!(portfolio.chain().verify_chain());
    println!(
        "hash chain intact over {} blocks ✓",
        portfolio.chain().height()
    );
}

fn ids(records: &[RecordId]) -> Vec<u64> {
    let mut v: Vec<u64> = records
        .iter()
        .map(|r| r.as_u64().expect("u64 ids"))
        .collect();
    v.sort_unstable();
    v
}
