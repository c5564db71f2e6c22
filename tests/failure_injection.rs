//! Failure injection: every malicious-cloud behaviour from the Section
//! IV-B threat model must fail on-chain verification and trigger a refund
//! (Theorem 3's soundness, tested end to end).

use slicer_core::{malicious, CloudResponse, Query, RecordId, SlicerConfig, SlicerSystem};
use slicer_telemetry::TelemetryHandle;
use slicer_workload::DatasetSpec;

fn system(seed: u64) -> SlicerSystem {
    let db: Vec<(RecordId, u64)> = DatasetSpec::uniform(250, 8, seed)
        .generate()
        .into_iter()
        .map(|(id, v)| (RecordId(id), v))
        .collect();
    let mut sys =
        SlicerSystem::try_setup_with(SlicerConfig::test_8bit(), seed, TelemetryHandle::disabled())
            .unwrap();
    sys.build(&db).expect("fits domain");
    sys
}

/// Runs a tampered search and asserts failure + refund.
fn assert_attack_caught(
    seed: u64,
    query: Query,
    tamper: impl FnOnce(CloudResponse) -> CloudResponse,
) {
    let mut sys = system(seed);
    let (_, user, cloud) = sys.instance().addresses();
    let u0 = sys.chain().balance(&user);
    let c0 = sys.chain().balance(&cloud);
    let out = sys.search_with(&query, 777, tamper).expect("workflow runs");
    assert!(!out.verified, "attack must be detected");
    assert!(!out.paid_cloud);
    assert_eq!(sys.chain().balance(&user), u0, "fee refunded to user");
    assert_eq!(sys.chain().balance(&cloud), c0, "attacker unpaid");
}

#[test]
fn dropped_record_fails() {
    assert_attack_caught(1, Query::less_than(128), malicious::drop_record);
}

#[test]
fn injected_record_fails() {
    assert_attack_caught(2, Query::less_than(128), |r| {
        malicious::inject_record(r, vec![0x42; 32])
    });
}

#[test]
fn corrupt_witness_fails() {
    assert_attack_caught(3, Query::less_than(128), malicious::corrupt_witness);
}

#[test]
fn swapped_slice_results_fail() {
    assert_attack_caught(4, Query::less_than(200), malicious::swap_results);
}

#[test]
fn empty_response_fails() {
    assert_attack_caught(5, Query::less_than(128), |mut resp| {
        for e in &mut resp.entries {
            e.er.clear();
        }
        resp
    });
}

#[test]
fn missing_slice_entry_fails() {
    assert_attack_caught(6, Query::less_than(128), |mut resp| {
        resp.entries.pop();
        resp
    });
}

#[test]
fn duplicated_slice_entry_fails() {
    // 255 = 0b1111_1111: a `< v` query has one usable slice per set bit of
    // `v`, so this query carries 8 tokens and the duplication bites.
    assert_attack_caught(7, Query::less_than(255), |mut resp| {
        if resp.entries.len() >= 2 {
            // Answer token 0 twice, never answer the last token.
            let dup = resp.entries[0].clone();
            let last = resp.entries.len() - 1;
            resp.entries[last] = slicer_chain::VerifyEntry {
                token_idx: 0,
                ..dup
            };
        }
        resp
    });
}

#[test]
fn bitflipped_ciphertext_fails() {
    assert_attack_caught(8, Query::less_than(128), |mut resp| {
        for e in &mut resp.entries {
            if let Some(er) = e.er.first_mut() {
                er[0] ^= 0x01;
                break;
            }
        }
        resp
    });
}

#[test]
fn stale_cloud_fails_freshness() {
    // The cloud skips ingesting the owner's newest insert; the user's
    // fresh token (new trapdoor, new j) produces a state the stale cloud
    // cannot prove — data freshness without contacting the owner.
    let mut sys = system(9);
    // Insert but sabotage the cloud's copy: capture the honest response
    // first, then re-run after dropping the cloud's view.
    let probe = 42u64;
    sys.insert(&[(RecordId::from_u64(50_000), probe)])
        .expect("fits domain");

    // Remove the cloud's knowledge of the latest generation by rebuilding
    // a stale cloud from scratch: easiest faithful simulation is to tamper
    // the response so the new-generation record is missing, which is
    // byte-wise what a stale cloud would return.
    let (_, user, cloud) = sys.instance().addresses();
    let u0 = sys.chain().balance(&user);
    let c0 = sys.chain().balance(&cloud);
    let out = sys
        .search_with(&Query::equal(probe), 500, |mut resp| {
            // Drop the results that belong to the newest generation (the
            // freshly inserted record is the last one recovered in the
            // newest-first walk... drop the first recovered result).
            for e in &mut resp.entries {
                if !e.er.is_empty() {
                    e.er.remove(0);
                    break;
                }
            }
            resp
        })
        .expect("workflow runs");
    assert!(!out.verified, "stale result set must fail");
    assert_eq!(sys.chain().balance(&user), u0);
    assert_eq!(sys.chain().balance(&cloud), c0);
}

#[test]
fn unregistered_request_submission_reverts() {
    // Submitting results for a request id that was never registered
    // reverts at the contract.
    use slicer_chain::{Address, SlicerCall, Transaction};
    let mut sys = system(10);
    let contract = sys.instance().contract_address();
    let attacker = Address::from_byte(0xEE);
    sys.chain_mut().create_account(attacker, 1_000_000);
    let call = SlicerCall::SubmitResult {
        request_id: [0xEE; 32],
        entries: vec![],
    };
    let receipt = sys
        .chain_mut()
        .send_transaction(Transaction::call(attacker, contract, 0, call.encode()))
        .expect("well-formed transaction");
    assert!(
        matches!(receipt.status, slicer_chain::TxStatus::Reverted(ref r) if r.contains("unknown request")),
        "got {:?}",
        receipt.status
    );
}

#[test]
fn third_party_cannot_claim_anothers_request() {
    // Register a request honestly, then have an attacker (not the named
    // cloud) try to submit and claim the escrow: unauthorized.
    use slicer_chain::{Address, SlicerCall, Transaction};
    let mut sys = system(11);
    let contract = sys.instance().contract_address();
    let (_, user, _) = sys.instance().addresses();

    // Register a request directly so it stays unsettled.
    let tokens = sys.instance().user.tokens_for(&Query::less_than(100));
    let width = 64;
    let call = SlicerCall::RequestSearch {
        request_id: [0xAB; 32],
        cloud: sys.instance().addresses().2,
        tokens: tokens.iter().map(|t| t.to_chain(width)).collect(),
    };
    let r = sys
        .chain_mut()
        .send_transaction(Transaction::call(user, contract, 500, call.encode()))
        .expect("request accepted");
    assert!(r.status.is_success());

    let attacker = Address::from_byte(0xEE);
    sys.chain_mut().create_account(attacker, 1_000_000);
    let submit = SlicerCall::SubmitResult {
        request_id: [0xAB; 32],
        entries: vec![],
    };
    let receipt = sys
        .chain_mut()
        .send_transaction(Transaction::call(attacker, contract, 0, submit.encode()))
        .expect("well-formed transaction");
    assert!(
        matches!(receipt.status, slicer_chain::TxStatus::Reverted(ref r) if r.contains("not authorized")),
        "got {:?}",
        receipt.status
    );
}

#[test]
fn only_owner_updates_accumulator() {
    use slicer_chain::{Address, SlicerCall, Transaction};
    let mut sys = system(12);
    let contract = sys.instance().contract_address();
    let attacker = Address::from_byte(0xDD);
    sys.chain_mut().create_account(attacker, 1_000_000);
    let call = SlicerCall::SetAccumulator(vec![0x11; 64]);
    let receipt = sys
        .chain_mut()
        .send_transaction(Transaction::call(attacker, contract, 0, call.encode()))
        .expect("well-formed transaction");
    assert!(
        matches!(receipt.status, slicer_chain::TxStatus::Reverted(ref r) if r.contains("not authorized")),
        "got {:?}",
        receipt.status
    );
    // And the stored digest is untouched: an honest search still passes.
    let out = sys.search(&Query::less_than(100), 10).expect("workflow");
    assert!(out.verified);
}
