//! Failure injection: every malicious-cloud behaviour from the Section
//! IV-B threat model must fail on-chain verification and trigger a refund
//! (Theorem 3's soundness, tested end to end).

use slicer_chain::Blockchain;
use slicer_core::{malicious, CloudResponse, Query, RecordId, SlicerConfig, SlicerInstance};
use slicer_telemetry::TelemetryHandle;
use slicer_workload::DatasetSpec;

fn system(seed: u64) -> (SlicerInstance, Blockchain) {
    let db: Vec<(RecordId, u64)> = DatasetSpec::uniform(250, 8, seed)
        .generate()
        .into_iter()
        .map(|(id, v)| (RecordId(id), v))
        .collect();
    system_over(seed, &db)
}

fn system_over(seed: u64, db: &[(RecordId, u64)]) -> (SlicerInstance, Blockchain) {
    let mut chain = Blockchain::new();
    let mut inst = SlicerInstance::try_setup_with(
        SlicerConfig::test_8bit(),
        seed,
        &mut chain,
        TelemetryHandle::disabled(),
    )
    .unwrap();
    inst.build(&mut chain, db).expect("fits domain");
    (inst, chain)
}

/// Runs a tampered search and asserts failure + refund, with nothing
/// decrypted.
fn assert_attack_caught(
    (mut inst, mut chain): (SlicerInstance, Blockchain),
    query: Query,
    tamper: impl FnOnce(CloudResponse) -> CloudResponse,
) {
    let (_, user, cloud) = inst.addresses();
    let u0 = chain.balance(&user);
    let c0 = chain.balance(&cloud);
    let out = inst
        .search_with(&mut chain, &query, 777, tamper)
        .expect("workflow runs");
    assert!(!out.verified, "attack must be detected");
    assert!(!out.paid_cloud);
    assert!(out.records.is_empty(), "unverified results are not read");
    assert_eq!(chain.balance(&user), u0, "fee refunded to user");
    assert_eq!(chain.balance(&cloud), c0, "attacker unpaid");
}

#[test]
fn dropped_record_fails() {
    assert_attack_caught(system(1), Query::less_than(128), malicious::drop_record);
}

#[test]
fn injected_record_fails() {
    // A record-sized forgery, one shorter than the 16-byte nonce and one
    // that would decrypt to 24 bytes: none is decrypted, so none errors.
    for forged in [vec![0x42; 32], vec![0xAA; 10], vec![0xAA; 40]] {
        assert_attack_caught(system(2), Query::less_than(128), |r| {
            malicious::inject_record(r, forged)
        });
    }
}

#[test]
fn substituted_ciphertexts_fail_and_are_not_decrypted() {
    // The cloud answers `= 5` with the honest ciphertexts of `= 3`: the
    // contract and the user read the same (wrong) results, so the
    // contract refunds and the user reads nothing.
    let db: Vec<(RecordId, u64)> = (0..40u64).map(|i| (RecordId::from_u64(i), i % 8)).collect();
    let (inst, chain) = system_over(5, &db);
    let mut other = inst.cloud.search(&inst.user.tokens_for(&Query::equal(3)));
    assert_eq!(other[0].er.len(), 5);
    assert_attack_caught((inst, chain), Query::equal(5), move |mut r| {
        r.results[0].er = other.remove(0).er;
        r
    });
}

#[test]
fn corrupt_witness_fails() {
    assert_attack_caught(system(3), Query::less_than(128), malicious::corrupt_witness);
}

#[test]
fn swapped_slice_results_fail() {
    assert_attack_caught(system(4), Query::less_than(200), malicious::swap_results);
}

#[test]
fn empty_response_fails() {
    assert_attack_caught(system(5), Query::less_than(128), |mut resp| {
        for r in &mut resp.results {
            r.er.clear();
        }
        resp
    });
}

#[test]
fn missing_slice_entry_fails() {
    assert_attack_caught(system(6), Query::less_than(128), |mut resp| {
        resp.results.pop();
        resp
    });
}

#[test]
fn duplicated_slice_entry_fails() {
    // 255 = 0b1111_1111: a `< v` query has one usable slice per set bit of
    // `v`, so this query carries 8 tokens and the duplication bites.
    assert_attack_caught(system(7), Query::less_than(255), |mut resp| {
        if resp.results.len() >= 2 {
            // Answer token 0 twice, never answer the last token.
            let last = resp.results.len() - 1;
            resp.results[last] = resp.results[0].clone();
            resp.proofs[last] = resp.proofs[0].clone();
        }
        resp
    });
}

#[test]
fn bitflipped_ciphertext_fails() {
    assert_attack_caught(system(8), Query::less_than(128), |mut resp| {
        for r in &mut resp.results {
            if let Some(er) = r.er.first_mut() {
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
    let (mut inst, mut chain) = system(9);
    // Insert but sabotage the cloud's copy: capture the honest response
    // first, then re-run after dropping the cloud's view.
    let probe = 42u64;
    inst.insert(&mut chain, &[(RecordId::from_u64(50_000), probe)])
        .expect("fits domain");

    // Remove the cloud's knowledge of the latest generation by rebuilding
    // a stale cloud from scratch: easiest faithful simulation is to tamper
    // the response so the new-generation record is missing, which is
    // byte-wise what a stale cloud would return.
    let (_, user, cloud) = inst.addresses();
    let u0 = chain.balance(&user);
    let c0 = chain.balance(&cloud);
    let out = inst
        .search_with(&mut chain, &Query::equal(probe), 500, |mut resp| {
            // Drop the results that belong to the newest generation (the
            // freshly inserted record is the last one recovered in the
            // newest-first walk... drop the first recovered result).
            for r in &mut resp.results {
                if !r.er.is_empty() {
                    r.er.remove(0);
                    break;
                }
            }
            resp
        })
        .expect("workflow runs");
    assert!(!out.verified, "stale result set must fail");
    assert_eq!(chain.balance(&user), u0);
    assert_eq!(chain.balance(&cloud), c0);
}

#[test]
fn unregistered_request_submission_reverts() {
    // Submitting results for a request id that was never registered
    // reverts at the contract.
    use slicer_chain::{Address, SlicerCall, Transaction};
    let (inst, mut chain) = system(10);
    let contract = inst.contract_address();
    let attacker = Address::from_byte(0xEE);
    chain.create_account(attacker, 1_000_000);
    let call = SlicerCall::SubmitResult {
        request_id: [0xEE; 32],
        tokens: vec![],
        entries: vec![],
    };
    let receipt = chain
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
    let (inst, mut chain) = system(11);
    let contract = inst.contract_address();
    let (_, user, _) = inst.addresses();

    // Register a request directly so it stays unsettled.
    let tokens = inst.user.tokens_for(&Query::less_than(100));
    let width = 64;
    let call = SlicerCall::RequestSearch {
        request_id: [0xAB; 32],
        cloud: inst.addresses().2,
        tokens: tokens.iter().map(|t| t.to_chain(width)).collect(),
    };
    let r = chain
        .send_transaction(Transaction::call(user, contract, 500, call.encode()))
        .expect("request accepted");
    assert!(r.status.is_success());

    let attacker = Address::from_byte(0xEE);
    chain.create_account(attacker, 1_000_000);
    let submit = SlicerCall::SubmitResult {
        request_id: [0xAB; 32],
        tokens: vec![],
        entries: vec![],
    };
    let receipt = chain
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
    let (mut inst, mut chain) = system(12);
    let contract = inst.contract_address();
    let attacker = Address::from_byte(0xDD);
    chain.create_account(attacker, 1_000_000);
    let call = SlicerCall::SetAccumulator(vec![0x11; 64]);
    let receipt = chain
        .send_transaction(Transaction::call(attacker, contract, 0, call.encode()))
        .expect("well-formed transaction");
    assert!(
        matches!(receipt.status, slicer_chain::TxStatus::Reverted(ref r) if r.contains("not authorized")),
        "got {:?}",
        receipt.status
    );
    // And the stored digest is untouched: an honest search still passes.
    let out = inst
        .search(&mut chain, &Query::less_than(100), 10)
        .expect("workflow");
    assert!(out.verified);
}
