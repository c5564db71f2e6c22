//! Adversarial chain-level tests: malformed calldata, gas exhaustion,
//! replay, and digest manipulation against the deployed verification
//! contract.

use slicer_chain::{
    Address, Blockchain, SlicerCall, SlicerContract, TokenOnChain, Transaction, TxStatus,
    VerifyEntry,
};
use slicer_core::{Query, RecordId, SlicerConfig, SlicerInstance};
use slicer_telemetry::TelemetryHandle;

/// An 8-bit deployment holding records `0..30`, record `i` with value `i`.
fn deployment(seed: u64) -> (SlicerInstance, Blockchain) {
    let mut chain = Blockchain::new();
    let mut inst = SlicerInstance::try_setup_with(
        SlicerConfig::test_8bit(),
        seed,
        &mut chain,
        TelemetryHandle::disabled(),
    )
    .unwrap();
    let db: Vec<(RecordId, u64)> = (0u64..30).map(|i| (RecordId::from_u64(i), i)).collect();
    inst.build(&mut chain, &db).unwrap();
    (inst, chain)
}

fn funded_chain_with_contract() -> (Blockchain, Address, Address) {
    let mut chain = Blockchain::new();
    let owner = Address::from_byte(1);
    chain.create_account(owner, 10_000_000);
    let out = chain
        .deploy_contract(
            owner,
            Box::new(SlicerContract::new(
                slicer_accumulator::RsaParams::fixed_512(),
                128,
                owner,
            )),
            0,
        )
        .unwrap();
    (chain, owner, out.address)
}

#[test]
fn malformed_calldata_reverts_cleanly() {
    let (mut chain, owner, contract) = funded_chain_with_contract();
    for data in [
        vec![],              // empty
        vec![0xFF],          // unknown selector
        vec![0x01, 0x00],    // truncated SetAccumulator
        vec![0x02; 10],      // truncated RequestSearch
        vec![0x03, 1, 2, 3], // truncated SubmitResult
        // SubmitResult: one entry whose `er` count is u32::MAX (41 bytes).
        [&[0x03][..], &[0; 32], &[0, 1], &[0, 0], &[0xFF; 4]].concat(),
        // RequestSearch: 0xFFFF tokens declared, none sent.
        [&[0x02][..], &[0; 32], &[0; 20], &[0xFF, 0xFF]].concat(),
    ] {
        let r = chain
            .send_transaction(Transaction::call(owner, contract, 0, data.clone()))
            .unwrap();
        assert!(
            matches!(r.status, TxStatus::Reverted(_)),
            "calldata {data:?} must revert"
        );
    }
    // The chain is still functional after the garbage.
    let ok = chain
        .send_transaction(Transaction::call(
            owner,
            contract,
            0,
            SlicerCall::SetAccumulator(vec![5u8; 64]).encode(),
        ))
        .unwrap();
    assert!(ok.status.is_success());
}

#[test]
fn request_id_cannot_be_reused() {
    let (mut chain, owner, contract) = funded_chain_with_contract();
    let token = TokenOnChain {
        trapdoor: vec![1u8; 64],
        j: 0,
        g1: [1; 32],
        g2: [2; 32],
    };
    let call = SlicerCall::RequestSearch {
        request_id: [7u8; 32],
        cloud: Address::from_byte(9),
        tokens: vec![token],
    };
    let first = chain
        .send_transaction(Transaction::call(owner, contract, 100, call.encode()))
        .unwrap();
    assert!(first.status.is_success());
    let second = chain
        .send_transaction(Transaction::call(owner, contract, 100, call.encode()))
        .unwrap();
    assert!(
        matches!(second.status, TxStatus::Reverted(ref r) if r.contains("already used")),
        "got {:?}",
        second.status
    );
}

#[test]
fn settled_request_cannot_be_resubmitted() {
    // A cheating cloud cannot retry after losing, nor double-claim after
    // winning: the request record is consumed at settlement.
    let (mut inst, mut chain) = deployment(42);
    let out = inst.search(&mut chain, &Query::less_than(10), 100).unwrap();
    assert!(out.verified);

    // Replaying the settlement: the stored record is now "settled" and no
    // longer parses as a request → revert.
    let contract = inst.contract_address();
    let (_, _, cloud_addr) = inst.addresses();
    // The request id of the first search is deterministic (counter = 1).
    let call = SlicerCall::SubmitResult {
        request_id: [0u8; 32], // unknown id
        entries: vec![VerifyEntry {
            token_idx: 0,
            er: vec![],
            vo: vec![0u8; 64],
        }],
    };
    let r = chain
        .send_transaction(Transaction::call(cloud_addr, contract, 0, call.encode()))
        .unwrap();
    assert!(matches!(r.status, TxStatus::Reverted(_)));
}

#[test]
fn verification_runs_out_of_gas_gracefully() {
    let (mut inst, mut chain) = deployment(43);

    // Register a request, then submit with a gas limit too small for the
    // verification's MODEXP work: the call reverts with out-of-gas, the
    // escrow stays with the contract (retriable), nothing is corrupted.
    let contract = inst.contract_address();
    let (_, user, cloud) = inst.addresses();
    let tokens = inst.user.tokens_for(&Query::equal(5));
    assert_eq!(tokens.len(), 1);
    let call = SlicerCall::RequestSearch {
        request_id: [9u8; 32],
        cloud,
        tokens: tokens.iter().map(|t| t.to_chain(64)).collect(),
    };
    let r = chain
        .send_transaction(Transaction::call(user, contract, 500, call.encode()))
        .unwrap();
    assert!(r.status.is_success());

    let response = inst.cloud.respond(&tokens).unwrap();
    let submit = SlicerCall::SubmitResult {
        request_id: [9u8; 32],
        entries: response.entries.clone(),
    };
    let mut tx = Transaction::call(cloud, contract, 0, submit.encode());
    tx.gas_limit = 30_000; // below the verification cost
    let starved = chain.send_transaction(tx).unwrap();
    assert!(
        matches!(starved.status, TxStatus::Reverted(ref e) if e.contains("out of gas")),
        "got {:?}",
        starved.status
    );

    // Retry with enough gas: succeeds and pays out.
    let before = chain.balance(&cloud);
    let mut tx = Transaction::call(cloud, contract, 0, submit.encode());
    tx.gas_limit = 10_000_000;
    let ok = chain.send_transaction(tx).unwrap();
    assert!(ok.status.is_success());
    assert_eq!(ok.output, [1]);
    assert_eq!(chain.balance(&cloud), before + 500);
}

#[test]
fn oversized_accumulator_value_is_stored_verbatim_but_breaks_nothing() {
    // The contract stores whatever digest the owner sets; a garbage digest
    // simply makes every verification fail (no panic, no lockup).
    let (mut chain, owner, contract) = funded_chain_with_contract();
    let r = chain
        .send_transaction(Transaction::call(
            owner,
            contract,
            0,
            SlicerCall::SetAccumulator(vec![0xFF; 200]).encode(),
        ))
        .unwrap();
    assert!(r.status.is_success());

    let token = TokenOnChain {
        trapdoor: vec![1u8; 64],
        j: 0,
        g1: [1; 32],
        g2: [2; 32],
    };
    let cloud = Address::from_byte(9);
    chain.create_account(cloud, 1_000_000);
    chain
        .send_transaction(Transaction::call(
            owner,
            contract,
            0,
            SlicerCall::RequestSearch {
                request_id: [3u8; 32],
                cloud,
                tokens: vec![token],
            }
            .encode(),
        ))
        .unwrap();
    let r = chain
        .send_transaction(Transaction::call(
            cloud,
            contract,
            0,
            SlicerCall::SubmitResult {
                request_id: [3u8; 32],
                entries: vec![VerifyEntry {
                    token_idx: 0,
                    er: vec![],
                    vo: vec![1u8; 64],
                }],
            }
            .encode(),
        ))
        .unwrap();
    assert!(r.status.is_success(), "call completes");
    assert_eq!(r.output, [0], "verification fails against garbage digest");
}

#[test]
fn receipts_and_blocks_stay_consistent_under_load() {
    let (mut chain, owner, contract) = funded_chain_with_contract();
    for i in 0..20u8 {
        let call = SlicerCall::SetAccumulator(vec![i; 64]);
        chain
            .send_transaction(Transaction::call(owner, contract, 0, call.encode()))
            .unwrap();
        if i % 3 == 0 {
            chain.seal_block();
        }
    }
    chain.seal_block();
    assert!(chain.verify_chain());
    let total: usize = chain.blocks().iter().map(|b| b.receipts.len()).sum();
    assert_eq!(total, 21, "deploy + 20 updates");
    assert_eq!(chain.logs_by_topic("AccumulatorUpdated").len(), 20);
}
