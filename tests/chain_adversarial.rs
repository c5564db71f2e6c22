//! Adversarial chain-level tests: malformed calldata, gas exhaustion,
//! replay, and digest manipulation against the deployed verification
//! contract.

use slicer_accumulator::{candidate, hash_to_prime_counted, witness, Accumulator, RsaParams};
use slicer_bignum::BigUint;
use slicer_chain::{
    Address, Blockchain, SlicerCall, SlicerContract, TokenOnChain, Transaction, TxReceipt,
    TxStatus, VerifyEntry,
};
use slicer_core::{Query, RecordId, SlicerConfig, SlicerInstance};
use slicer_mshash::MsetHash;
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

fn funded_chain_with_contract(prime_bits: u32) -> (Blockchain, Address, Address) {
    let mut chain = Blockchain::new();
    let owner = Address::from_byte(1);
    chain.create_account(owner, 10_000_000);
    let out = chain
        .deploy_contract(
            owner,
            Box::new(SlicerContract::new(
                slicer_accumulator::RsaParams::fixed_512(),
                prime_bits,
                owner,
            )),
            0,
        )
        .unwrap();
    (chain, owner, out.address)
}

#[test]
fn malformed_calldata_reverts_cleanly() {
    let (mut chain, owner, contract) = funded_chain_with_contract(128);
    for data in [
        vec![],              // empty
        vec![0xFF],          // unknown selector
        vec![0x01, 0x00],    // truncated SetAccumulator
        vec![0x02; 10],      // truncated RequestSearch
        vec![0x03, 1, 2, 3], // truncated SubmitResult
        // SubmitResult: an empty token block, then one entry whose `er`
        // count is u32::MAX (43 bytes).
        [&[0x03][..], &[0; 32], &[0, 0], &[0, 1], &[0, 0], &[0xFF; 4]].concat(),
        // RequestSearch: 0xFFFF tokens declared, none sent.
        [&[0x02][..], &[0; 32], &[0; 20], &[0xFF, 0xFF]].concat(),
        // SubmitResult: 0xFFFF tokens declared, none sent.
        [&[0x03][..], &[0; 32], &[0xFF, 0xFF]].concat(),
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
    let (mut chain, owner, contract) = funded_chain_with_contract(128);
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
        tokens: vec![],
        entries: vec![VerifyEntry {
            token_idx: 0,
            hint: 0,
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
    let chain_tokens: Vec<_> = tokens.iter().map(|t| t.to_chain(64)).collect();
    let call = SlicerCall::RequestSearch {
        request_id: [9u8; 32],
        cloud,
        tokens: chain_tokens.clone(),
    };
    let r = chain
        .send_transaction(Transaction::call(user, contract, 500, call.encode()))
        .unwrap();
    assert!(r.status.is_success());

    let response = inst.cloud.respond(&tokens).unwrap();
    let submit = SlicerCall::SubmitResult {
        request_id: [9u8; 32],
        tokens: chain_tokens,
        entries: response.entries(),
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

/// Registers a request for `query` under `rid`, escrowing 500 wei, and
/// returns its on-chain tokens with the cloud's honest entries.
fn open_request(
    inst: &mut SlicerInstance,
    chain: &mut Blockchain,
    rid: [u8; 32],
    query: &Query,
) -> (Vec<TokenOnChain>, Vec<VerifyEntry>) {
    let (_, user, cloud) = inst.addresses();
    let tokens = inst.user.tokens_for(query);
    let chain_tokens: Vec<_> = tokens.iter().map(|t| t.to_chain(64)).collect();
    let call = SlicerCall::RequestSearch {
        request_id: rid,
        cloud,
        tokens: chain_tokens.clone(),
    };
    let r = chain
        .send_transaction(Transaction::call(
            user,
            inst.contract_address(),
            500,
            call.encode(),
        ))
        .unwrap();
    assert!(r.status.is_success());
    (chain_tokens, inst.cloud.respond(&tokens).unwrap().entries())
}

#[test]
fn resent_tokens_must_match_the_request_commitment() {
    // The request stores only sha256 of its token block; the cloud re-sends
    // the tokens at settlement. Any other token block fails verification
    // before a single MODEXP and refunds the user.
    let (mut inst, mut chain) = deployment(44);
    let contract = inst.contract_address();
    let (_, user, cloud) = inst.addresses();
    let query = Query::less_than(20);
    let (tokens, entries) = open_request(&mut inst, &mut chain, [0x40; 32], &query);
    assert!(tokens.len() >= 2, "the cases need several tokens");
    let (other, other_entries) =
        open_request(&mut inst, &mut chain, [0x41; 32], &Query::greater_than(20));

    let mut flipped = tokens.clone();
    flipped[0].trapdoor[0] ^= 1;
    let mut reordered = tokens.clone();
    reordered.swap(0, 1);
    let mut dropped = tokens.clone();
    dropped.pop();
    let mut appended = tokens.clone();
    appended.push(other[0].clone());
    let cases = [
        ("honest", tokens.clone(), entries.clone(), true),
        ("trapdoor byte flipped", flipped, entries.clone(), false),
        ("reordered", reordered, entries.clone(), false),
        ("one dropped", dropped, entries.clone(), false),
        ("one appended", appended, entries.clone(), false),
        // Another request's tokens with that request's honest answers:
        // every witness is valid, but for a query the user did not pay for.
        ("another request's", other, other_entries, false),
    ];
    for (i, (name, resent, entries, verifies)) in cases.into_iter().enumerate() {
        let rid = [0x50 + i as u8; 32];
        let user_before = chain.balance(&user);
        open_request(&mut inst, &mut chain, rid, &query);
        let submit = SlicerCall::SubmitResult {
            request_id: rid,
            tokens: resent,
            entries,
        };
        let r = chain
            .send_transaction(Transaction::call(cloud, contract, 0, submit.encode()))
            .unwrap();
        assert!(r.status.is_success(), "{name}: settles, never reverts");
        let settled = r.logs.iter().find(|l| l.topic == "Settled").unwrap();
        assert_eq!(
            settled.data,
            [&rid[..], &[u8::from(verifies)]].concat(),
            "{name}: Settled outcome"
        );
        if verifies {
            assert_eq!(r.output, [1], "{name}");
            continue;
        }
        assert_eq!(r.output, [0], "{name}");
        assert_eq!(r.gas_breakdown.modexp, 0, "{name}: no entry is verified");
        assert_eq!(chain.balance(&user), user_before, "{name}: user refunded");
    }
}

#[test]
fn a_token_answered_twice_refunds_the_user() {
    // The cloud writes its own calldata: answering token 0 twice in place
    // of the last token fails the exactly-once rule, not a revert.
    let (mut inst, mut chain) = deployment(46);
    let (contract, (_, user, cloud)) = (inst.contract_address(), inst.addresses());
    let rid = [0x48; 32];
    let (tokens, mut entries) = open_request(&mut inst, &mut chain, rid, &Query::less_than(20));
    let last = entries.len() - 1;
    entries[last] = entries[0].clone();
    let user_before = chain.balance(&user);
    let submit = SlicerCall::SubmitResult {
        request_id: rid,
        tokens,
        entries,
    };
    let r = chain
        .send_transaction(Transaction::call(cloud, contract, 0, submit.encode()))
        .unwrap();
    assert_eq!((r.status, r.output), (TxStatus::Succeeded, vec![0]));
    assert_eq!(chain.balance(&user), user_before + 500, "user refunded");
}

/// `H_prime`'s input for `entry`: the token material and the multiset
/// hash of the entry's results.
fn hprime_material(token: &TokenOnChain, entry: &VerifyEntry) -> Vec<u8> {
    let h = MsetHash::of_multiset(entry.er.iter().map(Vec::as_slice));
    [token.material(), h.to_bytes()].concat()
}

/// A settlement whose first entry failed verification: it completed with
/// output `[0]` and `Settled` 0, and ran no MODEXP after that entry's own.
fn assert_first_entry_failed(name: &str, r: &TxReceipt, rid: [u8; 32], modexp: u64) {
    assert!(r.status.is_success(), "{name}: settles, never reverts");
    assert_eq!(r.output, [0], "{name}");
    let settled = r.logs.iter().find(|l| l.topic == "Settled").unwrap();
    assert_eq!(settled.data, [&rid[..], &[0]].concat(), "{name}: Settled 0");
    assert_eq!(
        r.gas_breakdown.modexp, modexp,
        "{name}: no MODEXP after the failing entry"
    );
}

#[test]
fn hints_other_than_the_walk_index_refund_the_user() {
    // The cloud names the walk index of each entry's prime and the contract
    // checks that one candidate. Any other index names an odd 128-bit
    // number that is not the accumulated prime: the entry fails VerifyMem
    // and the user is refunded.
    let (mut inst, mut chain) = deployment(45);
    let contract = inst.contract_address();
    let (_, user, cloud) = inst.addresses();
    let query = Query::less_than(20);
    let (tokens, honest) = open_request(&mut inst, &mut chain, [0x60; 32], &query);
    assert!(
        honest.len() >= 2,
        "the cases need an entry after the tampered one"
    );
    let material = hprime_material(&tokens[0], &honest[0]);
    let k = u64::from(honest[0].hint);
    let (prime, walked) = hash_to_prime_counted(&material, 128).unwrap();
    assert_eq!((candidate(&material, 128, k).unwrap(), walked), (prime, k));
    let index_where = |want_prime: bool, from: u64| {
        (from..0xFFFF)
            .find(|&i| candidate(&material, 128, i).unwrap().is_prime_bpsw() == want_prime)
            .unwrap()
    };
    let next_prime = index_where(true, k + 1);
    let composite = index_where(false, k + 2);
    let cases = [
        ("honest", k),
        ("one step off", k + 1),
        ("another prime in the window", next_prime),
        ("a composite", composite),
        ("the window's last candidate", 0xFFFF),
    ];
    let modexp = chain.schedule().modexp_cost(64, 128, 64);
    for (i, (name, hint)) in cases.into_iter().enumerate() {
        let rid = [0x70 + i as u8; 32];
        let (user_before, cloud_before) = (chain.balance(&user), chain.balance(&cloud));
        let (_, mut entries) = open_request(&mut inst, &mut chain, rid, &query);
        entries[0].hint = u16::try_from(hint).unwrap();
        let submit = SlicerCall::SubmitResult {
            request_id: rid,
            tokens: tokens.clone(),
            entries,
        };
        let r = chain
            .send_transaction(Transaction::call(cloud, contract, 0, submit.encode()))
            .unwrap();
        if hint == k {
            assert_eq!(r.output, [1], "{name}");
            assert_eq!(chain.balance(&cloud), cloud_before + 500, "{name}: paid");
            continue;
        }
        assert_first_entry_failed(name, &r, rid, modexp);
        assert_eq!(chain.balance(&user), user_before, "{name}: user refunded");
        assert_eq!(chain.balance(&cloud), cloud_before, "{name}: cloud unpaid");
    }
}

#[test]
fn a_hint_past_the_top_of_the_width_wraps_and_refunds() {
    // Only a walk that starts within 2^17 of 2^bits can be pushed past the
    // top by a u16 hint; at 128 bits no such start can be found, so this
    // runs a 32-bit contract over tokens ground until one starts there.
    // Its hint wraps to the bottom of the width, names a number that is not
    // the accumulated prime, and the entry fails like any wrong hint.
    const BITS: u32 = 32;
    let params = RsaParams::fixed_512();
    let owner = Address::from_byte(1);
    let (user, cloud) = (Address::from_byte(2), Address::from_byte(3));
    let mut chain = Blockchain::new();
    for a in [owner, user, cloud] {
        chain.create_account(a, 10_000_000);
    }
    let contract = chain
        .deploy_contract(
            owner,
            Box::new(SlicerContract::new(params.clone(), BITS, owner)),
            0,
        )
        .unwrap()
        .address;

    let er = vec![vec![0xE1; 48]];
    let h = MsetHash::of_element(&er[0]).to_bytes();
    let material = |t: &TokenOnChain| [t.material(), h.clone()].concat();
    let token = |g1: u32| {
        let mut t = TokenOnChain {
            trapdoor: vec![9; 64],
            j: 0,
            g1: [0; 32],
            g2: [2; 32],
        };
        t.g1[..4].copy_from_slice(&g1.to_be_bytes());
        t
    };
    // Ground: the walk starts (and finds its prime) less than 0xFFFF
    // steps below 2^32, so hint 0xFFFF lies past the top.
    let top_start = BigUint::from((1u64 << BITS) - 2 * 0xFFFF);
    let near_top = (0u32..)
        .map(token)
        .find(|t| {
            let start = candidate(&material(t), BITS, 0).unwrap();
            start >= top_start && hash_to_prime_counted(&material(t), BITS).unwrap().0 >= start
        })
        .unwrap();
    let tokens = vec![near_top, token(u32::MAX)];
    let walks: Vec<(BigUint, u64)> = tokens
        .iter()
        .map(|t| hash_to_prime_counted(&material(t), BITS).unwrap())
        .collect();
    let primes: Vec<BigUint> = walks.iter().map(|(x, _)| x.clone()).collect();
    let ac = Accumulator::over(&params, &primes).value().to_bytes_be();
    let r = chain
        .send_transaction(Transaction::call(
            owner,
            contract,
            0,
            SlicerCall::SetAccumulator(ac).encode(),
        ))
        .unwrap();
    assert!(r.status.is_success());
    let entries: Vec<VerifyEntry> = walks
        .iter()
        .enumerate()
        .map(|(i, (_, k))| VerifyEntry {
            token_idx: i as u16,
            hint: u16::try_from(*k).unwrap(),
            er: er.clone(),
            vo: witness::membership_witness(&params, &primes, i)
                .unwrap()
                .to_bytes_be_padded(params.element_bytes()),
        })
        .collect();
    let wrapped = candidate(&material(&tokens[0]), BITS, 0xFFFF).unwrap();
    assert!(wrapped < BigUint::from(1u64 << (BITS - 1)) + BigUint::from(2u64 * 0xFFFF));

    let modexp = chain.schedule().modexp_cost(64, u64::from(BITS), 64);
    for (i, (name, hint)) in [("honest", entries[0].hint), ("past 2^bits", 0xFFFF)]
        .into_iter()
        .enumerate()
    {
        let rid = [0x80 + i as u8; 32];
        let request = SlicerCall::RequestSearch {
            request_id: rid,
            cloud,
            tokens: tokens.clone(),
        };
        let r = chain
            .send_transaction(Transaction::call(user, contract, 500, request.encode()))
            .unwrap();
        assert!(r.status.is_success());
        let (user_before, cloud_before) = (chain.balance(&user), chain.balance(&cloud));
        let mut sent = entries.clone();
        sent[0].hint = hint;
        let submit = SlicerCall::SubmitResult {
            request_id: rid,
            tokens: tokens.clone(),
            entries: sent,
        };
        let r = chain
            .send_transaction(Transaction::call(cloud, contract, 0, submit.encode()))
            .unwrap();
        if i == 0 {
            assert_eq!(r.output, [1], "{name}");
            assert_eq!(chain.balance(&cloud), cloud_before + 500, "{name}: paid");
            continue;
        }
        assert_first_entry_failed(name, &r, rid, modexp);
        assert_eq!(chain.balance(&user), user_before + 500, "{name}: refunded");
        assert_eq!(chain.balance(&cloud), cloud_before, "{name}: cloud unpaid");
    }
}

/// A one-token request on a fresh `prime_bits` contract whose digest is
/// `ac`: the owner escrows 500 wei and the cloud answers with an entry
/// that cannot verify. Returns the settlement receipt and whether the
/// owner's balance is back where it started.
fn settle_a_bad_entry(prime_bits: u32, ac: Vec<u8>) -> (TxReceipt, bool) {
    let (mut chain, owner, contract) = funded_chain_with_contract(prime_bits);
    let cloud = Address::from_byte(9);
    chain.create_account(cloud, 1_000_000);
    let token = TokenOnChain {
        trapdoor: vec![1u8; 64],
        j: 0,
        g1: [1; 32],
        g2: [2; 32],
    };
    let entry = VerifyEntry {
        token_idx: 0,
        hint: 0,
        er: vec![],
        vo: vec![1u8; 64],
    };
    let (rid, before) = ([3u8; 32], chain.balance(&owner));
    let request = SlicerCall::RequestSearch {
        request_id: rid,
        cloud,
        tokens: vec![token.clone()],
    };
    let submit = SlicerCall::SubmitResult {
        request_id: rid,
        tokens: vec![token],
        entries: vec![entry],
    };
    let [.., settled] = [
        (owner, 0, SlicerCall::SetAccumulator(ac)),
        (owner, 500, request),
        (cloud, 0, submit),
    ]
    .map(|(from, value, call)| {
        let tx = Transaction::call(from, contract, value, call.encode());
        chain.send_transaction(tx).unwrap()
    });
    (settled, chain.balance(&owner) == before)
}

#[test]
fn oversized_accumulator_value_is_stored_verbatim_but_breaks_nothing() {
    // The contract stores whatever digest the owner sets; a garbage digest
    // simply makes every verification fail (no panic, no lockup).
    let (r, refunded) = settle_a_bad_entry(128, vec![0xFF; 200]);
    assert!(r.status.is_success(), "call completes");
    assert_eq!(r.output, [0], "verification fails against garbage digest");
    assert!(refunded, "escrow refunded");
}

#[test]
fn an_unsupported_prime_width_refunds_instead_of_locking_the_escrow() {
    // `H_prime` supports 16..=512 bits. A contract deployed at 8 bits
    // fails every entry before its MODEXP, so each request refunds.
    let (r, refunded) = settle_a_bad_entry(8, vec![5; 64]);
    assert_first_entry_failed("8-bit contract", &r, [3; 32], 0);
    assert!(refunded, "escrow refunded");
}

#[test]
fn receipts_and_blocks_stay_consistent_under_load() {
    let (mut chain, owner, contract) = funded_chain_with_contract(128);
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
