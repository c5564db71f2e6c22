//! Structural gas invariants behind Table II's claims.

use slicer_accumulator::{hash_to_prime_counted, witness, Accumulator, RsaParams};
use slicer_bignum::BigUint;
use slicer_chain::{
    Address, Blockchain, SlicerCall, SlicerContract, TokenOnChain, Transaction, VerifyEntry,
};
use slicer_mshash::MsetHash;

fn setup() -> (Blockchain, Address, Address, Address) {
    let mut chain = Blockchain::new();
    let owner = Address::from_byte(1);
    let cloud = Address::from_byte(2);
    chain.create_account(owner, 1_000_000_000);
    chain.create_account(cloud, 1_000_000_000);
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
    (chain, owner, cloud, out.address)
}

fn set_ac(chain: &mut Blockchain, owner: Address, contract: Address, byte: u8) -> u64 {
    let r = chain
        .send_transaction(Transaction::call(
            owner,
            contract,
            0,
            SlicerCall::SetAccumulator(vec![byte; 64]).encode(),
        ))
        .unwrap();
    assert!(r.status.is_success());
    r.gas_used
}

/// `n` distinct tokens with 64-byte trapdoors.
fn tokens(n: usize) -> Vec<TokenOnChain> {
    (0..n)
        .map(|i| TokenOnChain {
            trapdoor: vec![3u8; 64],
            j: 0,
            g1: [i as u8 + 4; 32],
            g2: [5; 32],
        })
        .collect()
}

#[test]
fn insertion_gas_is_constant_per_digest_update() {
    // Paper: "It only costs 29,144 gas per time regardless of the amount
    // of items to insert." The very first write pays the fresh-slot
    // SSTORE_SET premium; every subsequent update costs the same reset
    // price.
    let (mut chain, owner, _, contract) = setup();
    let first = set_ac(&mut chain, owner, contract, 1);
    let second = set_ac(&mut chain, owner, contract, 2);
    assert!(first > second, "fresh slot costs more: {first} vs {second}");
    for i in 3..10u8 {
        let next = set_ac(&mut chain, owner, contract, i);
        assert_eq!(next, second, "update {i} drifted");
    }
}

#[test]
fn deployment_gas_is_deterministic() {
    let (chain_a, ..) = setup();
    let (chain_b, ..) = setup();
    let gas_a = chain_a.blocks().iter().flat_map(|b| &b.receipts).count();
    let _ = (gas_a, chain_b);
    // Two independent deployments of the same artifact cost the same.
    let mut c1 = Blockchain::new();
    let d = Address::from_byte(7);
    c1.create_account(d, 1);
    let g1 = c1
        .deploy_contract(d, Box::new(SlicerContract::fixed_512()), 0)
        .unwrap()
        .gas_used;
    let mut c2 = Blockchain::new();
    c2.create_account(d, 1);
    let g2 = c2
        .deploy_contract(d, Box::new(SlicerContract::fixed_512()), 0)
        .unwrap()
        .gas_used;
    assert_eq!(g1, g2);
}

#[test]
fn verification_gas_grows_with_result_count_via_calldata_and_hashing() {
    // The contract hashes every returned ciphertext: more results → more
    // gas, monotonically (calldata + multiset hashing are per-element).
    let (mut chain, owner, cloud, contract) = setup();
    set_ac(&mut chain, owner, contract, 1);

    let mut measured = Vec::new();
    for (i, n_er) in [1usize, 256].iter().enumerate() {
        let rid = [i as u8 + 10; 32];
        chain
            .send_transaction(Transaction::call(
                owner,
                contract,
                0,
                SlicerCall::RequestSearch {
                    request_id: rid,
                    cloud,
                    tokens: tokens(1),
                }
                .encode(),
            ))
            .unwrap();
        let entries = vec![VerifyEntry {
            token_idx: 0,
            hint: 0,
            er: (0..*n_er).map(|k| vec![k as u8; 32]).collect(),
            vo: vec![6u8; 64],
        }];
        let r = chain
            .send_transaction(Transaction::call(
                cloud,
                contract,
                0,
                SlicerCall::SubmitResult {
                    request_id: rid,
                    tokens: tokens(1),
                    entries,
                }
                .encode(),
            ))
            .unwrap();
        assert!(r.status.is_success(), "fails verification but completes");
        assert_eq!(r.output, [0], "garbage vo never verifies");
        measured.push(r.gas_used);
    }
    assert!(
        measured[1] > measured[0] + 100_000,
        "256 results must dwarf 1 result: {measured:?}"
    );
}

#[test]
fn request_storage_is_three_words_and_tokens_cost_only_calldata_and_hashing() {
    // The request stores user ‖ cloud ‖ amount ‖ sha256(tokens): three
    // fresh words at any token count. The submission re-sends the tokens,
    // so they cost calldata and one hash there and nothing else: the same
    // single bad entry for token 0 spends identical storage, H_prime and
    // MODEXP gas whatever the block around it holds.
    let (mut chain, owner, cloud, contract) = setup();
    set_ac(&mut chain, owner, contract, 1);
    let schedule = chain.schedule().clone();
    let mut submits = Vec::new();
    for (i, n) in [1usize, 4, 16].into_iter().enumerate() {
        let rid = [i as u8 + 20; 32];
        let request = chain
            .send_transaction(Transaction::call(
                owner,
                contract,
                0,
                SlicerCall::RequestSearch {
                    request_id: rid,
                    cloud,
                    tokens: tokens(n),
                }
                .encode(),
            ))
            .unwrap();
        assert!(request.status.is_success());
        assert_eq!(
            request.gas_breakdown.sstore,
            3 * schedule.sstore_set,
            "{n} tokens"
        );
        let submit = chain
            .send_transaction(Transaction::call(
                cloud,
                contract,
                0,
                SlicerCall::SubmitResult {
                    request_id: rid,
                    tokens: tokens(n),
                    entries: vec![VerifyEntry {
                        token_idx: 0,
                        hint: 0,
                        er: vec![vec![9u8; 32]],
                        vo: vec![6u8; 64],
                    }],
                }
                .encode(),
            ))
            .unwrap();
        assert_eq!(submit.output, [0], "garbage vo never verifies");
        submits.push((n, submit.gas_breakdown));
    }
    let (_, one) = &submits[0];
    for (n, gas) in &submits[1..] {
        for ((category, a), (_, b)) in one.entries().into_iter().zip(gas.entries()) {
            match category {
                "intrinsic" => assert!(b > a, "{n} tokens: calldata grows"),
                // The token block is a 2-byte count plus 134 bytes a token.
                "hash" => assert_eq!(
                    b - a,
                    schedule.hash_cost(2 + 134 * n) - schedule.hash_cost(2 + 134),
                    "{n} tokens: one more hash over the longer block"
                ),
                _ => assert_eq!(a, b, "{n} tokens: {category} must not grow"),
            }
        }
    }
}

/// A token answered by `er`, with the prime the owner would accumulate for
/// it and that prime's `H_prime` walk index.
struct Answer {
    token: TokenOnChain,
    er: Vec<Vec<u8>>,
    material_len: usize,
    prime: BigUint,
    index: u64,
}

fn answer(i: u8) -> Answer {
    let token = TokenOnChain {
        trapdoor: vec![i ^ 0x5A; 64],
        j: u32::from(i % 4),
        g1: [i; 32],
        g2: [7; 32],
    };
    let er: Vec<Vec<u8>> = (0..1 + usize::from(i % 3))
        .map(|k| vec![i.wrapping_add(k as u8); 48])
        .collect();
    let h = MsetHash::of_multiset(er.iter().map(Vec::as_slice));
    let material = [token.material(), h.to_bytes()].concat();
    let (prime, index) = hash_to_prime_counted(&material, 128).expect("width ok");
    Answer {
        token,
        er,
        material_len: material.len(),
        prime,
        index,
    }
}

#[test]
fn verified_entry_gas_is_exact_whatever_the_walk_length() {
    // The cloud names the walk index of each entry's prime, so a verified
    // entry costs exactly its calldata, the per-`er` hashing and field
    // multiplications, the material hash, one H_prime candidate and one
    // MODEXP: nothing depends on how far the walk went.
    let mut answers: Vec<Answer> = (0..48u8).map(answer).collect();
    answers.sort_by_key(|a| a.index);
    let (short, long) = (&answers[0], &answers[answers.len() - 1]);
    assert!(
        long.index >= short.index + 40,
        "walks of {} and {} candidates",
        short.index,
        long.index
    );
    let params = RsaParams::fixed_512();
    let primes: Vec<BigUint> = answers.iter().map(|a| a.prime.clone()).collect();
    let ac = Accumulator::over(&params, &primes).value().to_bytes_be();

    let (mut chain, owner, cloud, contract) = setup();
    let g = chain.schedule().clone();
    let r = chain
        .send_transaction(Transaction::call(
            owner,
            contract,
            0,
            SlicerCall::SetAccumulator(ac).encode(),
        ))
        .unwrap();
    assert!(r.status.is_success());
    let mut breakdowns = Vec::new();
    for (i, a) in [(0usize, short), (answers.len() - 1, long)] {
        let rid = [0x30 + i as u8; 32];
        let request = SlicerCall::RequestSearch {
            request_id: rid,
            cloud,
            tokens: vec![a.token.clone()],
        };
        let r = chain
            .send_transaction(Transaction::call(owner, contract, 100, request.encode()))
            .unwrap();
        assert!(r.status.is_success());
        let vo = witness::membership_witness(&params, &primes, i)
            .expect("in range")
            .to_bytes_be_padded(params.element_bytes());
        let submit = SlicerCall::SubmitResult {
            request_id: rid,
            tokens: vec![a.token.clone()],
            entries: vec![VerifyEntry {
                token_idx: 0,
                hint: u16::try_from(a.index).expect("short walk"),
                er: a.er.clone(),
                vo,
            }],
        }
        .encode();
        let r = chain
            .send_transaction(Transaction::call(cloud, contract, 0, submit.clone()))
            .unwrap();
        assert_eq!(r.output, [1], "walk of {} verifies", a.index);
        let gas = &r.gas_breakdown;
        let walk = a.index;
        // The token block: a 2-byte count plus 134 bytes for the token.
        let er_hash: u64 = a.er.iter().map(|e| g.hash_cost(e.len())).sum();
        let hash = g.hash_cost(2 + 134) + er_hash + g.hash_cost(a.material_len);
        assert_eq!(gas.hash, hash, "walk {walk}: hash");
        assert_eq!(
            gas.field_mul,
            g.field_mul * a.er.len() as u64,
            "walk {walk}"
        );
        assert_eq!(gas.hprime, g.hprime_candidate, "walk {walk}: one candidate");
        assert_eq!(gas.miller_rabin, 0, "walk {walk}: no primality test");
        assert_eq!(
            gas.modexp,
            g.modexp_cost(64, 128, 64),
            "walk {walk}: modexp"
        );
        assert_eq!(
            gas.intrinsic,
            g.tx_base + g.call_base + g.calldata_cost(&submit),
            "walk {walk}: calldata"
        );
        assert_eq!(gas.total(), r.gas_used);
        breakdowns.push(r.gas_breakdown.clone());
    }
    // Storage, transfer and event costs do not see the entry at all.
    for category in ["sload", "sstore", "transfer", "event", "other"] {
        let pick = |b: &slicer_chain::GasBreakdown| {
            b.entries()
                .into_iter()
                .find(|(n, _)| *n == category)
                .map(|(_, gas)| gas)
        };
        assert_eq!(pick(&breakdowns[0]), pick(&breakdowns[1]), "{category}");
    }
}

#[test]
fn gas_is_consumed_even_on_revert() {
    let (mut chain, owner, _, contract) = setup();
    let r = chain
        .send_transaction(Transaction::call(owner, contract, 0, vec![0xFF]))
        .unwrap();
    assert!(!r.status.is_success());
    assert!(r.gas_used >= 21_000, "intrinsic gas always burns");
}

#[test]
fn eip2565_schedule_reduces_verification_cost() {
    // Same honest verification under both schedules.
    let run = |schedule: slicer_chain::GasSchedule| -> u64 {
        let mut chain = Blockchain::with_schedule(schedule);
        let owner = Address::from_byte(1);
        let cloud = Address::from_byte(2);
        chain.create_account(owner, 1_000_000_000);
        chain.create_account(cloud, 1_000_000_000);
        let contract = chain
            .deploy_contract(
                owner,
                Box::new(SlicerContract::new(
                    slicer_accumulator::RsaParams::fixed_512(),
                    128,
                    owner,
                )),
                0,
            )
            .unwrap()
            .address;
        set_ac(&mut chain, owner, contract, 1);
        chain
            .send_transaction(Transaction::call(
                owner,
                contract,
                0,
                SlicerCall::RequestSearch {
                    request_id: [1; 32],
                    cloud,
                    tokens: tokens(1),
                }
                .encode(),
            ))
            .unwrap();
        chain
            .send_transaction(Transaction::call(
                cloud,
                contract,
                0,
                SlicerCall::SubmitResult {
                    request_id: [1; 32],
                    tokens: tokens(1),
                    entries: vec![VerifyEntry {
                        token_idx: 0,
                        hint: 0,
                        er: vec![vec![9u8; 32]],
                        vo: vec![6u8; 64],
                    }],
                }
                .encode(),
            ))
            .unwrap()
            .gas_used
    };
    let legacy = run(slicer_chain::GasSchedule::default());
    let berlin = run(slicer_chain::GasSchedule::eip2565());
    assert!(
        berlin < legacy,
        "EIP-2565 must be cheaper: {berlin} vs {legacy}"
    );
}
