//! Micro-benchmark: substrate throughput — the from-scratch crypto and
//! bignum primitives every protocol operation sits on.

use slicer_accumulator::{candidate, hash_to_prime, result_digest_step, RsaParams};
use slicer_bignum::{BigUint, MontgomeryCtx};
use slicer_crypto::aes::Aes128;
use slicer_crypto::{hmac_sha256, sha256};
use slicer_testkit::bench::{black_box, Bench};

fn main() {
    let mut group = Bench::new("primitives");

    let data_1k = vec![0xABu8; 1024];
    group.run_throughput("sha256/1KiB", 1024, || {
        black_box(sha256(&data_1k));
    });
    group.run_throughput("hmac_sha256/1KiB", 1024, || {
        black_box(hmac_sha256(b"key", &data_1k));
    });
    let cipher = Aes128::new(&[7u8; 16]);
    let mut buf = data_1k.clone();
    group.run_throughput("aes128_ctr/1KiB", 1024, || {
        cipher.ctr_xor(&[1u8; 16], &mut buf);
        black_box(buf[0]);
    });

    // One row per Montgomery kernel arm: 256 bits takes the runtime-length
    // loops, 512 and 1024 bits the 8- and 16-limb specializations.
    let mut group = Bench::new("bignum");
    let base = BigUint::from(123_456_789u64);
    let exp128 = BigUint::from_hex("ffffffffffffffffffffffffffffffff").expect("hex");
    // 2^256 - 189, an odd 4-limb modulus.
    let n256 = &(&BigUint::one() << 256) - &BigUint::from(189u64);
    let ctx256 = MontgomeryCtx::new(&n256).expect("odd modulus");
    group.run("modpow_256_e128", || {
        black_box(ctx256.modpow(&base, &exp128));
    });
    let n512 = RsaParams::fixed_512();
    group.run("modpow_512_e128", || {
        black_box(n512.powmod(&base, &exp128));
    });
    let n1024 = RsaParams::fixed_1024();
    group.run("modpow_1024_e128", || {
        black_box(n1024.powmod(&base, &exp128));
    });
    let a = &BigUint::one() << 2048;
    let bb = &(&BigUint::one() << 2047) + &BigUint::from(12345u64);
    group.run("mul_2048x2048", || {
        black_box(&a * &bb);
    });
    let big = &a * &a;
    group.run("div_4096_by_2048", || {
        black_box(big.div_rem(&bb));
    });

    // `H_prime` at the default 128-bit width: the two-limb `Mont2` path.
    // Cycling through 256 inputs averages over prime-walk lengths.
    let mut group = Bench::new("accumulator");
    let inputs: Vec<[u8; 8]> = (0..256u64).map(u64::to_le_bytes).collect();
    let mut next = 0;
    group.run("hash_to_prime_128", || {
        black_box(hash_to_prime(&inputs[next], 128).expect("supported width"));
        next = (next + 1) % inputs.len();
    });
    // What the settlement contract computes instead: the one candidate the
    // cloud's hint names.
    group.run("candidate_128", || {
        black_box(candidate(&inputs[next], 128, 44).expect("supported width"));
        next = (next + 1) % inputs.len();
    });
    // The per-result binding work of owner, cloud and contract alike.
    let mut h = [0u8; 32];
    group.run("result_digest_step", || {
        h = result_digest_step(b"a 32-byte encrypted record id...", &h);
        black_box(h);
    });
}
