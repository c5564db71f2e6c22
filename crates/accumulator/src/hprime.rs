//! `H_prime`: deterministic hash-to-prime (Barić–Pfitzmann prime
//! representatives).

use crate::error::AccumulatorError;
use slicer_bignum::{BigUint, SMALL_PRIMES};
use slicer_crypto::sha256;
use std::sync::OnceLock;

/// Candidates sieved per window: one pass of remainders against
/// [`SMALL_PRIMES`] rules out ~84% of a window this size, and the average
/// walk to a 128-bit prime (≈ 44 candidates) rarely needs a second window.
/// Sized to the walk rather than larger: the remainder pass is per-window
/// work, and the few walks that overflow just sieve another window — the
/// candidate sequence (and thus the gas-metered `tried` count) is
/// unchanged by the window size.
const SIEVE_WINDOW: usize = 128;

/// A sieve prime with precomputed Lemire-style reciprocal constants, so
/// the per-window remainder pass costs a few multiplies per prime instead
/// of a 128-bit hardware division.
struct SievePrime {
    p: u64,
    /// `floor(2^64 / p) + 1`, the 32-bit-range division magic.
    magic: u64,
    /// `2^32 mod p`.
    c32: u32,
    /// `2^64 mod p`.
    c64: u32,
    /// `(p + 1) / 2 = 2^-1 mod p`, for solving the sieve start offset.
    inv2: u32,
}

/// `x mod p` for `x < 2^32`, two multiplies (Lemire's fastmod).
#[inline]
fn m32(x: u32, sp: &SievePrime) -> u32 {
    let low = sp.magic.wrapping_mul(x as u64);
    ((low as u128 * sp.p as u128) >> 64) as u32
}

/// `x mod p` for a full 64-bit limb: reduce both halves, fold the high
/// half through `2^32 mod p`. All intermediate sums stay below `2^32`
/// because `p < 2^10`.
#[inline]
fn m64(x: u64, sp: &SievePrime) -> u32 {
    let hi = m32((x >> 32) as u32, sp);
    let lo = m32(x as u32, sp);
    m32(hi * sp.c32 + lo, sp)
}

/// `v mod p` over any limb count, folding through `2^64 mod p`.
#[inline]
fn mod_sieve(v: &BigUint, sp: &SievePrime) -> u64 {
    let mut r: u32 = 0;
    for &limb in v.limbs().iter().rev() {
        r = m32(r * sp.c64 + m64(limb, sp), sp);
    }
    r as u64
}

fn sieve_table() -> &'static [SievePrime] {
    static TABLE: OnceLock<Vec<SievePrime>> = OnceLock::new();
    TABLE.get_or_init(|| {
        SMALL_PRIMES
            .iter()
            .map(|&p| SievePrime {
                p,
                magic: u64::MAX / p + 1,
                c32: (u32::MAX % p as u32) + 1,
                c64: ((((u32::MAX % p as u32) + 1) as u64).pow(2) % p) as u32,
                inv2: p.div_ceil(2) as u32,
            })
            .collect()
    })
}

/// Default prime-representative size. 128-bit primes keep accumulator
/// exponents small (the dominant cost of `Accumulation` and `MemWit`) while
/// retaining 64-bit collision resistance — adequate for a reproduction and
/// mirroring the paper's compact prime list (Fig. 4b).
pub const DEFAULT_PRIME_BITS: u32 = 128;

/// Maps arbitrary bytes to a probable prime of exactly `bits` bits.
///
/// Deterministic hash-and-increment: the candidate starts at
/// `SHA-256(data)` truncated/expanded to `bits` bits with the top and low
/// bits forced to one, then walks upward by 2 until a Miller–Rabin probable
/// prime is found. Determinism is essential — the blockchain verifier
/// recomputes `x = H_prime(t_j‖j‖G₁‖G₂‖h)` from public values in
/// Algorithm 5 and must land on the same prime as the data owner did in
/// Algorithm 1.
///
/// # Errors
///
/// Returns [`AccumulatorError::UnsupportedPrimeBits`] if `bits < 16` or
/// `bits > 512`.
pub fn hash_to_prime(data: &[u8], bits: u32) -> Result<BigUint, AccumulatorError> {
    Ok(hash_to_prime_counted(data, bits)?.0)
}

/// [`hash_to_prime`] that also reports how many candidates were examined —
/// the blockchain gas meter charges per candidate (trial division) plus the
/// Miller–Rabin rounds on survivors.
///
/// # Errors
///
/// Returns [`AccumulatorError::UnsupportedPrimeBits`] if `bits < 16` or
/// `bits > 512`.
pub fn hash_to_prime_counted(data: &[u8], bits: u32) -> Result<(BigUint, u64), AccumulatorError> {
    if !(16..=512).contains(&bits) {
        return Err(AccumulatorError::UnsupportedPrimeBits(bits));
    }
    // Expand the digest to cover up to 512 bits of candidate material.
    let d1 = sha256(data);
    let mut wide = Vec::with_capacity(64);
    wide.extend_from_slice(&d1);
    let mut tagged = Vec::with_capacity(33);
    tagged.push(0x01);
    tagged.extend_from_slice(&d1);
    wide.extend_from_slice(&sha256(&tagged));

    let nbytes = bits.div_ceil(8) as usize;
    wide.truncate(nbytes);
    let mut cand = BigUint::from_bytes_be(&wide);
    // Trim to exactly `bits` bits, force the top bit (exact width) and
    // low bit (odd).
    let excess = (nbytes as u32 * 8).saturating_sub(bits);
    cand = &cand >> excess;
    cand.set_bit(bits as u64 - 1, true);
    cand.set_bit(0, true);

    // Windowed incremental sieve: one remainder pass against SMALL_PRIMES
    // marks every candidate in the window that a small prime divides, so
    // the expensive probable-prime test only runs on survivors. The walk
    // visits exactly the same candidates in the same order as testing one
    // by one — `tried` (which the blockchain gas meter charges per
    // candidate) is unchanged by the sieve.
    let mut tried: u64 = 0;
    'windows: loop {
        let mut composite = [false; SIEVE_WINDOW];
        for sp in sieve_table() {
            // Smallest k >= 0 with cand + 2k ≡ 0 (mod p):
            // k = (p - cand mod p) * inv(2) mod p, inv(2) = (p + 1) / 2.
            let r = mod_sieve(&cand, sp);
            let k0 = if r == 0 { 0 } else { (sp.p - r) as u32 };
            let k = m32(k0 * sp.inv2, sp) as usize;
            for slot in composite.iter_mut().skip(k).step_by(sp.p as usize) {
                *slot = true;
            }
        }
        // Overflow past the requested width is astronomically unlikely
        // (needs a prime gap of ~2^(bits-1)); wrap defensively anyway, at
        // the same candidate the one-by-one walk would have. Checked once
        // per window so the common path never materializes skipped
        // candidates.
        let window_top = &cand + &BigUint::from(2 * (SIEVE_WINDOW as u64 - 1));
        let wraps = window_top.bit_len() > bits as u64;
        for (k, &marked) in composite.iter().enumerate() {
            tried += 1;
            if wraps {
                let c = &cand + &BigUint::from(2 * k as u64);
                if c.bit_len() > bits as u64 {
                    cand = BigUint::one() << (bits - 1);
                    cand.set_bit(0, true);
                    continue 'windows;
                }
                if !marked && c.is_prime_bpsw_presieved() {
                    return Ok((c, tried));
                }
            } else if !marked {
                let c = &cand + &BigUint::from(2 * k as u64);
                if c.is_prime_bpsw_presieved() {
                    return Ok((c, tried));
                }
            }
        }
        cand = &cand + &BigUint::from(2 * SIEVE_WINDOW as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_prime_and_exact_width() {
        for i in 0..20u32 {
            let p = hash_to_prime(&i.to_be_bytes(), 128).expect("width ok");
            assert!(p.is_probable_prime(8));
            assert_eq!(p.bit_len(), 128);
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            hash_to_prime(b"x", 128).unwrap(),
            hash_to_prime(b"x", 128).unwrap()
        );
    }

    #[test]
    fn distinct_inputs_distinct_primes() {
        assert_ne!(
            hash_to_prime(b"a", 128).unwrap(),
            hash_to_prime(b"b", 128).unwrap()
        );
    }

    #[test]
    fn width_parameter_respected() {
        for bits in [64u32, 96, 128, 256] {
            assert_eq!(hash_to_prime(b"w", bits).unwrap().bit_len(), bits as u64);
        }
    }

    #[test]
    fn out_of_range_widths_rejected() {
        assert_eq!(
            hash_to_prime(b"x", 8),
            Err(AccumulatorError::UnsupportedPrimeBits(8))
        );
        assert_eq!(
            hash_to_prime(b"x", 513),
            Err(AccumulatorError::UnsupportedPrimeBits(513))
        );
    }

    /// The pre-sieve reference: test candidates one at a time with the
    /// full Miller–Rabin sweep. The sieved walk must agree on both the
    /// prime found and the candidate count — the chain's gas meter charges
    /// per candidate, so a count drift would fork consensus.
    fn naive_reference(data: &[u8], bits: u32) -> (BigUint, u64) {
        let d1 = sha256(data);
        let mut wide = Vec::with_capacity(64);
        wide.extend_from_slice(&d1);
        let mut tagged = Vec::with_capacity(33);
        tagged.push(0x01);
        tagged.extend_from_slice(&d1);
        wide.extend_from_slice(&sha256(&tagged));

        let nbytes = bits.div_ceil(8) as usize;
        let mut cand = BigUint::from_bytes_be(&wide[..nbytes]);
        let excess = (nbytes as u32 * 8).saturating_sub(bits);
        cand = &cand >> excess;
        cand.set_bit(bits as u64 - 1, true);
        cand.set_bit(0, true);

        let two = BigUint::two();
        let mut tried: u64 = 1;
        loop {
            if cand.is_probable_prime(8) {
                return (cand, tried);
            }
            cand = &cand + &two;
            tried += 1;
        }
    }

    #[test]
    fn sieved_walk_matches_naive_reference() {
        for bits in [64u32, 128] {
            for i in 0..32u32 {
                let data = [b"equiv".as_slice(), &i.to_be_bytes()].concat();
                let (prime, count) = hash_to_prime_counted(&data, bits).expect("width ok");
                let (want_prime, want_count) = naive_reference(&data, bits);
                assert_eq!(prime, want_prime, "prime drift at {bits}/{i}");
                assert_eq!(count, want_count, "gas-visible count drift at {bits}/{i}");
            }
        }
    }

    #[test]
    fn mod_sieve_agrees_with_div_rem() {
        for i in 0..50u32 {
            let v = hash_to_prime(&i.to_be_bytes(), 128).expect("width ok");
            for sp in sieve_table() {
                assert_eq!(mod_sieve(&v, sp), v.div_rem_limb(sp.p).1, "p={}", sp.p);
            }
        }
        // Exact multiples reduce to zero (the r == 0 branch of the sieve).
        for sp in sieve_table().iter().take(20) {
            let v = &BigUint::from(sp.p) * &BigUint::from(u64::MAX);
            assert_eq!(mod_sieve(&v, sp), 0);
        }
    }
}
