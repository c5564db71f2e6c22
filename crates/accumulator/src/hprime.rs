//! `H_prime`: deterministic hash-to-prime (Barić–Pfitzmann prime
//! representatives).

use crate::error::AccumulatorError;
use slicer_bignum::{BigUint, SMALL_PRIMES};
use slicer_crypto::{sha256, Sha256};
use std::sync::OnceLock;

/// Candidates sieved per window: one pass of remainders against
/// [`SMALL_PRIMES`] rules out ~84% of a window this size, and the average
/// walk to a 128-bit prime (≈ 44 candidates) rarely needs a second window.
/// Sized to the walk rather than larger: the remainder pass is per-window
/// work, and the few walks that overflow just sieve another window — the
/// candidate sequence (and thus the walk index handed to the contract) is
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
/// Deterministic hash-and-increment over [`candidate`]'s sequence: the
/// walk tests `candidate(data, bits, 0)`, `candidate(data, bits, 1)`, …
/// and returns the first BPSW probable prime. Determinism is essential —
/// the data owner derives `x = H_prime(t_j‖j‖G₁‖G₂‖h)` in Algorithm 1 and
/// the blockchain verifier must land on the same prime in Algorithm 5.
///
/// # Errors
///
/// Returns [`AccumulatorError::UnsupportedPrimeBits`] if `bits < 16` or
/// `bits > 512`.
pub fn hash_to_prime(data: &[u8], bits: u32) -> Result<BigUint, AccumulatorError> {
    Ok(hash_to_prime_counted(data, bits)?.0)
}

/// The `k`-th candidate of `H_prime`'s walk over `data`: the start
/// `SHA-256(data)`, expanded and trimmed to `bits` bits with the top and
/// low bits forced to one, plus `2k`. A candidate past `2^bits - 1` wraps
/// to the bottom of the width (`2^(bits-1) + 1` follows `2^bits - 1`), so
/// every candidate is odd and exactly `bits` bits wide.
///
/// The settlement contract computes only the candidate the cloud names
/// (the walk index [`hash_to_prime_counted`] reports) and never walks.
///
/// # Errors
///
/// Returns [`AccumulatorError::UnsupportedPrimeBits`] if `bits < 16` or
/// `bits > 512`.
pub fn candidate(data: &[u8], bits: u32, k: u64) -> Result<BigUint, AccumulatorError> {
    Ok(step(&walk_start(data, bits)?, bits, k))
}

/// The walk's first candidate: `SHA-256(data)` (expanded by
/// `SHA-256(0x01 ‖ SHA-256(data))` past 256 bits) trimmed to exactly
/// `bits` bits, top bit (exact width) and low bit (odd) set.
fn walk_start(data: &[u8], bits: u32) -> Result<BigUint, AccumulatorError> {
    if !(16..=512).contains(&bits) {
        return Err(AccumulatorError::UnsupportedPrimeBits(bits));
    }
    let nbytes = bits.div_ceil(8) as usize;
    let d1 = sha256(data);
    let mut wide = d1.to_vec();
    if nbytes > wide.len() {
        let mut tagged = vec![0x01];
        tagged.extend_from_slice(&d1);
        wide.extend_from_slice(&sha256(&tagged));
    }
    wide.truncate(nbytes);
    let excess = (nbytes as u32 * 8).saturating_sub(bits);
    let mut start = &BigUint::from_bytes_be(&wide) >> excess;
    start.set_bit(bits as u64 - 1, true);
    start.set_bit(0, true);
    Ok(start)
}

/// `start + 2k`, wrapped into `[2^(bits-1), 2^bits)`: the odd `bits`-bit
/// numbers form one cycle.
fn step(start: &BigUint, bits: u32, k: u64) -> BigUint {
    let c = start + &(BigUint::from(k) << 1);
    if c.bit_len() <= u64::from(bits) {
        return c;
    }
    let half = BigUint::one() << (bits - 1);
    &(&(&c - &half) % &half) + &half
}

/// The result digest of the empty list, the start of every fold.
pub const EMPTY_RESULT_DIGEST: [u8; 32] = [0u8; 32];

/// One step of the ordered result digest: `SHA-256(er ‖ h)`, prepending
/// the ciphertext `er` to the list whose digest is `h`.
///
/// A list's digest is the right fold of this step from
/// [`EMPTY_RESULT_DIGEST`]; it is the `h` in `H_prime`'s material
/// `t_j ‖ j ‖ G₁ ‖ G₂ ‖ h`. The owner prepends each new generation, the
/// cloud and the settlement contract fold the whole list from its end.
pub fn result_digest_step(er: &[u8], h: &[u8; 32]) -> [u8; 32] {
    let mut s = Sha256::new();
    s.update(er);
    s.update(h);
    s.finalize()
}

/// The ordered digest of a whole result list: [`result_digest_step`]
/// folded from the last ciphertext to the first.
pub fn result_digest<T: AsRef<[u8]>>(er: &[T]) -> [u8; 32] {
    er.iter().rev().fold(EMPTY_RESULT_DIGEST, |h, r| {
        result_digest_step(r.as_ref(), &h)
    })
}

/// [`hash_to_prime`] that also reports the walk index `k` of the prime it
/// found: `candidate(data, bits, k)` is that prime. The cloud passes `k`
/// to the settlement contract as the entry's hint.
///
/// # Errors
///
/// Returns [`AccumulatorError::UnsupportedPrimeBits`] if `bits < 16` or
/// `bits > 512`.
pub fn hash_to_prime_counted(data: &[u8], bits: u32) -> Result<(BigUint, u64), AccumulatorError> {
    let start = walk_start(data, bits)?;
    let top = &(BigUint::one() << bits) - &BigUint::one();

    // Windowed incremental sieve: one remainder pass against SMALL_PRIMES
    // marks every candidate in the window that a small prime divides, so
    // the expensive probable-prime test only runs on survivors. The walk
    // visits exactly the candidates of `candidate`, in order.
    let mut base: u64 = 0;
    loop {
        let cand = step(&start, bits, base);
        // A window stops at `2^bits - 1`; the next one starts at the
        // wrapped candidate.
        let slots = (&top - &cand).to_u64().map_or(SIEVE_WINDOW, |gap| {
            (gap / 2 + 1).min(SIEVE_WINDOW as u64) as usize
        });
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
        for (k, &marked) in composite.iter().enumerate().take(slots) {
            if !marked {
                let c = &cand + &BigUint::from(2 * k as u64);
                if c.is_prime_bpsw_presieved() {
                    return Ok((c, base + k as u64));
                }
            }
        }
        base += slots as u64;
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
    /// full Miller–Rabin sweep, wrapping from `2^bits - 1` to
    /// `2^(bits-1) + 1`. The sieved walk must agree on both the prime found
    /// and its index — the contract recomputes the prime from the index, so
    /// an index drift would fail honest entries.
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
        let mut index: u64 = 0;
        loop {
            if cand.is_probable_prime(8) {
                return (cand, index);
            }
            cand = &cand + &two;
            if cand.bit_len() > bits as u64 {
                cand = BigUint::one() << (bits - 1);
                cand.set_bit(0, true);
            }
            index += 1;
        }
    }

    #[test]
    fn sieved_walk_matches_naive_reference() {
        for bits in [64u32, 128, 384] {
            for i in 0..32u32 {
                let data = [b"equiv".as_slice(), &i.to_be_bytes()].concat();
                let (prime, index) = hash_to_prime_counted(&data, bits).expect("width ok");
                let (want_prime, want_index) = naive_reference(&data, bits);
                assert_eq!(prime, want_prime, "prime drift at {bits}/{i}");
                assert_eq!(index, want_index, "walk index drift at {bits}/{i}");
                assert_eq!(candidate(&data, bits, index).unwrap(), prime);
            }
        }
    }

    #[test]
    fn walks_that_wrap_past_the_width_keep_their_index() {
        // At 16 bits, 65521 is the largest prime: a start above it walks
        // past 2^16 - 1 and wraps to 2^15 + 1 (about 1 start in 2,300).
        let mut wrapped = 0;
        for i in 0..40_000u32 {
            let data = i.to_be_bytes();
            let (prime, index) = hash_to_prime_counted(&data, 16).expect("width ok");
            if prime >= candidate(&data, 16, 0).unwrap() {
                continue;
            }
            wrapped += 1;
            assert_eq!((prime.clone(), index), naive_reference(&data, 16), "{i}");
            assert_eq!(candidate(&data, 16, index).unwrap(), prime, "{i}");
        }
        assert!(wrapped >= 5, "only {wrapped} wrapping walks exercised");
    }

    #[test]
    fn result_digest_is_an_ordered_right_fold() {
        let (a, b) = (b"a".as_slice(), b"b".as_slice());
        assert_eq!(result_digest::<&[u8]>(&[]), EMPTY_RESULT_DIGEST);
        let ab = result_digest_step(a, &result_digest_step(b, &EMPTY_RESULT_DIGEST));
        assert_eq!(result_digest(&[a, b]), ab);
        // Prepending to a stored digest equals folding the whole list.
        assert_eq!(result_digest_step(a, &result_digest(&[b])), ab);
        assert_ne!(result_digest(&[b, a]), ab, "order is bound");
    }

    #[test]
    fn candidates_are_odd_and_exactly_bits_wide() {
        for bits in [16u32, 17, 64, 128] {
            for k in [0u64, 1, 77, 0xFFFF, 1 << 20] {
                let c = candidate(b"width", bits, k).unwrap();
                assert_eq!(c.bit_len(), bits as u64, "{bits}/{k}");
                assert!(c.is_odd(), "{bits}/{k}");
            }
            let first = candidate(b"width", bits, 0).unwrap();
            let next = candidate(b"width", bits, 1).unwrap();
            assert!(next == &first + &BigUint::two() || next < first, "{bits}");
        }
        assert_eq!(
            candidate(b"x", 8, 0),
            Err(AccumulatorError::UnsupportedPrimeBits(8))
        );
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
