//! The SORE scheme `Π = {Token, Encrypt, Compare}`.

use crate::order::Order;
use crate::tuple::{cipher_tuples, token_tuples};
use slicer_crypto::Prf;
use slicer_crypto::Rng;
use std::collections::BTreeSet;

/// A SORE query token: `b` shuffled PRF values.
pub type Token = Vec<[u8; 32]>;
/// A SORE ciphertext: `b` shuffled PRF values.
pub type Ciphertext = Vec<[u8; 32]>;

/// The Succinct Order-Revealing Encryption scheme.
///
/// Setup fixes a PRF key `k` and the bit width `b` of the plaintext
/// domain. Plaintexts are unsigned integers `< 2^b` (the paper notes any
/// practical numeric type reduces to this via scaling).
///
/// # Examples
///
/// ```
/// use slicer_sore::{Order, SoreScheme};
/// use slicer_crypto::HmacDrbg;
///
/// let sore = SoreScheme::new(b"key", 16);
/// let mut rng = HmacDrbg::from_u64(1);
/// let ct = sore.encrypt(1000, &mut rng);
/// assert!(SoreScheme::compare(&ct, &sore.token(1500, Order::Greater, &mut rng)));
/// assert!(!SoreScheme::compare(&ct, &sore.token(500, Order::Greater, &mut rng)));
/// ```
#[derive(Debug, Clone)]
pub struct SoreScheme {
    // slicer-lint: secret — the sORE comparison PRF key
    prf: Prf,
    bits: u8,
}

impl SoreScheme {
    /// Creates a scheme for `bits`-bit plaintexts under PRF key `key`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 64`.
    pub fn new(key: &[u8], bits: u8) -> Self {
        assert!((1..=64).contains(&bits), "bit width must be in 1..=64");
        SoreScheme {
            prf: Prf::new(key),
            bits,
        }
    }

    /// The plaintext bit width `b` (and hence tuple count per value).
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Validates that a plaintext fits the domain.
    fn check_domain(&self, v: u64) {
        assert!(
            self.bits == 64 || v < (1u64 << self.bits),
            "plaintext {v} exceeds the {}-bit domain",
            self.bits
        );
    }

    /// `SORE.Token(k, v, oc)`: shuffled PRF images of the `b` token tuples.
    pub fn token<R: Rng + ?Sized>(&self, v: u64, oc: Order, rng: &mut R) -> Token {
        self.token_with_attr(b"", v, oc, rng)
    }

    /// Multi-attribute variant of [`SoreScheme::token`] (Section V-F).
    pub fn token_with_attr<R: Rng + ?Sized>(
        &self,
        attr: &[u8],
        v: u64,
        oc: Order,
        rng: &mut R,
    ) -> Token {
        self.check_domain(v);
        let mut out: Vec<[u8; 32]> = token_tuples(attr, v, self.bits, oc)
            .iter()
            .map(|t| self.prf.eval(&t.encode()))
            .collect();
        shuffle(&mut out, rng);
        out
    }

    /// `SORE.Encrypt(k, v)`: shuffled PRF images of the `b` cipher tuples.
    pub fn encrypt<R: Rng + ?Sized>(&self, v: u64, rng: &mut R) -> Ciphertext {
        self.encrypt_with_attr(b"", v, rng)
    }

    /// Multi-attribute variant of [`SoreScheme::encrypt`].
    pub fn encrypt_with_attr<R: Rng + ?Sized>(
        &self,
        attr: &[u8],
        v: u64,
        rng: &mut R,
    ) -> Ciphertext {
        self.check_domain(v);
        let mut out: Vec<[u8; 32]> = cipher_tuples(attr, v, self.bits)
            .iter()
            .map(|t| self.prf.eval(&t.encode()))
            .collect();
        shuffle(&mut out, rng);
        out
    }

    /// `SORE.Compare(ct, tk)`: true iff the sets share exactly one element.
    pub fn compare(ct: &[[u8; 32]], tk: &[[u8; 32]]) -> bool {
        let tk_set: BTreeSet<&[u8; 32]> = tk.iter().collect();
        ct.iter().filter(|c| tk_set.contains(*c)).count() == 1
    }

    /// Number of common elements between a ciphertext and a token — exposed
    /// because the *count* is exactly the scheme's leakage (the index of the
    /// first differing bit can be recovered from comparing two tokens; see
    /// the leakage discussion in Section VI-A). Used by leakage tests.
    pub fn common_count(a: &[[u8; 32]], b: &[[u8; 32]]) -> usize {
        let set: BTreeSet<&[u8; 32]> = a.iter().collect();
        b.iter().filter(|x| set.contains(*x)).count()
    }
}

/// Fisher–Yates shuffle (the tuple order would otherwise leak the matched
/// bit index).
fn shuffle<T, R: Rng + ?Sized>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicer_crypto::HmacDrbg;
    use slicer_testkit::{prop_assert_eq, prop_check};

    fn rng() -> HmacDrbg {
        HmacDrbg::from_u64(99)
    }

    #[test]
    fn theorem1_exhaustive_4bit() {
        let sore = SoreScheme::new(b"k", 4);
        let mut r = rng();
        for x in 0u64..16 {
            for y in 0u64..16 {
                for oc in [Order::Greater, Order::Less] {
                    let tk = sore.token(x, oc, &mut r);
                    let ct = sore.encrypt(y, &mut r);
                    assert_eq!(
                        SoreScheme::compare(&ct, &tk),
                        oc.holds(x, y),
                        "x={x} oc={oc} y={y}"
                    );
                }
            }
        }
    }

    #[test]
    fn equal_values_never_match_order_token() {
        let sore = SoreScheme::new(b"k", 8);
        let mut r = rng();
        for v in [0u64, 1, 127, 128, 255] {
            let ct = sore.encrypt(v, &mut r);
            assert!(!SoreScheme::compare(
                &ct,
                &sore.token(v, Order::Greater, &mut r)
            ));
            assert!(!SoreScheme::compare(
                &ct,
                &sore.token(v, Order::Less, &mut r)
            ));
        }
    }

    #[test]
    fn at_most_one_common_tuple() {
        // The core lemma of Theorem 1's proof.
        let sore = SoreScheme::new(b"k", 8);
        let mut r = rng();
        for x in (0u64..256).step_by(7) {
            for y in (0u64..256).step_by(11) {
                let tk = sore.token(x, Order::Greater, &mut r);
                let ct = sore.encrypt(y, &mut r);
                assert!(SoreScheme::common_count(&ct, &tk) <= 1, "x={x} y={y}");
            }
        }
    }

    #[test]
    fn domain_edges_64bit() {
        let sore = SoreScheme::new(b"k", 64);
        let mut r = rng();
        let ct = sore.encrypt(u64::MAX, &mut r);
        assert!(SoreScheme::compare(
            &ct,
            &sore.token(u64::MAX - 1, Order::Less, &mut r)
        ));
        let ct0 = sore.encrypt(0, &mut r);
        assert!(SoreScheme::compare(
            &ct0,
            &sore.token(1, Order::Greater, &mut r)
        ));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn out_of_domain_rejected() {
        let sore = SoreScheme::new(b"k", 8);
        sore.encrypt(256, &mut rng());
    }

    #[test]
    fn different_keys_never_match() {
        let s1 = SoreScheme::new(b"k1", 8);
        let s2 = SoreScheme::new(b"k2", 8);
        let mut r = rng();
        let ct = s1.encrypt(5, &mut r);
        let tk = s2.token(6, Order::Greater, &mut r);
        assert!(!SoreScheme::compare(&ct, &tk));
    }

    #[test]
    fn attributes_are_isolated() {
        let sore = SoreScheme::new(b"k", 8);
        let mut r = rng();
        let ct_age = sore.encrypt_with_attr(b"age", 30, &mut r);
        let tk_age = sore.token_with_attr(b"age", 40, Order::Greater, &mut r);
        let tk_pay = sore.token_with_attr(b"salary", 40, Order::Greater, &mut r);
        assert!(SoreScheme::compare(&ct_age, &tk_age));
        assert!(!SoreScheme::compare(&ct_age, &tk_pay));
    }

    #[test]
    fn shuffle_hides_position_but_not_content() {
        // Two tokens for the same (v, oc) contain the same PRF set in
        // (very likely) different order.
        let sore = SoreScheme::new(b"k", 16);
        let mut r = rng();
        let t1 = sore.token(12345, Order::Less, &mut r);
        let t2 = sore.token(12345, Order::Less, &mut r);
        let s1: BTreeSet<_> = t1.iter().collect();
        let s2: BTreeSet<_> = t2.iter().collect();
        assert_eq!(s1, s2);
        assert_ne!(t1, t2, "with 16 elements an identical order is ~2^-44");
    }

    #[test]
    fn theorem1_random_32bit() {
        prop_check!(0x5041, 64, |g| {
            let (x, y) = (g.u32(), g.u32());
            let sore = SoreScheme::new(b"prop", 32);
            let mut r = rng();
            let ct = sore.encrypt(y as u64, &mut r);
            for oc in [Order::Greater, Order::Less] {
                let tk = sore.token(x as u64, oc, &mut r);
                prop_assert_eq!(SoreScheme::compare(&ct, &tk), oc.holds(x as u64, y as u64));
            }
            Ok(())
        });
    }

    #[test]
    fn leakage_is_first_diff_bit_between_tokens() {
        prop_check!(0x5042, 64, |g| {
            // Comparing two *tokens* leaks the first differing bit index:
            // common count == b - (index of first differing bit) ... which
            // equals the shared-prefix tuple count. Verify the relationship.
            let (x, y) = (g.u16(), g.u16());
            let sore = SoreScheme::new(b"prop", 16);
            let mut r = rng();
            let t1 = sore.token(x as u64, Order::Greater, &mut r);
            let t2 = sore.token(y as u64, Order::Greater, &mut r);
            let common = SoreScheme::common_count(&t1, &t2);
            if x == y {
                prop_assert_eq!(common, 16);
            } else {
                let first_diff = (x ^ y).leading_zeros() as usize; // 0-based from MSB of u16
                prop_assert_eq!(common, first_diff);
            }
            Ok(())
        });
    }
}
