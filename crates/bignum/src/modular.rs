//! Modulus-generic modular arithmetic entry points.

use crate::montgomery::MontgomeryCtx;
use crate::uint::BigUint;

impl BigUint {
    /// Modular multiplication `(self * rhs) mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn mulmod(&self, rhs: &BigUint, m: &BigUint) -> BigUint {
        &(self * rhs) % m
    }

    /// Modular exponentiation `self^exp mod m`.
    ///
    /// Uses Montgomery multiplication when `m` is odd (the common case for
    /// RSA moduli and prime fields) and falls back to binary
    /// square-and-multiply with full reductions otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    ///
    /// ```
    /// use slicer_bignum::BigUint;
    /// let r = BigUint::from(3u64).modpow(&BigUint::from(4u64), &BigUint::from(10u64));
    /// assert_eq!(r, BigUint::from(1u64)); // 81 mod 10
    /// ```
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if m.is_one() {
            return BigUint::zero();
        }
        if let Some(ctx) = MontgomeryCtx::new(m) {
            return ctx.modpow(self, exp);
        }
        // Even modulus: plain square-and-multiply.
        let mut base = self % m;
        let mut acc = BigUint::one();
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                acc = acc.mulmod(&base, m);
            }
            base = &base.square() % m;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicer_testkit::{prop_assert_eq, prop_check};

    fn big(v: u128) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn modpow_even_modulus() {
        // 3^5 mod 16 = 243 mod 16 = 3
        assert_eq!(big(3).modpow(&big(5), &big(16)), big(3));
    }

    #[test]
    fn modpow_modulus_one() {
        assert_eq!(big(5).modpow(&big(5), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn rsa_style_roundtrip() {
        // Tiny RSA: n = 3233 = 61*53, e = 17, d = 413.
        let n = big(3233);
        let msg = big(65);
        let ct = msg.modpow(&big(17), &n);
        assert_eq!(ct, big(2790));
        assert_eq!(ct.modpow(&big(413), &n), msg);
    }

    fn naive_modpow(mut b: u128, mut e: u128, m: u128) -> u128 {
        let mut acc: u128 = 1 % m;
        b %= m;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * b % m;
            }
            b = b * b % m;
            e >>= 1;
        }
        acc
    }

    #[test]
    fn modpow_matches_naive_any_modulus() {
        prop_check!(0xF11, 64, |g| {
            let base = g.u32();
            let exp = g.u16();
            let m = g.u64_in(2, u32::MAX as u64);
            let got = big(base as u128).modpow(&big(exp as u128), &big(m as u128));
            let want = naive_modpow(base as u128, exp as u128, m as u128);
            prop_assert_eq!(got, big(want));
            Ok(())
        });
    }
}
