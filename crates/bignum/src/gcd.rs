//! Greatest common divisor, extended Euclid and modular inverses.

use crate::uint::BigUint;

/// Result of the extended Euclidean algorithm on `(a, b)`.
///
/// Satisfies `a*x - b*y = gcd` or `b*y - a*x = gcd` depending on
/// `x_negative`.
struct ExtendedGcd {
    /// `gcd(a, b)`.
    gcd: BigUint,
    /// Magnitude of the Bézout coefficient for `a`.
    x: BigUint,
    /// Whether the `a` coefficient is negative.
    x_negative: bool,
}

impl BigUint {
    /// Greatest common divisor via the Euclidean algorithm.
    ///
    /// ```
    /// use slicer_bignum::BigUint;
    /// let g = BigUint::from(48u64).gcd(&BigUint::from(36u64));
    /// assert_eq!(g, BigUint::from(12u64));
    /// ```
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = &a % &b;
            a = b;
            b = r;
        }
        a
    }

    /// Least common multiple. Returns zero if either input is zero.
    pub fn lcm(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let g = self.gcd(other);
        &(self / &g) * other
    }

    /// Extended Euclidean algorithm: finds the Bézout coefficient of `self`
    /// modulo `m`.
    fn extended_gcd(&self, m: &BigUint) -> ExtendedGcd {
        // Iterative extended Euclid tracking only the `x` coefficient with an
        // explicit sign, since BigUint is unsigned.
        let mut r0 = self.clone();
        let mut r1 = m.clone();
        let mut x0 = (BigUint::one(), false);
        let mut x1 = (BigUint::zero(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // x2 = x0 - q * x1 (signed)
            let qx1 = &q * &x1.0;
            let x2 = signed_sub(&x0, &(qx1, x1.1));
            r0 = r1;
            r1 = r2;
            x0 = x1;
            x1 = x2;
        }
        ExtendedGcd {
            gcd: r0,
            x: x0.0,
            x_negative: x0.1,
        }
    }

    /// Modular inverse: `self^-1 mod m`, or `None` if `gcd(self, m) != 1`.
    ///
    /// ```
    /// use slicer_bignum::BigUint;
    /// let inv = BigUint::from(3u64).modinv(&BigUint::from(7u64)).unwrap();
    /// assert_eq!(inv, BigUint::from(5u64)); // 3 * 5 = 15 = 1 mod 7
    /// ```
    pub fn modinv(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        let reduced = self % m;
        if reduced.is_zero() {
            return None;
        }
        let e = reduced.extended_gcd(m);
        if !e.gcd.is_one() {
            return None;
        }
        let x = &e.x % m;
        Some(if e.x_negative && !x.is_zero() {
            m - &x
        } else {
            x
        })
    }
}

/// `(a_mag, a_neg) - (b_mag, b_neg)` over sign-magnitude integers.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with both non-negative
        (false, false) => match a.0.checked_sub(&b.0) {
            Some(d) => (d, false),
            None => (&b.0 - &a.0, true),
        },
        // a - (-b) = a + b
        (false, true) => (&a.0 + &b.0, false),
        // -a - b = -(a + b)
        (true, false) => (&a.0 + &b.0, true),
        // -a - (-b) = b - a
        (true, true) => match b.0.checked_sub(&a.0) {
            Some(d) => (d, false),
            None => (&a.0 - &b.0, true),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicer_testkit::{prop_assert, prop_assert_eq, prop_check};

    fn big(v: u128) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn gcd_with_zero() {
        assert_eq!(big(12).gcd(&BigUint::zero()), big(12));
        assert_eq!(BigUint::zero().gcd(&big(12)), big(12));
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(big(4).lcm(&big(6)), big(12));
        assert_eq!(big(4).lcm(&BigUint::zero()), BigUint::zero());
    }

    #[test]
    fn modinv_of_non_coprime_is_none() {
        assert_eq!(big(6).modinv(&big(9)), None);
        assert_eq!(big(0).modinv(&big(9)), None);
        assert_eq!(big(5).modinv(&BigUint::one()), None);
    }

    #[test]
    fn modinv_large_prime_field() {
        // p = 2^127 - 1 (Mersenne prime)
        let p = &(&BigUint::one() << 127) - &BigUint::one();
        let a: BigUint = "123456789123456789".parse().unwrap();
        let inv = a.modinv(&p).unwrap();
        assert_eq!(&(&a * &inv) % &p, BigUint::one());
    }

    #[test]
    fn gcd_divides_both() {
        prop_check!(0xE11, 64, |g| {
            let a = g.u64_in(1, u64::MAX);
            let b = g.u64_in(1, u64::MAX);
            let d = big(a as u128).gcd(&big(b as u128));
            let d64 = d.to_u64().unwrap();
            prop_assert_eq!(a % d64, 0);
            prop_assert_eq!(b % d64, 0);
            Ok(())
        });
    }

    #[test]
    fn modinv_is_inverse() {
        prop_check!(0xE12, 64, |g| {
            let a = g.u64_in(1, 999_999);
            let m = g.u64_in(2, 999_999);
            let a_b = big(a as u128);
            let m_b = big(m as u128);
            if let Some(inv) = a_b.modinv(&m_b) {
                prop_assert!(inv < m_b);
                prop_assert_eq!(&(&a_b * &inv) % &m_b, BigUint::one());
            } else {
                // No inverse means gcd > 1 (or a ≡ 0).
                let d = a_b.gcd(&m_b);
                prop_assert!(!d.is_one());
            }
            Ok(())
        });
    }
}
