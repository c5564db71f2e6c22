//! The [`BigUint`] type: representation, construction and basic queries.

use crate::{Limb, LIMB_BITS};
use std::cmp::Ordering;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// An arbitrary-precision unsigned integer.
///
/// Stored as a little-endian vector of 64-bit limbs with no trailing zero
/// limbs (the canonical form of zero is the empty vector). All arithmetic
/// operators are implemented for both owned values and references; prefer
/// the reference forms (`&a + &b`) in hot paths to avoid clones.
///
/// # Examples
///
/// ```
/// use slicer_bignum::BigUint;
///
/// let x: BigUint = "123456789012345678901234567890".parse()?;
/// let y = BigUint::from_hex("ff00ff00ff00ff00ff00ff00")?;
/// assert!(x > y);
/// # Ok::<(), slicer_bignum::ParseBigUintError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    pub(crate) limbs: Vec<Limb>,
}

impl BigUint {
    /// Returns zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// Returns one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Returns two.
    pub fn two() -> Self {
        BigUint { limbs: vec![2] }
    }

    /// Constructs a value from little-endian limbs, normalizing trailing
    /// zeros.
    pub fn from_limbs(mut limbs: Vec<Limb>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Exposes the little-endian limb slice (no trailing zeros).
    pub fn limbs(&self) -> &[Limb] {
        &self.limbs
    }

    /// Returns `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` iff the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` iff the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Returns `true` iff the value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Number of significant bits (`0` for zero).
    ///
    /// ```
    /// use slicer_bignum::BigUint;
    /// assert_eq!(BigUint::from(0u64).bit_len(), 0);
    /// assert_eq!(BigUint::from(255u64).bit_len(), 8);
    /// assert_eq!(BigUint::from(256u64).bit_len(), 9);
    /// ```
    pub fn bit_len(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&hi) => {
                (self.limbs.len() as u64 - 1) * LIMB_BITS as u64
                    + (LIMB_BITS - hi.leading_zeros()) as u64
            }
        }
    }

    /// Returns the value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Returns the value as `u128` if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(((self.limbs[1] as u128) << 64) | self.limbs[0] as u128),
            _ => None,
        }
    }

    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from(v as u64)
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                // Full-width scan with no early exit: walking least- to
                // most-significant, the latest differing pair wins, so the
                // loop's timing is independent of *where* the operands
                // diverge (limb counts are public — they equal the bit
                // length, which comparisons reveal anyway).
                let mut gt = 0u64;
                let mut lt = 0u64;
                for (a, b) in self.limbs.iter().zip(other.limbs.iter()) {
                    let a_gt = u64::from(a > b);
                    let a_lt = u64::from(a < b);
                    let same = 1 - (a_gt | a_lt);
                    gt = a_gt | (gt & same);
                    lt = a_lt | (lt & same);
                }
                gt.cmp(&lt)
            }
            ord => ord,
        }
    }
}

/// Error returned when parsing a [`BigUint`] from a string fails.
///
/// The `Display` message names the offending character class; the value is a
/// unit-style struct because no further recovery information is useful.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigUintError {
    pub(crate) kind: ParseErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ParseErrorKind {
    Empty,
    InvalidDigit(char),
}

impl fmt::Display for ParseBigUintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseErrorKind::Empty => write!(f, "cannot parse integer from empty string"),
            ParseErrorKind::InvalidDigit(c) => write!(f, "invalid digit {c:?} in integer string"),
        }
    }
}

impl Error for ParseBigUintError {}

impl FromStr for BigUint {
    type Err = ParseBigUintError;

    /// Parses a decimal string, or a hexadecimal string with a `0x` prefix.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            return BigUint::from_hex(hex);
        }
        if s.is_empty() {
            return Err(ParseBigUintError {
                kind: ParseErrorKind::Empty,
            });
        }
        let mut acc = BigUint::zero();
        let ten = BigUint::from(10u64);
        for c in s.chars() {
            if c == '_' {
                continue;
            }
            let d = c.to_digit(10).ok_or(ParseBigUintError {
                kind: ParseErrorKind::InvalidDigit(c),
            })?;
            acc = &(&acc * &ten) + &BigUint::from(d as u64);
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_canonical_empty() {
        assert!(BigUint::zero().is_zero());
        assert_eq!(BigUint::from(0u64), BigUint::zero());
        assert_eq!(BigUint::from_limbs(vec![0, 0, 0]), BigUint::zero());
    }

    #[test]
    fn parity() {
        assert!(BigUint::zero().is_even());
        assert!(BigUint::one().is_odd());
        assert!(BigUint::from(u64::MAX).is_odd());
        assert!(BigUint::from(u64::MAX as u128 + 1).is_even());
    }

    #[test]
    fn ordering_across_lengths() {
        let small = BigUint::from(u64::MAX);
        let big = BigUint::from(u64::MAX as u128 + 1);
        assert!(small < big);
        assert!(big > small);
        assert_eq!(big.cmp(&big.clone()), Ordering::Equal);
    }

    #[test]
    fn bit_len_edges() {
        assert_eq!(BigUint::from(1u64).bit_len(), 1);
        assert_eq!(BigUint::from(u64::MAX).bit_len(), 64);
        assert_eq!(BigUint::from(1u128 << 64).bit_len(), 65);
    }

    #[test]
    fn parse_decimal_roundtrip() {
        let s = "340282366920938463463374607431768211456"; // 2^128
        let v: BigUint = s.parse().unwrap();
        assert_eq!(v.to_string(), s);
        assert_eq!(v.bit_len(), 129);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<BigUint>().is_err());
        assert!("12a3".parse::<BigUint>().is_err());
        assert!("0xzz".parse::<BigUint>().is_err());
    }

    #[test]
    fn parse_with_separators() {
        let v: BigUint = "1_000_000".parse().unwrap();
        assert_eq!(v.to_u64(), Some(1_000_000));
    }

    #[test]
    fn u128_conversions() {
        let v = BigUint::from(u128::MAX);
        assert_eq!(v.to_u128(), Some(u128::MAX));
        assert_eq!(v.to_u64(), None);
    }
}
