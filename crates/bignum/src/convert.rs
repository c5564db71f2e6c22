//! Byte-string and hex conversions.

use crate::uint::{BigUint, ParseBigUintError, ParseErrorKind};
use crate::Limb;

impl BigUint {
    /// Constructs a value from big-endian bytes.
    ///
    /// ```
    /// use slicer_bignum::BigUint;
    /// assert_eq!(BigUint::from_bytes_be(&[0x01, 0x00]), BigUint::from(256u64));
    /// ```
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut limb: Limb = 0;
            for &b in chunk {
                limb = (limb << 8) | b as Limb;
            }
            limbs.push(limb);
        }
        BigUint::from_limbs(limbs)
    }

    /// Minimal big-endian byte representation (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &l in self.limbs.iter().rev() {
            out.extend_from_slice(&l.to_be_bytes());
        }
        let skip = out.iter().take_while(|&&b| b == 0).count();
        out.drain(..skip);
        out
    }

    /// Big-endian bytes left-padded with zeros to exactly `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(
            raw.len() <= len,
            "value needs {} bytes but only {len} were requested",
            raw.len()
        );
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parses a (case-insensitive) hexadecimal string without `0x` prefix.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBigUintError`] on empty input or non-hex characters.
    pub fn from_hex(s: &str) -> Result<Self, ParseBigUintError> {
        if s.is_empty() {
            return Err(ParseBigUintError {
                kind: ParseErrorKind::Empty,
            });
        }
        let mut acc = BigUint::zero();
        for c in s.chars() {
            if c == '_' {
                continue;
            }
            let d = c.to_digit(16).ok_or(ParseBigUintError {
                kind: ParseErrorKind::InvalidDigit(c),
            })?;
            acc = &(&acc << 4) | &BigUint::from(d as u64);
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicer_testkit::{prop_assert_eq, prop_check};

    #[test]
    fn bytes_be_roundtrip_multi_limb() {
        let v = BigUint::from_hex("0123456789abcdef0123456789abcdef01").unwrap();
        assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v);
    }

    #[test]
    fn leading_zero_bytes_ignored() {
        assert_eq!(
            BigUint::from_bytes_be(&[0, 0, 1, 2]),
            BigUint::from(0x0102u64)
        );
    }

    #[test]
    fn zero_serializes_empty() {
        assert!(BigUint::zero().to_bytes_be().is_empty());
        assert_eq!(BigUint::from_bytes_be(&[]), BigUint::zero());
    }

    #[test]
    fn padded_output() {
        let v = BigUint::from(0xABCDu64);
        assert_eq!(v.to_bytes_be_padded(4), vec![0, 0, 0xAB, 0xCD]);
    }

    #[test]
    #[should_panic(expected = "bytes")]
    fn padded_too_small_panics() {
        BigUint::from(0x10000u64).to_bytes_be_padded(2);
    }

    #[test]
    fn hex_roundtrip() {
        let v = BigUint::from_hex("DeadBeefCafeBabe1234").unwrap();
        assert_eq!(BigUint::from_hex(&format!("{v:x}")).unwrap(), v);
    }

    #[test]
    fn bytes_roundtrip() {
        prop_check!(0xC12, 64, |g| {
            let b = BigUint::from(g.u128());
            prop_assert_eq!(BigUint::from_bytes_be(&b.to_bytes_be()), b);
            Ok(())
        });
    }
}
