//! Keyed PRF façade used as `F` and `G` in the Slicer protocols.

use crate::hmac_mod::Hmac;

/// A pseudo-random function keyed with an arbitrary byte string.
///
/// This is the `F : {0,1}^λ × {0,1}^* → {0,1}^λ` of the paper, instantiated
/// with HMAC-SHA256 (the prototype used HMAC-128; we keep the full 256-bit
/// output for index labels and expose [`Prf::eval128`] where the truncated
/// form is wanted).
///
/// # Examples
///
/// ```
/// use slicer_crypto::Prf;
/// let g = Prf::new(b"master key K");
/// // G(K, w || 1) and G(K, w || 2) from Algorithm 1:
/// let g1 = g.derive(b"keyword w", 1);
/// let g2 = g.derive(b"keyword w", 2);
/// assert_ne!(g1, g2);
/// ```
#[derive(Clone)]
pub struct Prf {
    /// HMAC prototype with both key-pad blocks pre-compressed; every
    /// evaluation clones this midstate instead of re-running the key
    /// schedule (two SHA-256 compressions saved per call).
    proto: Hmac,
}

impl std::fmt::Debug for Prf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Prf(<keyed>)")
    }
}

impl Prf {
    /// Creates a PRF keyed with `key`.
    pub fn new(key: &[u8]) -> Self {
        Prf {
            proto: Hmac::new(key),
        }
    }

    /// Evaluates the PRF on `input`, returning 32 bytes.
    pub fn eval(&self, input: &[u8]) -> [u8; 32] {
        let mut mac = self.proto.clone();
        mac.update(input);
        mac.finalize()
    }

    /// Evaluates the PRF truncated to 16 bytes (the paper's HMAC-128).
    pub fn eval128(&self, input: &[u8]) -> [u8; 16] {
        let full = self.eval(input);
        let mut out = [0u8; 16];
        out.copy_from_slice(&full[..16]);
        out
    }

    /// Domain-separated derivation `PRF(key, input ‖ tag)` — the
    /// `G(K, w‖1)` / `G(K, w‖2)` pattern of Algorithms 1–3.
    pub fn derive(&self, input: &[u8], tag: u8) -> [u8; 32] {
        let mut mac = self.proto.clone();
        mac.update(input);
        mac.update(&[tag]);
        mac.finalize()
    }

    /// Pins a fixed input prefix: `F(K, prefix ‖ ·)`. The returned stream
    /// has the prefix absorbed once, so evaluating many suffixes (the
    /// `F(G1, t ‖ c)` loops over counters in Algorithms 1–4) skips
    /// re-hashing the prefix every call.
    pub fn stream(&self, prefix: &[u8]) -> PrfStream {
        let mut mac = self.proto.clone();
        mac.update(prefix);
        PrfStream { mid: mac }
    }
}

/// A [`Prf`] evaluation midstate with a fixed prefix already absorbed; see
/// [`Prf::stream`]. Output is identical to `prf.eval(prefix ‖ suffix)`.
#[derive(Clone)]
pub struct PrfStream {
    mid: Hmac,
}

impl std::fmt::Debug for PrfStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PrfStream(<keyed>)")
    }
}

impl PrfStream {
    /// Evaluates the PRF on `prefix ‖ suffix`, returning 32 bytes.
    pub fn eval(&self, suffix: &[u8]) -> [u8; 32] {
        let mut mac = self.mid.clone();
        mac.update(suffix);
        mac.finalize()
    }

    /// [`PrfStream::eval`] truncated to 16 bytes.
    pub fn eval128(&self, suffix: &[u8]) -> [u8; 16] {
        let full = self.eval(suffix);
        let mut out = [0u8; 16];
        out.copy_from_slice(&full[..16]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let p = Prf::new(b"k");
        assert_eq!(p.eval(b"x"), p.eval(b"x"));
    }

    #[test]
    fn derive_separates_domains() {
        let p = Prf::new(b"k");
        assert_ne!(p.derive(b"w", 1), p.derive(b"w", 2));
        // Matches explicit concatenation.
        assert_eq!(p.derive(b"w", 1), p.eval(b"w\x01"));
    }

    #[test]
    fn eval128_is_prefix() {
        let p = Prf::new(b"k");
        assert_eq!(p.eval128(b"x"), p.eval(b"x")[..16]);
    }

    #[test]
    fn debug_hides_key() {
        let p = Prf::new(b"secret");
        assert!(!format!("{p:?}").contains("secret"));
    }

    #[test]
    fn stream_matches_concat() {
        let p = Prf::new(b"k");
        // Prefix lengths straddling the 64-byte block boundary exercise
        // every midstate-buffering case.
        for plen in [0usize, 5, 63, 64, 65, 128, 130] {
            let prefix = vec![0xA7u8; plen];
            let s = p.stream(&prefix);
            for suffix in [b"".as_slice(), b"c", b"counter-0001"] {
                let whole = p.eval(&[prefix.as_slice(), suffix].concat());
                assert_eq!(s.eval(suffix), whole, "plen {plen}");
                assert_eq!(s.eval128(suffix), whole[..16]);
            }
        }
    }
}
