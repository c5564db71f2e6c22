//! # slicer-trapdoor
//!
//! The RSA trapdoor permutation that gives Slicer forward security.
//!
//! During `Insert` (Algorithm 2) the data owner replaces a keyword's
//! trapdoor with `t ← π_sk⁻¹(t)` — a step only the owner can take. The
//! cloud, handed the newest trapdoor `t_j` in a search token, walks the
//! chain *forwards* with the public permutation `t_{i-1} = π_pk(t_i)`
//! (Algorithm 4) to reach every older index generation. Until a new token
//! is issued, freshly inserted entries are unlinkable to past queries
//! because the server cannot invert `π` — Bost's Σοφος construction.
//!
//! * [`TrapdoorKeyPair`] — RSA keypair; the owner keeps the whole pair,
//!   the cloud receives only [`TrapdoorPublic`].
//! * [`Trapdoor`] — a fixed-width domain element (`< n`).
//!
//! # Examples
//!
//! ```
//! use slicer_trapdoor::TrapdoorKeyPair;
//! use slicer_crypto::HmacDrbg;
//!
//! let mut rng = HmacDrbg::from_u64(1);
//! let kp = TrapdoorKeyPair::generate(512, &mut rng);
//! let t0 = kp.public().random_trapdoor(&mut rng);
//! let t1 = kp.invert(&t0);              // owner steps backwards
//! assert_eq!(kp.public().forward(&t1), t0); // cloud walks forwards
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use slicer_bignum::{gen_prime, random_below, BigUint, MontgomeryCtx};
use slicer_crypto::codec::{CodecError, Decode, Encode, Reader};
use slicer_crypto::Rng;
use std::sync::Arc;

/// Fixed RSA public exponent.
pub const PUBLIC_EXPONENT: u64 = 65537;

/// Baked-in 512-bit test fixture (modulus, private exponent) so unit tests
/// skip key generation.
const FIXED_N_HEX: &str = "a623c4d3f8488fa00583213793106b0a4213344c577817dbf6d657c8abc2729d7fa552bbbb05f23d1774bddbcde3ef1c297a76e96565f184cc6666592e15767b";
const FIXED_D_HEX: &str = "2fc2fbac3665e1c84e9d5e78c41205bbaab82ba240c9190ed6dcd2dab12a12d9a560eb14187aa5666c79ce3e3433d1dc6a81cc8f9a14d6d774d31cef666b7eb5";

/// A trapdoor value: an element of `Z_n` serialized at fixed width.
///
/// Trapdoors index generations of a keyword's posting list; each `Insert`
/// on a previously-searched keyword steps the trapdoor backwards.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Trapdoor(BigUint);

impl Encode for Trapdoor {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for Trapdoor {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Trapdoor(BigUint::decode(reader)?))
    }
}

impl Trapdoor {
    /// Wraps a raw field element.
    pub fn from_value(v: BigUint) -> Self {
        Trapdoor(v)
    }

    /// The underlying element.
    pub fn value(&self) -> &BigUint {
        &self.0
    }

    /// Fixed-width big-endian encoding (`width` bytes), used when deriving
    /// index labels `F(G1, t ‖ c)`.
    pub fn to_bytes(&self, width: usize) -> Vec<u8> {
        self.0.to_bytes_be_padded(width)
    }
}

/// The public half of the trapdoor permutation: `π_pk(x) = x^e mod n`.
#[derive(Debug, Clone)]
pub struct TrapdoorPublic {
    modulus: BigUint,
    ctx: Arc<MontgomeryCtx>,
}

impl Encode for TrapdoorPublic {
    fn encode(&self, out: &mut Vec<u8>) {
        self.modulus.encode(out);
    }
}

impl Decode for TrapdoorPublic {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        let modulus = BigUint::decode(reader)?;
        // Rebuild the Montgomery context eagerly; an even modulus means
        // corrupt input rather than a valid RSA public key.
        let ctx = MontgomeryCtx::new(&modulus)
            .ok_or_else(|| CodecError::msg("TrapdoorPublic modulus must be odd and > 1"))?;
        Ok(TrapdoorPublic {
            modulus,
            ctx: Arc::new(ctx),
        })
    }
}

impl PartialEq for TrapdoorPublic {
    fn eq(&self, other: &Self) -> bool {
        self.modulus == other.modulus
    }
}
impl Eq for TrapdoorPublic {}

impl TrapdoorPublic {
    fn new(modulus: BigUint) -> Self {
        let ctx = Arc::new(MontgomeryCtx::new(&modulus).expect("RSA modulus is odd"));
        TrapdoorPublic { modulus, ctx }
    }

    /// The modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// Serialized width of a trapdoor under this key.
    pub fn trapdoor_bytes(&self) -> usize {
        self.modulus.bit_len().div_ceil(8) as usize
    }

    /// Applies the permutation forwards: `π_pk(t) = t^e mod n`.
    pub fn forward(&self, t: &Trapdoor) -> Trapdoor {
        Trapdoor(self.ctx.modpow(&t.0, &BigUint::from(PUBLIC_EXPONENT)))
    }

    /// Walks the permutation forwards `steps` times.
    pub fn walk_forward(&self, t: &Trapdoor, steps: u64) -> Trapdoor {
        let mut cur = t.clone();
        for _ in 0..steps {
            cur = self.forward(&cur);
        }
        cur
    }

    /// Samples a uniformly random trapdoor in `Z_n`.
    pub fn random_trapdoor<R: Rng + ?Sized>(&self, rng: &mut R) -> Trapdoor {
        Trapdoor(random_below(&self.modulus, rng))
    }
}

/// An RSA trapdoor-permutation keypair held by the data owner.
#[derive(Debug, Clone)]
pub struct TrapdoorKeyPair {
    public: TrapdoorPublic,
    // slicer-lint: secret — the RSA trapdoor exponent `d`
    private_exponent: BigUint,
}

slicer_crypto::impl_codec!(TrapdoorKeyPair {
    public,
    private_exponent,
});

impl TrapdoorKeyPair {
    /// Generates a fresh `bits`-bit keypair with `e = 65537`.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 64`.
    pub fn generate<R: Rng + ?Sized>(bits: u32, rng: &mut R) -> Self {
        assert!(bits >= 64, "modulus too small for a permutation domain");
        let e = BigUint::from(PUBLIC_EXPONENT);
        loop {
            let p = gen_prime(bits / 2, rng);
            let q = gen_prime(bits - bits / 2, rng);
            if p == q {
                continue;
            }
            let one = BigUint::one();
            let lambda = (&p - &one).lcm(&(&q - &one));
            if let Some(d) = e.modinv(&lambda) {
                let n = &p * &q;
                return TrapdoorKeyPair {
                    public: TrapdoorPublic::new(n),
                    private_exponent: d,
                };
            }
        }
    }

    /// The baked-in 512-bit fixture keypair for deterministic tests.
    pub fn fixed_test() -> Self {
        TrapdoorKeyPair {
            public: TrapdoorPublic::new(BigUint::from_hex(FIXED_N_HEX).expect("valid hex")),
            private_exponent: BigUint::from_hex(FIXED_D_HEX).expect("valid hex"),
        }
    }

    /// The public half, shareable with clouds and users.
    pub fn public(&self) -> &TrapdoorPublic {
        &self.public
    }

    /// Applies the inverse permutation: `π_sk⁻¹(t) = t^d mod n`.
    pub fn invert(&self, t: &Trapdoor) -> Trapdoor {
        Trapdoor(self.public.ctx.modpow(&t.0, &self.private_exponent))
    }

    /// Walks backwards `steps` times (owner-only).
    pub fn walk_back(&self, t: &Trapdoor, steps: u64) -> Trapdoor {
        let mut cur = t.clone();
        for _ in 0..steps {
            cur = self.invert(&cur);
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicer_crypto::HmacDrbg;

    #[test]
    fn fixture_permutation_roundtrip() {
        let kp = TrapdoorKeyPair::fixed_test();
        let mut rng = HmacDrbg::from_u64(3);
        let t = kp.public().random_trapdoor(&mut rng);
        let back = kp.invert(&t);
        assert_ne!(back, t);
        assert_eq!(kp.public().forward(&back), t);
        // Both directions are inverses.
        assert_eq!(kp.invert(&kp.public().forward(&t)), t);
    }

    #[test]
    fn generated_keypair_roundtrip() {
        let mut rng = HmacDrbg::from_u64(4);
        let kp = TrapdoorKeyPair::generate(256, &mut rng);
        let t = kp.public().random_trapdoor(&mut rng);
        assert_eq!(kp.public().forward(&kp.invert(&t)), t);
    }

    #[test]
    fn chain_walks_compose() {
        let kp = TrapdoorKeyPair::fixed_test();
        let mut rng = HmacDrbg::from_u64(5);
        let t0 = kp.public().random_trapdoor(&mut rng);
        let t3 = kp.walk_back(&t0, 3);
        assert_eq!(kp.public().walk_forward(&t3, 3), t0);
        // Partial walks land on intermediate generations.
        let t1 = kp.walk_back(&t0, 1);
        assert_eq!(kp.public().walk_forward(&t3, 2), t1);
    }

    #[test]
    fn fixed_width_encoding() {
        let kp = TrapdoorKeyPair::fixed_test();
        let mut rng = HmacDrbg::from_u64(6);
        let t = kp.public().random_trapdoor(&mut rng);
        let w = kp.public().trapdoor_bytes();
        assert_eq!(w, 64);
        assert_eq!(t.to_bytes(w).len(), w);
    }

    #[test]
    fn distinct_trapdoors_random() {
        let kp = TrapdoorKeyPair::fixed_test();
        let mut rng = HmacDrbg::from_u64(7);
        let a = kp.public().random_trapdoor(&mut rng);
        let b = kp.public().random_trapdoor(&mut rng);
        assert_ne!(a, b);
    }
}
