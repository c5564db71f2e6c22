//! RSA accumulator public parameters (`Setup(1^λ)`).

use crate::error::AccumulatorError;
use slicer_bignum::{gen_safe_prime, random_below, BigUint, MontgomeryCtx};
use slicer_crypto::codec::{CodecError, Decode, Encode, Reader};
use slicer_crypto::Rng;

/// Fixed 512-bit modulus: product of two 256-bit safe primes generated once
/// for the reproduction (factors discarded). 512 bits makes each witness 64
/// bytes, matching the ≤ 60-byte verification objects of the paper's Fig 6d.
const N512_HEX: &str = "9d6ada17d8468909691ea6b0e283b927dd9de8ad16464e8303851d313bf138b65e455154485e4752084843cbd944e98a75cb24a5341714de7760c8bbe0079d79";

/// Fixed 1024-bit modulus: product of two 512-bit safe primes.
const N1024_HEX: &str = "bb4e6da51c76d10262e609238711c6438bbed174037683196828e14dcb8c8e408f0907b198041442cf2607c6530ba7e576a289095585c7a1e5d92c20e4a4ba86587826b1b9e64514cc991f106d8798eb2cf25864152c675f3ff130a8c20c5ea01430349e5e713cfd5fdc16656589ddd67d1dc85f84ee50ad96a5130d53ed9dd5";

/// Public parameters of the RSA accumulator: a modulus `n = p·q` with `p`,
/// `q` safe primes, and a generator `g ∈ QR_n \ {1}`.
///
/// The Montgomery context for `n` is precomputed once and shared by every
/// accumulation, witness and verification operation.
#[derive(Debug, Clone)]
pub struct RsaParams {
    modulus: BigUint,
    generator: BigUint,
    ctx: Option<MontgomeryCtx>,
}

impl Encode for RsaParams {
    fn encode(&self, out: &mut Vec<u8>) {
        self.modulus.encode(out);
        self.generator.encode(out);
    }
}

impl Decode for RsaParams {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        let modulus = BigUint::decode(reader)?;
        let generator = BigUint::decode(reader)?;
        // Rebuild the Montgomery context eagerly so decoded params are
        // immediately usable; an even modulus means corrupt input.
        RsaParams::try_from_parts(modulus, generator)
            .map_err(|_| CodecError::msg("RsaParams modulus must be odd and > 1"))
    }
}

impl PartialEq for RsaParams {
    fn eq(&self, other: &Self) -> bool {
        self.modulus == other.modulus && self.generator == other.generator
    }
}
impl Eq for RsaParams {}

impl RsaParams {
    /// Builds parameters from a known modulus and generator.
    ///
    /// # Errors
    ///
    /// Returns [`AccumulatorError::BadModulus`] if the modulus is even or
    /// ≤ 1 (RSA moduli are odd by construction).
    pub fn try_from_parts(modulus: BigUint, generator: BigUint) -> Result<Self, AccumulatorError> {
        let ctx = MontgomeryCtx::new(&modulus).ok_or(AccumulatorError::BadModulus)?;
        Ok(RsaParams {
            modulus,
            generator,
            ctx: Some(ctx),
        })
    }

    /// Decodes a baked-in modulus with `g = 4 = 2²` (a quadratic residue
    /// for any odd modulus). Total by construction: if the constant were
    /// ever corrupted the fallback is a tiny odd modulus, a state the
    /// `fixed_params_shape` tests pin as unreachable.
    fn baked(hex: &str) -> Self {
        let modulus = BigUint::from_hex(hex).unwrap_or_else(|_| BigUint::from(15u64));
        let ctx = MontgomeryCtx::new(&modulus);
        RsaParams {
            modulus,
            generator: BigUint::from(4u64),
            ctx,
        }
    }

    /// The baked-in 512-bit parameters used across tests and benchmarks.
    ///
    /// `g = 4 = 2²` is a quadratic residue for any odd modulus.
    pub fn fixed_512() -> Self {
        Self::baked(N512_HEX)
    }

    /// The baked-in 1024-bit parameters (higher security margin; 128-byte
    /// witnesses).
    pub fn fixed_1024() -> Self {
        Self::baked(N1024_HEX)
    }

    /// Fresh trusted setup: samples two `bits/2`-bit safe primes and a
    /// random quadratic-residue generator. The factors are dropped on
    /// return, so nobody (including the caller) retains the trapdoor.
    ///
    /// # Errors
    ///
    /// Returns [`AccumulatorError::ModulusTooSmall`] if `bits < 32`.
    pub fn generate<R: Rng + ?Sized>(bits: u32, rng: &mut R) -> Result<Self, AccumulatorError> {
        if bits < 32 {
            return Err(AccumulatorError::ModulusTooSmall(bits));
        }
        let p = gen_safe_prime(bits / 2, rng);
        let q = loop {
            let q = gen_safe_prime(bits - bits / 2, rng);
            if q != p {
                break q;
            }
        };
        let n = &p * &q;
        // g = r^2 mod n for random r, retried until g ∉ {0, 1}.
        let generator = loop {
            let r = random_below(&n, rng);
            let g = r.mulmod(&r, &n);
            if !g.is_zero() && !g.is_one() {
                break g;
            }
        };
        Self::try_from_parts(n, generator)
    }

    /// The modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// The generator `g`.
    pub fn generator(&self) -> &BigUint {
        &self.generator
    }

    /// Size of a serialized group element (witnesses, accumulator values).
    pub fn element_bytes(&self) -> usize {
        self.modulus.bit_len().div_ceil(8) as usize
    }

    /// `base^exp mod n` using the shared context.
    pub fn powmod(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        match &self.ctx {
            Some(ctx) => ctx.modpow(base, exp),
            // Unreachable for params built by this module (every
            // constructor validates the modulus); the plain modpow keeps
            // the operation total regardless.
            None => base.modpow(exp, &self.modulus),
        }
    }

    /// `base^(∏ exps) mod n` with chunked exponent products — one window
    /// pass per few dozen primes instead of one `powmod` each. This is the
    /// inner loop of accumulation and the root-factor witness tree.
    pub fn powmod_product(&self, base: &BigUint, exps: &[BigUint]) -> BigUint {
        match &self.ctx {
            Some(ctx) => ctx.modpow_product(base, exps),
            None => exps
                .iter()
                .fold(base.clone(), |acc, e| acc.modpow(e, &self.modulus)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicer_crypto::HmacDrbg;

    #[test]
    fn fixed_params_shape() {
        let p = RsaParams::fixed_512();
        assert_eq!(p.modulus().bit_len(), 512);
        assert_eq!(p.element_bytes(), 64);
        assert_eq!(p.generator(), &BigUint::from(4u64));
        assert!(p.modulus().is_odd());
    }

    #[test]
    fn fixed_1024_shape() {
        let p = RsaParams::fixed_1024();
        assert_eq!(p.modulus().bit_len(), 1024);
        assert_eq!(p.element_bytes(), 128);
    }

    #[test]
    fn generate_small_setup() {
        let mut rng = HmacDrbg::from_u64(5);
        let p = RsaParams::generate(128, &mut rng).expect("128 bits suffices");
        // Product of two 64-bit primes has 127 or 128 bits.
        assert!((127..=128).contains(&p.modulus().bit_len()));
        // Generator is a nontrivial residue.
        assert!(!p.generator().is_zero());
        assert!(!p.generator().is_one());
        assert!(p.generator() < p.modulus());
    }

    #[test]
    fn tiny_setup_and_even_modulus_are_typed_errors() {
        use crate::AccumulatorError;
        let mut rng = HmacDrbg::from_u64(5);
        assert_eq!(
            RsaParams::generate(16, &mut rng).unwrap_err(),
            AccumulatorError::ModulusTooSmall(16)
        );
        assert_eq!(
            RsaParams::try_from_parts(BigUint::from(16u64), BigUint::from(4u64)).unwrap_err(),
            AccumulatorError::BadModulus
        );
    }

    #[test]
    fn codec_roundtrip_restores_ctx() {
        let p = RsaParams::fixed_512();
        let bytes = slicer_crypto::codec::to_bytes(&p).unwrap();
        let q: RsaParams = slicer_crypto::codec::from_bytes(&bytes).unwrap();
        assert_eq!(p, q);
        // Decoded params are immediately usable (ctx rebuilt).
        let b = BigUint::from(7u64);
        let e = BigUint::from(3u64);
        assert_eq!(q.powmod(&b, &e), p.powmod(&b, &e));
    }

    #[test]
    fn powmod_agrees_with_bignum() {
        let p = RsaParams::fixed_512();
        let b = BigUint::from(123456u64);
        let e = BigUint::from(65537u64);
        assert_eq!(p.powmod(&b, &e), b.modpow(&e, p.modulus()));
    }
}
