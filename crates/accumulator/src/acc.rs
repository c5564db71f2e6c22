//! The accumulator value and incremental accumulation.

use crate::params::RsaParams;
use slicer_bignum::BigUint;

/// An RSA accumulator value `Ac = g^{∏ x} mod n` over a set of primes.
///
/// The accumulator is *incremental*: adding an element is one modular
/// exponentiation with a short (prime-sized) exponent, which is how the
/// Insert protocol updates the on-chain digest cheaply.
///
/// # Examples
///
/// ```
/// use slicer_accumulator::{hash_to_prime, Accumulator, RsaParams};
/// # fn main() -> Result<(), slicer_accumulator::AccumulatorError> {
/// let params = RsaParams::fixed_512();
/// let mut acc = Accumulator::new(&params);
/// acc.add(&hash_to_prime(b"state-1", 128)?);
/// acc.add(&hash_to_prime(b"state-2", 128)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accumulator<'a> {
    params: &'a RsaParams,
    value: BigUint,
}

impl<'a> Accumulator<'a> {
    /// The empty accumulator: `Ac = g`.
    pub fn new(params: &'a RsaParams) -> Self {
        Accumulator {
            params,
            value: params.generator().clone(),
        }
    }

    /// Accumulates an entire prime set (`Accumulation(X)`).
    pub fn over(params: &'a RsaParams, primes: &[BigUint]) -> Self {
        Accumulator {
            params,
            value: params.powmod_product(params.generator(), primes),
        }
    }

    /// Resumes from a previously computed accumulator value.
    pub fn from_value(params: &'a RsaParams, value: BigUint) -> Self {
        Accumulator { params, value }
    }

    /// Adds one prime: `Ac ← Ac^x mod n`.
    pub fn add(&mut self, prime: &BigUint) {
        self.value = self.params.powmod(&self.value, prime);
    }

    /// The current accumulator value `Ac`.
    pub fn value(&self) -> &BigUint {
        &self.value
    }

    /// `VerifyMem`: checks `witness^x ≡ Ac (mod n)`.
    pub fn verify(&self, prime: &BigUint, witness: &BigUint) -> bool {
        self.params.powmod(witness, prime) == self.value
    }

    /// The public parameters in use.
    pub fn params(&self) -> &'a RsaParams {
        self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_to_prime;

    fn primes(n: u32) -> Vec<BigUint> {
        (0..n)
            .map(|i| hash_to_prime(&i.to_be_bytes(), 64).expect("width ok"))
            .collect()
    }

    #[test]
    fn order_independent() {
        let params = RsaParams::fixed_512();
        let ps = primes(5);
        let mut rev = ps.clone();
        rev.reverse();
        assert_eq!(
            Accumulator::over(&params, &ps).value(),
            Accumulator::over(&params, &rev).value()
        );
    }

    #[test]
    fn incremental_equals_batch() {
        let params = RsaParams::fixed_512();
        let ps = primes(6);
        let batch = Accumulator::over(&params, &ps);
        let mut inc = Accumulator::over(&params, &ps[..3]);
        for p in &ps[3..] {
            inc.add(p);
        }
        assert_eq!(batch.value(), inc.value());
    }

    #[test]
    fn empty_accumulator_is_generator() {
        let params = RsaParams::fixed_512();
        assert_eq!(Accumulator::new(&params).value(), params.generator());
    }

    #[test]
    fn from_value_roundtrip() {
        let params = RsaParams::fixed_512();
        let acc = Accumulator::over(&params, &primes(3));
        let resumed = Accumulator::from_value(&params, acc.value().clone());
        assert_eq!(resumed, acc);
    }
}
