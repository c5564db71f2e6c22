//! # slicer-accumulator
//!
//! The RSA accumulator — Slicer's authenticated data structure (ADS).
//!
//! The accumulator commits to the set of *prime representatives* `X` of all
//! keyword states: `Ac = g^{∏_{x ∈ X} x} mod n`. A membership witness for
//! `x` is `mw = g^{x_p / x} mod n`, and verification is the single
//! exponentiation `mw^x ≡ Ac (mod n)` — the constant-size check the
//! blockchain smart contract executes in Algorithm 5. Proofs are
//! constant-size and leak nothing about other members, which is why Slicer
//! prefers it over a Merkle tree (Section III-B).
//!
//! Components:
//!
//! * [`RsaParams`] — trusted-setup modulus (product of two safe primes) and
//!   a quadratic-residue generator. [`RsaParams::fixed_512`] /
//!   [`RsaParams::fixed_1024`] bake in reproducible parameters sized so that
//!   witnesses match the ≤ 60-byte VOs reported in the paper (Fig. 6d);
//!   [`RsaParams::generate`] performs a fresh trusted setup.
//! * [`hash_to_prime`] — the `H_prime` random oracle (Barić–Pfitzmann style
//!   hash-and-increment), deterministic so the on-chain verifier can
//!   recompute representatives.
//! * [`Accumulator`] — incremental accumulation.
//! * [`witness`] — direct, batched ([`witness::BatchProver`]: cached
//!   complements of leaves of at most [`witness::LEAF`] primes, caught up
//!   lazily) and root-factor witness generation strategies.
//!
//! # Examples
//!
//! ```
//! use slicer_accumulator::{hash_to_prime, Accumulator, RsaParams};
//!
//! # fn main() -> Result<(), slicer_accumulator::AccumulatorError> {
//! let params = RsaParams::fixed_512();
//! let primes = (0u32..4)
//!     .map(|i| hash_to_prime(&i.to_be_bytes(), 128))
//!     .collect::<Result<Vec<_>, _>>()?;
//! let acc = Accumulator::over(&params, &primes);
//!
//! let w = slicer_accumulator::witness::membership_witness(&params, &primes, 2)?;
//! assert!(acc.verify(&primes[2], &w));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acc;
mod error;
mod hprime;
mod params;
pub mod witness;

pub use acc::Accumulator;
pub use error::AccumulatorError;
pub use hprime::{
    candidate, hash_to_prime, hash_to_prime_counted, result_digest, result_digest_step,
    DEFAULT_PRIME_BITS, EMPTY_RESULT_DIGEST,
};
pub use params::RsaParams;
