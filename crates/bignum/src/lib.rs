//! # slicer-bignum
//!
//! Arbitrary-precision unsigned integer arithmetic for the Slicer
//! reproduction.
//!
//! This crate is the numeric substrate for every public-key style primitive
//! in the workspace: the RSA accumulator and the RSA trapdoor permutation
//! both operate on multi-thousand-bit integers. It is
//! implemented from scratch (no external bignum crates) and provides:
//!
//! * [`BigUint`] — a normalized little-endian limb vector with the full set
//!   of arithmetic, bit and comparison operators.
//! * Knuth Algorithm D division ([`BigUint::div_rem`]).
//! * Montgomery-form modular exponentiation ([`MontgomeryCtx`],
//!   [`BigUint::modpow`]) with a sliding window of 3 to 6 bits sized to the
//!   exponent, and [`MontgomeryCtx::modpow_product`], which raises a base
//!   to a whole list of primes at once for the accumulator's witnesses.
//! * Modular inverses via the extended Euclidean algorithm
//!   ([`BigUint::modinv`]).
//! * Miller–Rabin primality testing and random (safe-)prime generation
//!   ([`BigUint::is_probable_prime`], [`gen_prime`], [`gen_safe_prime`]).
//!
//! # Examples
//!
//! ```
//! use slicer_bignum::BigUint;
//!
//! let a = BigUint::from(41u64);
//! let b = BigUint::from(59u64);
//! let n = &a * &b;
//! assert_eq!(n, BigUint::from(2419u64));
//!
//! // modular exponentiation: 2^10 mod 1000 = 24
//! let r = BigUint::from(2u64).modpow(&BigUint::from(10u64), &BigUint::from(1000u64));
//! assert_eq!(r, BigUint::from(24u64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod bits;
mod codec_impl;
mod convert;
mod div;
mod fmt;
mod gcd;
mod modular;
mod montgomery;
mod prime;
mod random;
mod uint;

pub use montgomery::MontgomeryCtx;
pub use prime::{gen_prime, gen_safe_prime, next_prime, SMALL_PRIMES};
pub use random::{random_below, random_bits, random_odd_bits};
pub use uint::{BigUint, ParseBigUintError};

/// Machine word used as a limb.
pub(crate) type Limb = u64;
/// Double-width word used for carries and products.
pub(crate) type DoubleLimb = u128;
/// Bits per limb.
pub(crate) const LIMB_BITS: u32 = 64;
