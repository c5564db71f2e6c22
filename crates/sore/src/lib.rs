//! # slicer-sore
//!
//! The **Succinct Order-Revealing Encryption** scheme at the heart of
//! Slicer (Section V-B).
//!
//! SORE "slices" an order condition over a `b`-bit value into `b` prefix
//! tuples. A query token for `x` under order condition `oc` carries, per
//! bit `i`, the tuple `x_{|i-1} ‖ x_i ‖ oc`; a ciphertext for `y` carries
//! `y_{|i-1} ‖ ȳ_i ‖ cmp(ȳ_i, y_i)`. Theorem 1: `x oc y` holds **iff** the
//! two (PRF-masked, shuffled) tuple sets share *exactly one* element —
//! which reduces order comparison to keyword-equality matching, exactly
//! what a keyword SSE index can serve.
//!
//! Semantics note: tokens follow the paper's convention `x oc y` where `x`
//! is the *query* value and `y` the *data* value. A user searching for
//! records **less than** 100 therefore issues `Token(100, Greater)`. The
//! higher-level `slicer-core` crate exposes the intuitive
//! `less_than`/`greater_than` API and performs this flip.
//!
//! # Examples
//!
//! ```
//! use slicer_sore::{Order, SoreScheme};
//! use slicer_crypto::HmacDrbg;
//!
//! let sore = SoreScheme::new(b"prf key", 8);
//! let mut rng = HmacDrbg::from_u64(7);
//! let ct = sore.encrypt(5, &mut rng);       // data value 5
//! let tk = sore.token(6, Order::Greater, &mut rng); // query: 6 > y ?
//! assert!(SoreScheme::compare(&ct, &tk));   // 6 > 5 ✓
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod order;
mod scheme;
mod tuple;

pub use order::Order;
pub use scheme::{Ciphertext, SoreScheme, Token};
pub use tuple::{cipher_tuples, token_tuples, SliceTuple};
