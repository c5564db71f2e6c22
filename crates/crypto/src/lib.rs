//! # slicer-crypto
//!
//! Symmetric cryptographic primitives for the Slicer reproduction,
//! implemented from scratch and validated against the official test vectors:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4).
//! * [`hmac_sha256`] — HMAC-SHA256 (RFC 2104 / RFC 4231), the pseudo-random
//!   function `F`/`G` used throughout the paper's protocols (the paper uses
//!   "HMAC-128": HMAC truncated to 128 bits; we expose both full and
//!   truncated forms).
//! * [`aes`] — the AES-128 block cipher (FIPS 197) and a CTR-mode stream
//!   cipher used for the record-ID encryption `Enc(K_R, ·)`.
//! * [`Prf`] — a keyed PRF façade over HMAC with domain-separated derivation
//!   ([`Prf::derive`]) mirroring `G(K, w‖1)` / `G(K, w‖2)` in Algorithm 1.
//! * [`HmacDrbg`] — a deterministic random bit generator used for seeded,
//!   reproducible experiments. It implements the workspace's own [`Rng`]
//!   trait, so no external RNG crate is needed anywhere in the build.
//! * [`codec`] — the [`Encode`]/[`Decode`] trait pair every persistable
//!   type in the workspace implements; the whole wire format lives here.
//!
//! # Example
//!
//! ```
//! use slicer_crypto::{Prf, SymmetricKey};
//!
//! let prf = Prf::new(b"index key");
//! let label = prf.eval(b"trapdoor || counter");
//! assert_eq!(label.len(), 32);
//!
//! let key = SymmetricKey::from_bytes([7u8; 16]);
//! let ct = key.encrypt(b"record-42", &[1u8; 16]);
//! assert_eq!(key.decrypt(&ct).unwrap(), b"record-42");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod codec;
mod drbg;
mod error;
mod hmac_mod;
mod prf;
mod rng;
mod sha256_mod;
mod symmetric;

pub use codec::{CodecError, Decode, Encode};
pub use drbg::HmacDrbg;
pub use error::CryptoError;
pub use hmac_mod::{hmac_sha256, Hmac};
pub use prf::{Prf, PrfStream};
pub use rng::Rng;
pub use sha256_mod::{sha256, Sha256};
pub use symmetric::SymmetricKey;
