//! Typed errors for accumulator construction and witness generation.

use std::fmt;

/// Errors surfaced by the accumulator crate instead of panicking: the
/// serving path (cloud witness generation, on-chain verification) must
/// degrade to a protocol error on malformed input, never take the process
/// down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccumulatorError {
    /// `hash_to_prime` was asked for a width outside the supported
    /// `16..=512` bit range.
    UnsupportedPrimeBits(u32),
    /// A trusted setup was requested below the minimum modulus size.
    ModulusTooSmall(u32),
    /// An RSA modulus was rejected (even or ≤ 1 — no Montgomery domain).
    BadModulus,
    /// A witness target index is outside the prime set.
    TargetOutOfRange {
        /// The offending index.
        index: usize,
        /// Length of the prime set.
        len: usize,
    },
    /// The same target index appeared twice in one batch request.
    DuplicateTarget(usize),
    /// A [`BatchProver`](crate::witness::BatchProver) has folded more
    /// primes than the list it was handed holds — it was built over a
    /// longer (e.g. since truncated) list.
    ProverAhead {
        /// Primes the prover has folded into its leaves.
        folded: usize,
        /// Length of the prime list presented.
        len: usize,
    },
}

impl fmt::Display for AccumulatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccumulatorError::UnsupportedPrimeBits(bits) => {
                write!(f, "unsupported prime size {bits} (want 16..=512)")
            }
            AccumulatorError::ModulusTooSmall(bits) => {
                write!(f, "modulus below 32 bits is meaningless (got {bits})")
            }
            AccumulatorError::BadModulus => {
                write!(f, "RSA modulus must be odd and > 1")
            }
            AccumulatorError::TargetOutOfRange { index, len } => {
                write!(f, "target index {index} out of range for {len} primes")
            }
            AccumulatorError::DuplicateTarget(index) => {
                write!(f, "duplicate target index {index}")
            }
            AccumulatorError::ProverAhead { folded, len } => {
                write!(f, "prover folded {folded} primes but the list holds {len}")
            }
        }
    }
}

impl std::error::Error for AccumulatorError {}
