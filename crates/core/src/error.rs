//! Protocol-level errors.

use slicer_chain::ChainError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the Slicer protocol layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum SlicerError {
    /// A value does not fit the configured bit width.
    ValueOutOfDomain {
        /// The offending value.
        value: u64,
        /// Configured width.
        bits: u8,
    },
    /// `Build` called twice (use `Insert` for updates).
    AlreadyBuilt,
    /// A record ID was inserted twice (dual-instance uniqueness rule).
    DuplicateRecordId(crate::record::RecordId),
    /// Deleting or updating a record that is not live.
    UnknownRecordId(crate::record::RecordId),
    /// An encrypted result failed to decrypt (corrupt cloud response).
    MalformedResult(slicer_crypto::CryptoError),
    /// An underlying blockchain operation failed.
    Chain(ChainError),
    /// The cloud's own state is inconsistent: an index batch with
    /// colliding labels, or a prover that disagrees with the prime list.
    IndexCorruption(String),
    /// Result `index` of an answer has no prime in the accumulated list
    /// `X`: its token's trapdoor is not on its keyword's chain (a
    /// malformed or forged request), so no membership witness exists.
    UnaccumulatedResult {
        /// Position of the result in the answer.
        index: usize,
    },
    /// A result's `H_prime` walk index does not fit the contract's `u16`
    /// hint, so the result cannot be settled.
    HintOutOfRange(u64),
}

impl fmt::Display for SlicerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlicerError::ValueOutOfDomain { value, bits } => {
                write!(f, "value {value} exceeds the {bits}-bit domain")
            }
            SlicerError::AlreadyBuilt => {
                write!(f, "build already executed; use insert for updates")
            }
            SlicerError::DuplicateRecordId(id) => {
                write!(f, "record id {id} already inserted")
            }
            SlicerError::UnknownRecordId(id) => {
                write!(f, "record id {id} is not live")
            }
            SlicerError::MalformedResult(e) => write!(f, "malformed result: {e}"),
            SlicerError::Chain(e) => write!(f, "chain error: {e}"),
            SlicerError::IndexCorruption(m) => write!(f, "index corruption: {m}"),
            SlicerError::UnaccumulatedResult { index } => write!(
                f,
                "result {index} has no accumulated prime: its token is not on its keyword's trapdoor chain"
            ),
            SlicerError::HintOutOfRange(k) => {
                write!(f, "H_prime walk index {k} does not fit the u16 hint")
            }
        }
    }
}

impl Error for SlicerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SlicerError::MalformedResult(e) => Some(e),
            SlicerError::Chain(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ChainError> for SlicerError {
    fn from(e: ChainError) -> Self {
        SlicerError::Chain(e)
    }
}

impl From<slicer_crypto::CryptoError> for SlicerError {
    fn from(e: slicer_crypto::CryptoError) -> Self {
        SlicerError::MalformedResult(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = SlicerError::ValueOutOfDomain {
            value: 300,
            bits: 8,
        };
        assert_eq!(e.to_string(), "value 300 exceeds the 8-bit domain");
    }
}
