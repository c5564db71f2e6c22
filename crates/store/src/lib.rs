//! # slicer-store
//!
//! Cloud-side storage for the Slicer protocol: the encrypted index `I`, the
//! prime list `X` and the cached accumulation value `Ac` that the data owner
//! ships to the cloud in Algorithms 1 and 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod index;
mod primes;

pub use index::{DuplicateLabelError, EncryptedIndex, IndexLabel, INDEX_LABEL_LEN};
pub use primes::PrimeList;

use slicer_bignum::BigUint;

/// Everything the cloud persists for one Slicer instance.
///
/// # Examples
///
/// ```
/// use slicer_store::CloudState;
/// let state = CloudState::new();
/// assert_eq!(state.index.len(), 0);
/// assert_eq!(state.primes.len(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CloudState {
    /// The encrypted index `I` (label → masked record ciphertext).
    pub index: EncryptedIndex,
    /// The prime list `X` backing witness generation.
    pub primes: PrimeList,
    /// The latest accumulation value `Ac` (mirrors the on-chain digest).
    pub accumulator: Option<BigUint>,
}

slicer_crypto::impl_codec!(CloudState {
    index,
    primes,
    accumulator,
});

impl CloudState {
    /// An empty cloud state.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cloud_state_roundtrips() {
        use slicer_crypto::codec::{from_bytes, to_bytes};
        let mut s = CloudState::new();
        s.index.put([3u8; 32], vec![9, 9, 9]).unwrap();
        s.primes.push(BigUint::from(101u64));
        s.accumulator = Some(BigUint::from(0xDEADu64));
        let back: CloudState = from_bytes(&to_bytes(&s).unwrap()).unwrap();
        assert_eq!(back.index.get(&[3u8; 32]), Some([9, 9, 9].as_slice()));
        assert_eq!(back.primes.as_slice(), s.primes.as_slice());
        assert_eq!(back.accumulator, s.accumulator);
    }
}
