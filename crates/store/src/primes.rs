//! The prime list `X` held by the cloud for witness generation.

use slicer_bignum::BigUint;
use slicer_crypto::codec::{CodecError, Decode, Encode, Reader};
use std::collections::HashMap;

/// An append-only list of prime representatives with O(1) index lookup.
///
/// Algorithm 2 never removes primes — superseded keyword states stay
/// accumulated, and freshness is enforced by the *user's* token pointing at
/// the newest `(t_j, j)` state (whose prime is the only one the contract
/// will recompute).
#[derive(Debug, Clone, Default)]
pub struct PrimeList {
    primes: Vec<BigUint>,
    positions: HashMap<BigUint, usize>,
}

impl Encode for PrimeList {
    fn encode(&self, out: &mut Vec<u8>) {
        // Only the primes travel; the lookup table is derived state.
        self.primes.encode(out);
    }
}

impl Decode for PrimeList {
    /// Rejects a list that repeats a prime: `push` never stores one twice,
    /// so a repeat is corruption, and every later index would be off.
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut list = PrimeList::new();
        for prime in Vec::<BigUint>::decode(reader)? {
            let index = list.len();
            if list.push_new(prime).is_none() {
                return Err(CodecError::msg(format!(
                    "prime list repeats a prime at index {index}"
                )));
            }
        }
        Ok(list)
    }
}

impl PrimeList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a prime, returning its index. Re-adding an existing prime
    /// returns the original index without duplicating it.
    pub fn push(&mut self, prime: BigUint) -> usize {
        match self.positions.get(&prime) {
            Some(&i) => i,
            None => self.append(prime),
        }
    }

    /// Appends a prime that is not in the list yet, returning its index,
    /// or `None` (and leaves the list as it was) if it is already there.
    pub fn push_new(&mut self, prime: BigUint) -> Option<usize> {
        if self.positions.contains_key(&prime) {
            None
        } else {
            Some(self.append(prime))
        }
    }

    fn append(&mut self, prime: BigUint) -> usize {
        let i = self.primes.len();
        self.positions.insert(prime.clone(), i);
        self.primes.push(prime);
        i
    }

    /// Index of a prime, if present.
    pub fn position(&self, prime: &BigUint) -> Option<usize> {
        self.positions.get(prime).copied()
    }

    /// The primes in insertion order.
    pub fn as_slice(&self) -> &[BigUint] {
        &self.primes
    }

    /// Number of primes `q`.
    pub fn len(&self) -> usize {
        self.primes.len()
    }

    /// True when no primes are stored.
    pub fn is_empty(&self) -> bool {
        self.primes.is_empty()
    }

    /// Storage footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.primes
            .iter()
            .map(|p| p.bit_len().div_ceil(8) as usize)
            .sum()
    }
}

impl FromIterator<BigUint> for PrimeList {
    fn from_iter<I: IntoIterator<Item = BigUint>>(iter: I) -> Self {
        let mut list = PrimeList::new();
        for p in iter {
            list.push(p);
        }
        list
    }
}

impl Extend<BigUint> for PrimeList {
    fn extend<I: IntoIterator<Item = BigUint>>(&mut self, iter: I) {
        for p in iter {
            self.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u64) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn push_and_lookup() {
        let mut list = PrimeList::new();
        assert_eq!(list.push(p(101)), 0);
        assert_eq!(list.push(p(103)), 1);
        assert_eq!(list.position(&p(101)), Some(0));
        assert_eq!(list.position(&p(999)), None);
    }

    #[test]
    fn idempotent_push() {
        let mut list = PrimeList::new();
        list.push(p(101));
        assert_eq!(list.push(p(101)), 0);
        assert_eq!(list.len(), 1);
        // The strict variant refuses the repeat instead.
        assert_eq!(list.push_new(p(101)), None);
        assert_eq!(list.push_new(p(103)), Some(1));
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn collects_from_iterator() {
        let list: PrimeList = (0u64..5).map(|i| p(100 + i)).collect();
        assert_eq!(list.len(), 5);
    }

    #[test]
    fn size_counts_bytes() {
        let mut list = PrimeList::new();
        list.push(p(0xFFFF)); // 2 bytes
        list.push(p(0xFF)); // 1 byte
        assert_eq!(list.size_bytes(), 3);
    }
}
