//! The history-independent encrypted index `I`.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Width of an index label `l = F(G1, t ‖ c)` (a full PRF output).
pub const INDEX_LABEL_LEN: usize = 32;

/// An index label.
pub type IndexLabel = [u8; INDEX_LABEL_LEN];

/// Error raised when the owner ships a label that already exists — labels
/// are PRF outputs over unique `(trapdoor, counter)` pairs, so a collision
/// indicates either corruption or a misbehaving owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateLabelError {
    label: IndexLabel,
}

impl fmt::Display for DuplicateLabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, ..] = self.label;
        write!(f, "index label {a:02x}{b:02x}… already present")
    }
}

impl Error for DuplicateLabelError {}

/// The encrypted index: a dictionary from PRF labels to masked record
/// ciphertexts `d = F(G2, t‖c) ⊕ Enc(K_R, R)`.
///
/// Backed by an ordered map keyed on the PRF label, which is *history
/// independent* in the sense relevant to Section VI-A: the layout is a pure
/// function of the label set, revealing nothing about insertion order, and
/// the server only ever addresses entries through PRF labels it derives
/// from search tokens. Label ordering also makes iteration (and the codec
/// bytes and persistence checksums derived from it) deterministic.
#[derive(Debug, Clone, Default)]
pub struct EncryptedIndex {
    entries: BTreeMap<IndexLabel, Vec<u8>>,
    value_bytes: usize,
}

slicer_crypto::impl_codec!(EncryptedIndex {
    entries,
    value_bytes,
});

impl EncryptedIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `label → data`.
    ///
    /// # Errors
    ///
    /// Returns [`DuplicateLabelError`] if the label is already present.
    pub fn put(&mut self, label: IndexLabel, data: Vec<u8>) -> Result<(), DuplicateLabelError> {
        if self.entries.contains_key(&label) {
            return Err(DuplicateLabelError { label });
        }
        self.value_bytes += data.len();
        self.entries.insert(label, data);
        Ok(())
    }

    /// Looks up a label (`I.find(l)` / `I.get(l)` in Algorithm 4).
    pub fn get(&self, label: &IndexLabel) -> Option<&[u8]> {
        self.entries.get(label).map(Vec::as_slice)
    }

    /// Whether a label exists.
    pub fn contains(&self, label: &IndexLabel) -> bool {
        self.entries.contains_key(label)
    }

    /// Number of entries `p`.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges a batch of new entries (the `Insert` protocol's index
    /// delta), all or nothing.
    ///
    /// # Errors
    ///
    /// Returns the first label that is already present or repeats an
    /// earlier label of the batch; the batch's own inserts are undone
    /// first, so a refused batch leaves the index as it was.
    pub fn extend(
        &mut self,
        batch: impl IntoIterator<Item = (IndexLabel, Vec<u8>)>,
    ) -> Result<(), DuplicateLabelError> {
        let batch = batch.into_iter();
        let mut added: Vec<IndexLabel> = Vec::with_capacity(batch.size_hint().0);
        let mut bytes = 0;
        for (label, data) in batch {
            match self.entries.entry(label) {
                Entry::Vacant(slot) => {
                    bytes += data.len();
                    slot.insert(data);
                    added.push(label);
                }
                Entry::Occupied(_) => {
                    for l in &added {
                        self.entries.remove(l);
                    }
                    return Err(DuplicateLabelError { label });
                }
            }
        }
        self.value_bytes += bytes;
        Ok(())
    }

    /// Storage footprint in bytes (labels + stored values).
    pub fn size_bytes(&self) -> usize {
        self.entries.len() * INDEX_LABEL_LEN + self.value_bytes
    }

    /// All entries in ascending label order. Persistence chunks the index
    /// into segments through this, so segment contents (and their
    /// checksums) are identical across runs.
    pub fn sorted_entries(&self) -> Vec<(&IndexLabel, &Vec<u8>)> {
        self.entries.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut idx = EncryptedIndex::new();
        idx.put([7u8; 32], vec![1, 2, 3]).unwrap();
        assert_eq!(idx.get(&[7u8; 32]), Some([1, 2, 3].as_slice()));
        assert_eq!(idx.get(&[8u8; 32]), None);
    }

    #[test]
    fn duplicate_labels_rejected() {
        let mut idx = EncryptedIndex::new();
        idx.put([7u8; 32], vec![1]).unwrap();
        let err = idx.put([7u8; 32], vec![2]).unwrap_err();
        assert!(err.to_string().contains("already present"));
        // Original value untouched.
        assert_eq!(idx.get(&[7u8; 32]), Some([1].as_slice()));
    }

    #[test]
    fn size_tracks_labels_and_values() {
        let mut idx = EncryptedIndex::new();
        idx.put([1u8; 32], vec![0u8; 48]).unwrap();
        idx.put([2u8; 32], vec![0u8; 48]).unwrap();
        assert_eq!(idx.size_bytes(), 2 * (32 + 48));
    }

    #[test]
    fn extend_batch() {
        let mut idx = EncryptedIndex::new();
        idx.extend((0u8..10).map(|i| ([i; 32], vec![i]))).unwrap();
        assert_eq!(idx.len(), 10);
    }

    #[test]
    fn refused_batch_leaves_the_index_untouched() {
        let mut idx = EncryptedIndex::new();
        idx.put([9u8; 32], vec![9]).unwrap();
        let size = idx.size_bytes();
        // A repeat within the batch, then a repeat of a held label.
        for repeat in [[0u8; 32], [9u8; 32]] {
            let batch = (0u8..4)
                .map(|i| ([i; 32], vec![i]))
                .chain([(repeat, vec![7])]);
            assert!(idx.extend(batch).is_err());
            assert_eq!(idx.len(), 1);
            assert_eq!(idx.size_bytes(), size);
            assert_eq!(idx.get(&[9u8; 32]), Some([9].as_slice()));
        }
        idx.extend((0u8..4).map(|i| ([i; 32], vec![i]))).unwrap();
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.size_bytes(), size + 4 * 33);
    }

    #[test]
    fn sorted_entries_are_label_ordered() {
        let mut idx = EncryptedIndex::new();
        idx.extend((0u8..10).rev().map(|i| ([i; 32], vec![i])))
            .unwrap();
        let labels: Vec<u8> = idx.sorted_entries().iter().map(|(l, _)| l[0]).collect();
        assert_eq!(labels, (0u8..10).collect::<Vec<_>>());
    }
}
