//! A Merkle hash tree — the ADS baseline Slicer argues against.
//!
//! Section III-B: *"Compared with Merkle Hash Tree, which is another ADS
//! that can provide existence proofs, the proof in the RSA accumulator is
//! constant-size and leaks no extraneous information."* This module
//! implements the baseline so the claim is measurable:
//!
//! * Merkle proofs are `O(log n)` hashes (vs one group element),
//! * each proof reveals the leaf's position and sibling digests (vs
//!   nothing beyond membership), and
//! * verification is `O(log n)` hashes (vs one modular exponentiation —
//!   cheap off-chain, expensive on-chain under MODEXP pricing).
//!
//! The `ads_ablation` benchmark and the unit tests below quantify the
//! trade-off.

use slicer_crypto::sha256;
use std::fmt;

/// Typed errors for tree construction and proving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MerkleError {
    /// A tree was requested over an empty leaf set.
    EmptyTree,
    /// A proof was requested for a leaf outside the tree.
    LeafOutOfRange {
        /// The offending leaf index.
        index: usize,
        /// Number of leaves in the tree.
        len: usize,
    },
}

impl fmt::Display for MerkleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MerkleError::EmptyTree => write!(f, "cannot build a Merkle tree over nothing"),
            MerkleError::LeafOutOfRange { index, len } => {
                write!(f, "leaf index {index} out of range for {len} leaves")
            }
        }
    }
}

impl std::error::Error for MerkleError {}

/// Domain-separation prefixes preventing leaf/node second-preimage splices.
const LEAF_TAG: u8 = 0x00;
const NODE_TAG: u8 = 0x01;

/// A binary Merkle tree over byte-string leaves (duplicated-last-leaf
/// padding for odd widths, Bitcoin-style).
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// `levels[0]` = leaf digests, last level = root (singleton).
    levels: Vec<Vec<[u8; 32]>>,
    /// The root digest, cached at build time (the last level's only entry).
    root: [u8; 32],
}

/// A membership proof: the leaf index plus the sibling path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub index: usize,
    /// Sibling digests from the leaf level up.
    pub siblings: Vec<[u8; 32]>,
}

impl MerkleProof {
    /// Serialized proof size in bytes (index + siblings) — the quantity
    /// compared against the accumulator's constant witness size.
    pub fn size_bytes(&self) -> usize {
        8 + 32 * self.siblings.len()
    }
}

fn leaf_digest(data: &[u8]) -> [u8; 32] {
    let mut buf = Vec::with_capacity(1 + data.len());
    buf.push(LEAF_TAG);
    buf.extend_from_slice(data);
    sha256(&buf)
}

fn node_digest(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    let mut buf = Vec::with_capacity(65);
    buf.push(NODE_TAG);
    buf.extend_from_slice(left);
    buf.extend_from_slice(right);
    sha256(&buf)
}

impl MerkleTree {
    /// Builds a tree over the given leaves.
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::EmptyTree`] on an empty leaf set (an
    /// empty ADS commits to nothing; use a sentinel leaf if needed).
    pub fn build<D: AsRef<[u8]>>(leaves: &[D]) -> Result<Self, MerkleError> {
        if leaves.is_empty() {
            return Err(MerkleError::EmptyTree);
        }
        let mut levels = vec![leaves
            .iter()
            .map(|l| leaf_digest(l.as_ref()))
            .collect::<Vec<_>>()];
        loop {
            let prev = match levels.last() {
                Some(level) if level.len() > 1 => level,
                _ => break,
            };
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                if let Some(left) = pair.first() {
                    let right = pair.get(1).unwrap_or(left);
                    next.push(node_digest(left, right));
                }
            }
            levels.push(next);
        }
        // The loop above terminates with a singleton top level; a missing
        // root can only mean the (already rejected) empty leaf set.
        let root = levels
            .last()
            .and_then(|level| level.first())
            .copied()
            .ok_or(MerkleError::EmptyTree)?;
        Ok(MerkleTree { levels, root })
    }

    /// The root digest (what would live on chain).
    pub fn root(&self) -> [u8; 32] {
        self.root
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, |leaves| leaves.len())
    }

    /// True when the tree has exactly one leaf.
    pub fn is_empty(&self) -> bool {
        false // a constructed tree always has ≥ 1 leaf
    }

    /// Produces a membership proof for leaf `index`.
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::LeafOutOfRange`] if `index` is out of
    /// range.
    pub fn prove(&self, index: usize) -> Result<MerkleProof, MerkleError> {
        if index >= self.len() {
            return Err(MerkleError::LeafOutOfRange {
                index,
                len: self.len(),
            });
        }
        let mut siblings = Vec::with_capacity(self.levels.len().saturating_sub(1));
        let mut i = index;
        let inner = self.levels.len().saturating_sub(1);
        for level in self.levels.iter().take(inner) {
            // Even position: pair with the right neighbour (or itself under
            // duplicate-last-leaf padding). Odd position: pair leftward.
            let pair = if i % 2 == 0 {
                level.get(i + 1).or_else(|| level.get(i))
            } else {
                level.get(i - 1)
            };
            let sibling = *pair.ok_or(MerkleError::LeafOutOfRange {
                index,
                len: self.len(),
            })?;
            siblings.push(sibling);
            i /= 2;
        }
        Ok(MerkleProof { index, siblings })
    }

    /// Verifies a proof against a root (static: the verifier holds only
    /// the root, the claimed leaf data and the proof).
    pub fn verify(root: &[u8; 32], leaf: &[u8], proof: &MerkleProof) -> bool {
        let mut digest = leaf_digest(leaf);
        let mut i = proof.index;
        for sibling in &proof.siblings {
            digest = if i % 2 == 0 {
                node_digest(&digest, sibling)
            } else {
                node_digest(sibling, &digest)
            };
            i /= 2;
        }
        digest == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_and_out_of_range_are_typed_errors() {
        let none: &[&[u8]] = &[];
        assert!(matches!(
            MerkleTree::build(none),
            Err(MerkleError::EmptyTree)
        ));
        let tree = MerkleTree::build(&leaves(4)).unwrap();
        assert_eq!(
            tree.prove(4),
            Err(MerkleError::LeafOutOfRange { index: 4, len: 4 })
        );
    }

    #[test]
    fn every_leaf_proves_and_verifies() {
        for n in [1usize, 2, 3, 7, 8, 9, 33] {
            let data = leaves(n);
            let tree = MerkleTree::build(&data).expect("non-empty");
            for (i, leaf) in data.iter().enumerate() {
                let proof = tree.prove(i).expect("in range");
                assert!(
                    MerkleTree::verify(&tree.root(), leaf, &proof),
                    "n={n} leaf={i}"
                );
            }
        }
    }

    #[test]
    fn wrong_leaf_or_index_fails() {
        let data = leaves(10);
        let tree = MerkleTree::build(&data).expect("non-empty");
        let proof = tree.prove(3).expect("in range");
        assert!(!MerkleTree::verify(&tree.root(), b"leaf-4", &proof));
        let mut wrong_pos = proof.clone();
        wrong_pos.index = 4;
        assert!(!MerkleTree::verify(&tree.root(), b"leaf-3", &wrong_pos));
    }

    #[test]
    fn tampered_sibling_fails() {
        let data = leaves(16);
        let tree = MerkleTree::build(&data).expect("non-empty");
        let mut proof = tree.prove(5).expect("in range");
        proof.siblings[2][0] ^= 1;
        assert!(!MerkleTree::verify(&tree.root(), b"leaf-5", &proof));
    }

    #[test]
    fn root_depends_on_every_leaf() {
        let a = MerkleTree::build(&leaves(8)).expect("non-empty");
        let mut modified = leaves(8);
        modified[7] = b"changed".to_vec();
        let b = MerkleTree::build(&modified).expect("non-empty");
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn proof_size_is_logarithmic_and_beats_nothing() {
        // The paper's claim: accumulator witnesses are constant-size (64 B
        // at our 512-bit modulus), Merkle proofs grow with log n and leak
        // the position.
        let small = MerkleTree::build(&leaves(16)).unwrap().prove(0).unwrap();
        let large = MerkleTree::build(&leaves(4096)).unwrap().prove(0).unwrap();
        assert_eq!(small.siblings.len(), 4);
        assert_eq!(large.siblings.len(), 12);
        assert!(
            large.size_bytes() > 64,
            "beyond n=16 the Merkle proof outgrows the accumulator witness"
        );
    }

    #[test]
    fn duplicate_last_leaf_padding_is_not_confusable() {
        // n=3 pads by duplicating the last leaf; a proof for index 2 must
        // not also verify as index 3.
        let data = leaves(3);
        let tree = MerkleTree::build(&data).expect("non-empty");
        let proof = tree.prove(2).expect("in range");
        assert!(MerkleTree::verify(&tree.root(), b"leaf-2", &proof));
        let mut forged = proof;
        forged.index = 3;
        // Same digest path (duplicate), but position 3 flips the sibling
        // order at level 0... which is identical for the duplicated pair,
        // so this *does* verify — the classic CVE-2012-2459 ambiguity.
        // Slicer's usage is immune: leaves are distinct prime
        // representatives, never duplicated by the ADS owner. Document the
        // behaviour rather than hide it:
        assert!(MerkleTree::verify(&tree.root(), b"leaf-2", &forged));
    }
}
