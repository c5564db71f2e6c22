//! Owner-side mutable state: the trapdoor dictionary `T` and set-hash
//! dictionary `S` of Algorithms 1–2.

use crate::error::SlicerError;
use slicer_trapdoor::Trapdoor;
use std::collections::BTreeMap;

/// The per-keyword state stored in `T`: the newest trapdoor and the update
/// count `j`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeywordState {
    /// Newest trapdoor `t_j`.
    pub trapdoor: Trapdoor,
    /// Number of insert-updates applied to this keyword (`j`).
    pub updates: u32,
    /// Per-generation counter `c`: entries stored under the newest trapdoor
    /// so far (resets on every trapdoor rotation).
    pub counter: u64,
}

slicer_crypto::impl_codec!(KeywordState {
    trapdoor,
    updates,
    counter,
});

/// Owner state: `T` (trapdoor states, also delegated to users) and `S`
/// (result digests, owner-only).
///
/// Both dictionaries are ordered maps so that iteration — and everything
/// derived from it: codec bytes, snapshot checksums, merge transcripts — is
/// deterministic across runs and thread counts.
#[derive(Debug, Clone, Default)]
pub struct OwnerState {
    /// `T`: keyword encoding → trapdoor state.
    pub trapdoors: BTreeMap<Vec<u8>, KeywordState>,
    /// `S`: keyword state key (`t‖j‖G1‖G2`) → ordered digest of the
    /// keyword's full result list
    /// ([`slicer_accumulator::result_digest`]).
    pub set_hashes: BTreeMap<Vec<u8>, [u8; 32]>,
}

slicer_crypto::impl_codec!(OwnerState {
    trapdoors,
    set_hashes,
});

impl OwnerState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The user-visible half (`T` only) shipped during delegation.
    pub fn user_view(&self) -> BTreeMap<Vec<u8>, KeywordState> {
        self.trapdoors.clone()
    }

    /// Replays `delta` onto this state: retires its `S` keys, then sets
    /// its `S` and `T` entries.
    ///
    /// # Errors
    ///
    /// Returns [`SlicerError::IndexCorruption`] when a retired key is not
    /// in `S`; the state is then partially updated and must be discarded.
    pub fn apply(&mut self, delta: &OwnerDelta) -> Result<(), SlicerError> {
        for key in &delta.retired {
            if self.set_hashes.remove(key).is_none() {
                return Err(SlicerError::IndexCorruption(
                    "retired set-hash key is missing from S".into(),
                ));
            }
        }
        self.set_hashes
            .extend(delta.set_hashes.iter().map(|(k, h)| (k.clone(), *h)));
        self.trapdoors.extend(
            delta
                .trapdoors
                .iter()
                .map(|(w, st)| (w.clone(), st.clone())),
        );
        Ok(())
    }
}

/// What builds and inserts changed in an [`OwnerState`]: the `T` and `S`
/// entries they set and the `S` keys they retired. A forward-secure
/// insert touches one keyword chain per slice, so this is a handful of
/// entries where the whole state holds thousands; it is what a delta
/// commit persists in place of the state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OwnerDelta {
    /// `T` entries set: keyword encoding → newest state.
    pub trapdoors: BTreeMap<Vec<u8>, KeywordState>,
    /// `S` entries set: state key → result digest.
    pub set_hashes: BTreeMap<Vec<u8>, [u8; 32]>,
    /// `S` keys removed, each present before the delta applies.
    pub retired: Vec<Vec<u8>>,
}

slicer_crypto::impl_codec!(OwnerDelta {
    trapdoors,
    set_hashes,
    retired,
});

impl OwnerDelta {
    /// Records one keyword's rotation: `old_key` (if any) leaves `S`,
    /// `state_key → hash` enters it and `keyword → state` is set in `T`.
    /// A key set earlier in this same delta is dropped rather than
    /// retired, so the delta always applies to the state it started from.
    pub(crate) fn record(
        &mut self,
        keyword: &[u8],
        state: &KeywordState,
        old_key: Option<&[u8]>,
        state_key: &[u8],
        hash: &[u8; 32],
    ) {
        if let Some(old) = old_key {
            if self.set_hashes.remove(old).is_none() {
                self.retired.push(old.to_vec());
            }
        }
        self.set_hashes.insert(state_key.to_vec(), *hash);
        self.trapdoors.insert(keyword.to_vec(), state.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicer_bignum::BigUint;

    #[test]
    fn user_view_excludes_set_hashes() {
        let mut s = OwnerState::new();
        s.trapdoors.insert(
            b"w".to_vec(),
            KeywordState {
                trapdoor: Trapdoor::from_value(BigUint::from(5u64)),
                updates: 0,
                counter: 1,
            },
        );
        s.set_hashes.insert(b"k".to_vec(), [0u8; 32]);
        let view = s.user_view();
        assert_eq!(view.len(), 1);
        assert!(view.contains_key(b"w".as_slice()));
    }

    fn kw_state(v: u64, updates: u32) -> KeywordState {
        KeywordState {
            trapdoor: Trapdoor::from_value(BigUint::from(v)),
            updates,
            counter: 1,
        }
    }

    #[test]
    fn recorded_deltas_replay_onto_the_starting_state() {
        let h = |b: u8| [b; 32];
        let mut live = OwnerState::new();
        live.trapdoors.insert(b"w".to_vec(), kw_state(1, 0));
        live.set_hashes.insert(b"k0".to_vec(), h(0));
        let start = live.clone();

        // Two rotations of `w` in one delta: k0 is retired, k1 is set
        // and superseded within the delta, k2 survives.
        let mut delta = OwnerDelta::default();
        for (old, new, j) in [(b"k0", b"k1", 1u32), (b"k1", b"k2", 2)] {
            let st = kw_state(10 + u64::from(j), j);
            live.set_hashes.remove(old.as_slice());
            live.set_hashes.insert(new.to_vec(), h(j as u8));
            live.trapdoors.insert(b"w".to_vec(), st.clone());
            delta.record(b"w", &st, Some(old.as_slice()), new, &h(j as u8));
        }
        assert_eq!(delta.retired, vec![b"k0".to_vec()]);

        let mut replayed = start.clone();
        replayed.apply(&delta).unwrap();
        assert_eq!(replayed.trapdoors, live.trapdoors);
        assert_eq!(replayed.set_hashes, live.set_hashes);

        // Applied to a state that lacks the retired key: a typed error.
        let mut wrong = OwnerState::new();
        assert!(matches!(
            wrong.apply(&delta),
            Err(SlicerError::IndexCorruption(_))
        ));
    }
}
