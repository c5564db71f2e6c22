//! The data user: token generation (Algorithm 3) and result decryption.

use crate::config::SlicerConfig;
use crate::error::SlicerError;
use crate::keys::KeySet;
use crate::keyword::Keyword;
use crate::messages::{Query, QueryOp, SearchToken, SliceResult};
use crate::record::RecordId;
use crate::state::KeywordState;
use slicer_crypto::Prf;
use slicer_sore::Order;
use slicer_telemetry::TelemetryHandle;
use std::collections::BTreeMap;

/// An authorized data user.
///
/// Holds the delegated secrets (`K`, `K_R`, trapdoor public key) and a copy
/// of the trapdoor-state dictionary `T`, refreshed by the owner after every
/// insert ([`DataUser::sync_state`]). With `T` in hand the user generates
/// search tokens without contacting the owner — the multi-user setting of
/// Section IV.
#[derive(Debug, Clone)]
pub struct DataUser {
    keys: KeySet,
    config: SlicerConfig,
    states: BTreeMap<Vec<u8>, KeywordState>,
    telemetry: TelemetryHandle,
}

impl DataUser {
    /// Builds a user from delegated material (see
    /// [`crate::DataOwner::delegate`]).
    pub fn new(
        keys: KeySet,
        config: SlicerConfig,
        states: BTreeMap<Vec<u8>, KeywordState>,
    ) -> Self {
        DataUser {
            keys,
            config,
            states,
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Installs a telemetry context; token-generation spans and counters
    /// are recorded through it. Disabled by default.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
    }

    /// Merges the owner's newest `T` entries into the local trapdoor
    /// state. `T` keys are never removed, so the owner may pass its full
    /// view ([`crate::OwnerState::user_view`]) or only the entries an
    /// insert changed ([`crate::OwnerDelta::trapdoors`]).
    pub fn sync_state(&mut self, mut states: BTreeMap<Vec<u8>, KeywordState>) {
        // A few entries insert one by one; a view of comparable size
        // merges faster in one linear pass over both maps.
        if states.len() < self.states.len() / 8 {
            self.states.extend(states);
        } else {
            self.states.append(&mut states);
        }
    }

    /// Generates the search tokens for a query (Algorithm 3). Slices (or
    /// equality values) with no indexed records produce no token — their
    /// absence from `T` already proves an empty result to the user.
    pub fn tokens_for(&self, query: &Query) -> Vec<SearchToken> {
        let mut span = self.telemetry.span("user.tokens");
        let tokens = make_tokens(
            self.keys.prf_g(),
            &self.states,
            self.config.value_bits,
            query,
        );
        self.telemetry
            .count("user.tokens.generated", tokens.len() as u64);
        span.attr("tokens", tokens.len());
        tokens
    }

    /// Decrypts the cloud's per-slice results into record IDs. Order
    /// queries return each matching record exactly once (Theorem 1
    /// guarantees a unique matching slice); the returned list preserves
    /// multiplicity for the dual-instance set difference.
    ///
    /// # Errors
    ///
    /// Returns [`SlicerError::MalformedResult`] if a ciphertext is
    /// malformed or does not decode to a record ID.
    pub fn decrypt(&self, results: &[SliceResult]) -> Result<Vec<RecordId>, SlicerError> {
        let mut span = self.telemetry.span("user.decrypt");
        let mut out = Vec::new();
        for slice in results {
            for er in &slice.er {
                let plain = self.keys.record_key().decrypt(er)?;
                let bytes: [u8; 16] = plain.as_slice().try_into().map_err(|_| {
                    SlicerError::IndexCorruption(format!(
                        "record plaintext of {} bytes, expected 16",
                        plain.len()
                    ))
                })?;
                out.push(RecordId(bytes));
            }
        }
        span.attr("records", out.len());
        Ok(out)
    }

    /// The protocol configuration.
    pub fn config(&self) -> &SlicerConfig {
        &self.config
    }

    /// Number of keyword states currently known.
    pub fn known_keywords(&self) -> usize {
        self.states.len()
    }
}

/// Shared token-generation core (Algorithm 3): maps a user query to the
/// keyword set `W`, looks each keyword up in `T` and emits
/// `(t_j, j, G1, G2)` tokens.
pub(crate) fn make_tokens(
    prf_g: &Prf,
    states: &BTreeMap<Vec<u8>, KeywordState>,
    value_bits: u8,
    query: &Query,
) -> Vec<SearchToken> {
    let keywords: Vec<Vec<u8>> = match query.op {
        QueryOp::Equal => vec![Keyword::Equality {
            attr: query.attr.clone(),
            value: query.value,
        }
        .encode()],
        QueryOp::LessThan | QueryOp::GreaterThan => {
            // Records y with y < v satisfy v > y: the token order condition
            // is the paper's `x oc y` with x the query value.
            let oc = if query.op == QueryOp::LessThan {
                Order::Greater
            } else {
                Order::Less
            };
            slicer_sore::token_tuples(&query.attr, query.value, value_bits, oc)
                .into_iter()
                .map(|t| Keyword::Slice(t).encode())
                .collect()
        }
    };

    keywords
        .into_iter()
        .filter_map(|w| {
            states.get(&w).map(|st| SearchToken {
                trapdoor: st.trapdoor.clone(),
                updates: st.updates,
                g1: prf_g.derive(&w, 1),
                g2: prf_g.derive(&w, 2),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::owner::DataOwner;

    fn built_owner() -> DataOwner {
        let mut o = DataOwner::new(SlicerConfig::test_8bit(), 3);
        let db: Vec<(RecordId, u64)> = (0..30)
            .map(|i| (RecordId::from_u64(i), i * 8 % 256))
            .collect();
        o.build(&db).unwrap();
        o
    }

    #[test]
    fn equality_token_for_existing_value() {
        let o = built_owner();
        let u = o.delegate();
        assert_eq!(u.tokens_for(&Query::equal(8)).len(), 1);
        // 9 is not in the database (multiples of 8 only).
        assert!(u.tokens_for(&Query::equal(9)).is_empty());
    }

    #[test]
    fn order_query_emits_at_most_b_tokens() {
        let o = built_owner();
        let u = o.delegate();
        let tokens = u.tokens_for(&Query::less_than(100));
        assert!(!tokens.is_empty());
        assert!(tokens.len() <= 8);
    }

    #[test]
    fn owner_and_user_tokens_agree() {
        let o = built_owner();
        let u = o.delegate();
        let q = Query::less_than(77);
        assert_eq!(o.search_tokens(&q), u.tokens_for(&q));
    }

    #[test]
    fn stale_user_state_misses_new_keywords() {
        let mut o = DataOwner::new(SlicerConfig::test_8bit(), 3);
        o.build(&[(RecordId::from_u64(1), 10)]).unwrap();
        let stale = o.delegate();
        o.insert(&[(RecordId::from_u64(2), 20)]).unwrap();
        assert!(stale.tokens_for(&Query::equal(20)).is_empty());
        let mut fresh = stale.clone();
        fresh.sync_state(o.state().user_view());
        assert_eq!(fresh.tokens_for(&Query::equal(20)).len(), 1);
    }

    #[test]
    fn incremental_sync_tracks_the_owner_view() {
        let mut chain = slicer_chain::Blockchain::new();
        let mut inst = crate::SlicerInstance::try_setup_with(
            SlicerConfig::test_8bit(),
            5,
            &mut chain,
            slicer_telemetry::TelemetryHandle::disabled(),
        )
        .unwrap();
        let base: Vec<(RecordId, u64)> = (0..20)
            .map(|i| (RecordId::from_u64(i), i * 13 % 256))
            .collect();
        inst.insert(&mut chain, &base).unwrap();
        for i in 20..40u64 {
            // Repeated and fresh values: rotations and new keywords.
            let out = inst
                .insert(&mut chain, &[(RecordId::from_u64(i), i * 7 % 64)])
                .unwrap();
            assert!(out.owner.trapdoors.len() <= 9, "one chain per keyword");
            assert_eq!(inst.user.states, inst.owner.state().user_view());
        }
    }
}
