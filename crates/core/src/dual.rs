//! Deletion and update via the dual-instance construction (Section V-F).
//!
//! Slicer's index is append-only, so deletion runs a *second* full
//! instance: the insert-instance holds every record ever added, the
//! delete-instance holds every record ever deleted, and a query's answer is
//! the multiset difference of the two instances' results. An update is a
//! deletion followed by an insertion of the new value. Re-inserting a live
//! record ID (or deleting a dead one) is rejected, matching the paper's
//! uniqueness rule.

use crate::config::SlicerConfig;
use crate::error::SlicerError;
use crate::messages::Query;
use crate::record::RecordId;
use crate::system::{SearchOutcome, SlicerInstance};
use slicer_chain::Blockchain;
use slicer_telemetry::TelemetryHandle;
use std::collections::BTreeMap;

/// A Slicer deployment with deletion and update support: two instances
/// sharing one blockchain.
///
/// # Examples
///
/// ```
/// use slicer_core::{DualSlicer, Query, RecordId, SlicerConfig};
///
/// let mut dual = DualSlicer::try_setup(SlicerConfig::test_8bit(), 9).unwrap();
/// dual.insert(&[(RecordId::from_u64(1), 50), (RecordId::from_u64(2), 60)]).unwrap();
/// dual.delete(RecordId::from_u64(1)).unwrap();
/// let out = dual.search(&Query::less_than(100), 10).unwrap();
/// assert_eq!(out.records, vec![RecordId::from_u64(2)]);
/// ```
#[derive(Debug)]
pub struct DualSlicer {
    inserts: SlicerInstance,
    deletes: SlicerInstance,
    chain: Blockchain,
    /// Live records: id → value (the owner knows his own plaintext data).
    /// Ordered so shipment and re-encryption order is identical across
    /// runs — the delete/update path feeds insertions back through the
    /// instances, and a `HashMap` here made those transcripts
    /// nondeterministic.
    live: BTreeMap<RecordId, u64>,
}

impl DualSlicer {
    /// Sets up both instances (distinct key material) over a fresh chain.
    ///
    /// # Errors
    ///
    /// Propagates chain failures from either contract deployment.
    pub fn try_setup(config: SlicerConfig, seed: u64) -> Result<Self, SlicerError> {
        let mut chain = Blockchain::new();
        let mut instance = |seed| {
            SlicerInstance::try_setup_with(
                config.clone(),
                seed,
                &mut chain,
                TelemetryHandle::disabled(),
            )
        };
        let inserts = instance(seed.wrapping_mul(2) + 1)?;
        let deletes = instance(seed.wrapping_mul(2) + 2)?;
        Ok(DualSlicer {
            inserts,
            deletes,
            chain,
            live: BTreeMap::new(),
        })
    }

    /// Inserts new records into the insert-instance.
    ///
    /// # Errors
    ///
    /// Returns [`SlicerError::DuplicateRecordId`] if an ID is already live.
    pub fn insert(&mut self, records: &[(RecordId, u64)]) -> Result<(), SlicerError> {
        for (id, _) in records {
            if self.live.contains_key(id) {
                return Err(SlicerError::DuplicateRecordId(*id));
            }
        }
        self.inserts.insert(&mut self.chain, records)?;
        for &(id, v) in records {
            self.live.insert(id, v);
        }
        Ok(())
    }

    /// Deletes a live record by inserting its `(R, v)` pair into the
    /// delete-instance.
    ///
    /// # Errors
    ///
    /// Returns [`SlicerError::UnknownRecordId`] if the ID is not live.
    pub fn delete(&mut self, id: RecordId) -> Result<(), SlicerError> {
        let value = self
            .live
            .remove(&id)
            .ok_or(SlicerError::UnknownRecordId(id))?;
        self.deletes.insert(&mut self.chain, &[(id, value)])?;
        Ok(())
    }

    /// Updates a live record: delete + insert with the new value.
    ///
    /// # Errors
    ///
    /// Returns [`SlicerError::UnknownRecordId`] if the ID is not live.
    pub fn update(&mut self, id: RecordId, new_value: u64) -> Result<(), SlicerError> {
        self.delete(id)?;
        self.inserts.insert(&mut self.chain, &[(id, new_value)])?;
        self.live.insert(id, new_value);
        Ok(())
    }

    /// Number of live records.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Verified search: runs the query on both instances (each verified on
    /// chain) and returns the multiset difference of the results.
    ///
    /// # Errors
    ///
    /// Propagates instance-level errors; `verified` is the conjunction of
    /// both instances' verification outcomes.
    pub fn search(&mut self, query: &Query, payment: u128) -> Result<SearchOutcome, SlicerError> {
        let ins = self.inserts.search(&mut self.chain, query, payment)?;
        let del = self.deletes.search(&mut self.chain, query, payment)?;

        // Multiset difference: each delete-side occurrence cancels one
        // insert-side occurrence (updates re-insert the same ID, so counts
        // matter).
        let mut counts: BTreeMap<RecordId, i64> = BTreeMap::new();
        for id in &ins.records {
            *counts.entry(*id).or_insert(0) += 1;
        }
        for id in &del.records {
            *counts.entry(*id).or_insert(0) -= 1;
        }
        let mut records: Vec<RecordId> = Vec::new();
        for (id, c) in counts {
            debug_assert!(c >= 0, "deleted more copies than inserted");
            for _ in 0..c {
                records.push(id);
            }
        }
        records.sort_unstable();

        let mut profile = ins.profile.clone();
        profile.merge(&del.profile);

        Ok(SearchOutcome {
            records,
            verified: ins.verified && del.verified,
            request_gas: ins.request_gas + del.request_gas,
            verify_gas: ins.verify_gas + del.verify_gas,
            paid_cloud: ins.paid_cloud || del.paid_cloud,
            profile,
            trace_id: ins.trace_id,
        })
    }

    /// The shared chain (for balance and block inspection).
    pub fn chain(&self) -> &Blockchain {
        &self.chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(outcome: &SearchOutcome) -> Vec<u64> {
        outcome
            .records
            .iter()
            .map(|r| r.as_u64().unwrap())
            .collect()
    }

    fn dual() -> DualSlicer {
        DualSlicer::try_setup(SlicerConfig::test_8bit(), 21).unwrap()
    }

    #[test]
    fn delete_removes_from_results() {
        let mut d = dual();
        d.insert(&[
            (RecordId::from_u64(1), 10),
            (RecordId::from_u64(2), 20),
            (RecordId::from_u64(3), 30),
        ])
        .unwrap();
        d.delete(RecordId::from_u64(2)).unwrap();
        let out = d.search(&Query::less_than(100), 5).unwrap();
        assert!(out.verified);
        assert_eq!(ids(&out), vec![1, 3]);
    }

    #[test]
    fn update_changes_matching_set() {
        let mut d = dual();
        d.insert(&[(RecordId::from_u64(1), 10)]).unwrap();
        d.update(RecordId::from_u64(1), 200).unwrap();
        let low = d.search(&Query::less_than(100), 5).unwrap();
        assert!(low.records.is_empty(), "old value no longer matches");
        let high = d.search(&Query::greater_than(100), 5).unwrap();
        assert_eq!(ids(&high), vec![1], "new value matches");
    }

    #[test]
    fn update_where_both_values_match_keeps_record_once() {
        let mut d = dual();
        d.insert(&[(RecordId::from_u64(1), 10)]).unwrap();
        d.update(RecordId::from_u64(1), 20).unwrap();
        // Both 10 and 20 are < 100: insert-side count 2, delete-side 1.
        let out = d.search(&Query::less_than(100), 5).unwrap();
        assert_eq!(ids(&out), vec![1]);
    }

    #[test]
    fn reinsert_live_id_rejected() {
        let mut d = dual();
        d.insert(&[(RecordId::from_u64(1), 10)]).unwrap();
        assert!(matches!(
            d.insert(&[(RecordId::from_u64(1), 11)]),
            Err(SlicerError::DuplicateRecordId(_))
        ));
    }

    #[test]
    fn delete_unknown_id_rejected() {
        let mut d = dual();
        assert!(matches!(
            d.delete(RecordId::from_u64(9)),
            Err(SlicerError::UnknownRecordId(_))
        ));
    }

    #[test]
    fn delete_then_reinsert_same_id_allowed() {
        let mut d = dual();
        d.insert(&[(RecordId::from_u64(1), 10)]).unwrap();
        d.delete(RecordId::from_u64(1)).unwrap();
        d.insert(&[(RecordId::from_u64(1), 30)]).unwrap();
        let out = d.search(&Query::less_than(100), 5).unwrap();
        assert_eq!(ids(&out), vec![1]);
        assert_eq!(d.live_count(), 1);
    }
}
