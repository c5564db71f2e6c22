//! The data owner: `KGen`, `Build` (Algorithm 1) and `Insert` (Algorithm 2).

use crate::config::SlicerConfig;
use crate::error::SlicerError;
use crate::keys::KeySet;
use crate::keyword::Keyword;
use crate::messages::{BuildOutput, Query, SearchToken};
use crate::record::{Record, RecordId};
use crate::state::{KeywordState, OwnerDelta, OwnerState};
use crate::user::DataUser;
use slicer_accumulator::{hash_to_prime, result_digest_step, EMPTY_RESULT_DIGEST};
use slicer_bignum::BigUint;
use slicer_crypto::Prf;
use slicer_par::Pool;
use slicer_store::IndexLabel;
use slicer_telemetry::{Clock, MonotonicClock, TelemetryHandle};
use slicer_trapdoor::Trapdoor;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// The clock protocol-side timing should follow for a given telemetry
/// context: the handle's own clock when live (so `BuildTiming` and
/// `SearchProfile` walls are deterministic under a
/// [`slicer_telemetry::LogicalClock`]), a fresh monotonic clock when
/// disabled (real wall time, no `std::time` in protocol code).
pub(crate) fn timing_clock(telemetry: &TelemetryHandle) -> Arc<dyn Clock> {
    telemetry
        .clock()
        .unwrap_or_else(|| Arc::new(MonotonicClock::new()))
}

/// The data owner. Holds all secrets, the trapdoor/set-hash state and the
/// running accumulator value.
///
/// # Examples
///
/// ```
/// use slicer_core::{DataOwner, RecordId, SlicerConfig};
/// let mut owner = DataOwner::new(SlicerConfig::test_8bit(), 1);
/// let out = owner
///     .build(&[(RecordId::from_u64(1), 41), (RecordId::from_u64(2), 200)])
///     .unwrap();
/// assert!(!out.entries.is_empty());
/// ```
#[derive(Debug)]
pub struct DataOwner {
    config: SlicerConfig,
    keys: KeySet,
    state: OwnerState,
    /// Changes to `state` not yet handed out by [`DataOwner::take_delta`].
    delta: OwnerDelta,
    accumulator: BigUint,
    built: bool,
    telemetry: TelemetryHandle,
    clock: Arc<dyn Clock>,
    pool: Pool,
}

/// Per-keyword output of the build/insert inner loop.
struct KeywordOutput {
    keyword: Vec<u8>,
    entries: Vec<(IndexLabel, Vec<u8>)>,
    new_state: KeywordState,
    state_key: Vec<u8>,
    old_state_key: Option<Vec<u8>>,
    hash_delta: Vec<Vec<u8>>,
}

impl DataOwner {
    /// Creates an owner with keys derived from `seed`.
    pub fn new(config: SlicerConfig, seed: u64) -> Self {
        let keys = KeySet::from_seed(seed, config.trapdoor_bits);
        let accumulator = config.accumulator.generator().clone();
        let pool = Pool::new(config.workers);
        DataOwner {
            config,
            keys,
            state: OwnerState::new(),
            delta: OwnerDelta::default(),
            accumulator,
            built: false,
            telemetry: TelemetryHandle::disabled(),
            clock: timing_clock(&TelemetryHandle::disabled()),
            pool,
        }
    }

    /// Reconstructs an owner from persisted state: keys are re-derived
    /// from `seed` (the key schedule is fully deterministic), while `T`,
    /// `S` and the running accumulator value come from the snapshot. The
    /// owner resumes exactly where it left off — further inserts rotate
    /// the restored trapdoors and fold into the restored accumulator.
    pub fn restore(
        config: SlicerConfig,
        seed: u64,
        state: OwnerState,
        accumulator: BigUint,
    ) -> Self {
        let mut owner = DataOwner::new(config, seed);
        owner.state = state;
        owner.accumulator = accumulator;
        // A snapshot is only ever taken after a build, so the restored
        // owner routes further shipments through `insert`.
        owner.built = true;
        owner
    }

    /// Installs a telemetry context; build/insert spans and counters are
    /// recorded through it, and `BuildTiming` follows its clock. Disabled
    /// by default.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.clock = timing_clock(&telemetry);
        self.pool.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The protocol configuration.
    pub fn config(&self) -> &SlicerConfig {
        &self.config
    }

    /// The owner's key set (handed to authorized users via
    /// [`DataOwner::delegate`]).
    pub fn keys(&self) -> &KeySet {
        &self.keys
    }

    /// The current accumulation value `Ac`.
    pub fn accumulator(&self) -> &BigUint {
        &self.accumulator
    }

    /// The owner state (`T` and `S`).
    pub fn state(&self) -> &OwnerState {
        &self.state
    }

    /// Hands out what builds and inserts changed in [`DataOwner::state`]
    /// since the last call (or since construction or restore), leaving
    /// nothing behind: the state as of the last call, with the returned
    /// delta applied ([`OwnerState::apply`]), is the current state.
    pub fn take_delta(&mut self) -> OwnerDelta {
        std::mem::take(&mut self.delta)
    }

    /// Derives all SSE keywords of a record: the equality keyword per
    /// attribute plus the `b` SORE slices per attribute.
    fn keywords_for(&self, attr: &[u8], value: u64) -> Vec<Keyword> {
        let mut out = Vec::with_capacity(1 + self.config.value_bits as usize);
        out.push(Keyword::Equality {
            attr: attr.to_vec(),
            value,
        });
        for t in slicer_sore::cipher_tuples(attr, value, self.config.value_bits) {
            out.push(Keyword::Slice(t));
        }
        out
    }

    /// `Build` (Algorithm 1) over single-attribute `(id, value)` pairs or
    /// multi-attribute [`Record`]s (Section V-F).
    ///
    /// # Errors
    ///
    /// Returns [`SlicerError::ValueOutOfDomain`] if any value exceeds the
    /// configured bit width, or [`SlicerError::AlreadyBuilt`] on a second
    /// call (use [`DataOwner::insert`] for updates).
    pub fn build<R: Clone + Into<Record>>(&mut self, db: &[R]) -> Result<BuildOutput, SlicerError> {
        if self.built {
            return Err(SlicerError::AlreadyBuilt);
        }
        let out = self.process(&records(db))?;
        self.built = true;
        Ok(out)
    }

    /// Forward-secure `Insert` (Algorithm 2) of `(id, value)` pairs or
    /// [`Record`]s.
    ///
    /// # Errors
    ///
    /// Returns [`SlicerError::ValueOutOfDomain`] for out-of-range values.
    pub fn insert<R: Clone + Into<Record>>(
        &mut self,
        db_plus: &[R],
    ) -> Result<BuildOutput, SlicerError> {
        self.built = true; // inserting into an empty instance is permitted
        self.process(&records(db_plus))
    }

    /// Shared core of Algorithms 1 and 2.
    fn process(&mut self, records: &[Record]) -> Result<BuildOutput, SlicerError> {
        // Telemetry stays out of process_keyword: the parallel path would
        // record in nondeterministic order. Spans wrap the two sequential
        // stages; counters flush once at merge time.
        let mut span_index = self.telemetry.span("owner.build.index");
        let index_start = self.clock.now_nanos();
        // Group record IDs by keyword encoding (DB(w)). An ordered map, so
        // builds iterate keywords in one reproducible order.
        let mut groups: BTreeMap<Vec<u8>, Vec<RecordId>> = BTreeMap::new();
        for rec in records {
            for (attr, value) in &rec.attrs {
                if *value > self.config.max_value() {
                    return Err(SlicerError::ValueOutOfDomain {
                        value: *value,
                        bits: self.config.value_bits,
                    });
                }
                for kw in self.keywords_for(attr.as_bytes(), *value) {
                    groups.entry(kw.encode()).or_default().push(rec.id);
                }
            }
        }

        // Independent keyword groups fan out over the deterministic pool;
        // ordered join keeps the output in keyword order.
        let items: Vec<(&Vec<u8>, &Vec<RecordId>)> = groups.iter().collect();
        let outputs: Vec<KeywordOutput> = self
            .pool
            .par_map(&items, |(w, ids)| self.process_keyword(w, ids));

        let index_time = Duration::from_nanos(self.clock.now_nanos().saturating_sub(index_start));
        span_index.attr("keywords", groups.len());
        drop(span_index);
        let mut span_ads = self.telemetry.span("owner.build.ads");
        let ads_start = self.clock.now_nanos();

        // Merge, stage 1 (parallel, read-only on the owner state): per
        // keyword, prepend the new generation to the result digest and
        // derive the prime representative. The cloud returns the newest
        // generation first, counters ascending, so the generation folds in
        // from its last counter to its first.
        let hashed: Vec<Result<([u8; 32], BigUint), SlicerError>> =
            self.pool.par_map(&outputs, |out| {
                let mut h = match &out.old_state_key {
                    Some(old) => *self.state.set_hashes.get(old).ok_or_else(|| {
                        SlicerError::IndexCorruption("old state key missing from S".into())
                    })?,
                    None => EMPTY_RESULT_DIGEST,
                };
                for enc in out.hash_delta.iter().rev() {
                    h = result_digest_step(enc, &h);
                }
                let mut material = out.state_key.clone();
                material.extend_from_slice(&h);
                let x = hash_to_prime(&material, self.config.prime_bits)
                    .map_err(|e| SlicerError::IndexCorruption(e.to_string()))?;
                Ok((h, x))
            });

        // Merge, stage 2 (sequential): update T and S, then fold every new
        // prime into the accumulator with one chunked product pass.
        let mut entries = Vec::with_capacity(outputs.iter().map(|o| o.entries.len()).sum());
        let mut primes = Vec::with_capacity(outputs.len());
        for (out, res) in outputs.into_iter().zip(hashed) {
            let (h, x) = res?;
            if let Some(old) = &out.old_state_key {
                self.state.set_hashes.remove(old);
            }
            self.delta.record(
                &out.keyword,
                &out.new_state,
                out.old_state_key.as_deref(),
                &out.state_key,
                &h,
            );
            primes.push(x);
            self.state.set_hashes.insert(out.state_key, h);
            self.state.trapdoors.insert(out.keyword, out.new_state);
            entries.extend(out.entries);
        }
        self.accumulator = self
            .config
            .accumulator
            .powmod_product(&self.accumulator, &primes);

        span_ads.attr("entries", entries.len());
        drop(span_ads);
        self.telemetry
            .count("owner.entries.emitted", entries.len() as u64);
        self.telemetry
            .count("owner.primes.accumulated", primes.len() as u64);
        self.telemetry
            .count("owner.records.processed", records.len() as u64);

        Ok(BuildOutput {
            entries,
            primes,
            accumulator: self.accumulator.clone(),
            timing: crate::messages::BuildTiming {
                index: index_time,
                ads: Duration::from_nanos(self.clock.now_nanos().saturating_sub(ads_start)),
            },
        })
    }

    /// Processes one keyword group: trapdoor rotation, index entries and
    /// the encrypted-record hash delta.
    fn process_keyword(&self, w: &[u8], record_ids: &[RecordId]) -> KeywordOutput {
        let (g1, g2) = self.keys.keyword_keys(w);
        let width = self.keys.trapdoor().public().trapdoor_bytes();

        // Trapdoor state: fresh keyword → derived initial trapdoor; known
        // keyword → step backwards with the secret permutation (forward
        // security: the server cannot link the new generation to the old).
        let (trapdoor, updates, old_state_key) = match self.state.trapdoors.get(w) {
            None => (self.derive_initial_trapdoor(w), 0u32, None),
            Some(st) => {
                let old_key = state_key(&st.trapdoor.to_bytes(width), st.updates, &g1, &g2);
                (
                    self.keys.trapdoor().invert(&st.trapdoor),
                    st.updates + 1,
                    Some(old_key),
                )
            }
        };

        let t_bytes = trapdoor.to_bytes(width);
        // The trapdoor prefix is fixed for the whole generation: absorb it
        // into each PRF midstate once instead of re-hashing it per counter.
        let f1 = Prf::new(&g1).stream(&t_bytes);
        let f2 = Prf::new(&g2).stream(&t_bytes);
        let fg = self.keys.prf_g().stream(&t_bytes);
        let mut entries = Vec::with_capacity(record_ids.len());
        let mut hash_delta = Vec::with_capacity(record_ids.len());
        for (c, rid) in record_ids.iter().enumerate() {
            let c_bytes = (c as u64).to_be_bytes();
            let label: IndexLabel = f1.eval(&c_bytes);
            let pad = f2.eval(&c_bytes);
            // Enc(K_R, R) with a nonce derived per (keyword, generation,
            // counter) — unique slots, so CTR nonces never repeat.
            let nonce = fg.eval128(&c_bytes);
            let enc = self.keys.record_key().encrypt(rid.as_bytes(), &nonce);
            debug_assert_eq!(enc.len(), 32);
            let d: Vec<u8> = enc.iter().zip(pad.iter()).map(|(e, p)| e ^ p).collect();
            entries.push((label, d));
            hash_delta.push(enc);
        }

        let new_state = KeywordState {
            trapdoor,
            updates,
            counter: record_ids.len() as u64,
        };
        KeywordOutput {
            keyword: w.to_vec(),
            state_key: state_key(&t_bytes, updates, &g1, &g2),
            old_state_key,
            entries,
            new_state,
            hash_delta,
        }
    }

    /// Initial trapdoor `t_0` for a fresh keyword, derived from the owner's
    /// secret salt (a PRF modelled as a random oracle; deterministic so the
    /// parallel build needs no shared RNG).
    fn derive_initial_trapdoor(&self, w: &[u8]) -> Trapdoor {
        let n = self.keys.trapdoor().public().modulus();
        let wide = [
            self.keys.trapdoor_salt().eval(w),
            self.keys.trapdoor_salt().derive(w, 0x54),
        ]
        .concat();
        Trapdoor::from_value(&BigUint::from_bytes_be(&wide) % n)
    }

    /// Generates search tokens (Algorithm 3). Owners can search their own
    /// data; multi-user search goes through [`DataUser`].
    pub fn search_tokens(&self, query: &Query) -> Vec<SearchToken> {
        crate::user::make_tokens(
            self.keys.prf_g(),
            &self.state.trapdoors,
            self.config.value_bits,
            query,
        )
    }

    /// Delegates search capability: builds a [`DataUser`] holding `K`,
    /// `K_R`, the trapdoor public key and the current `T`.
    pub fn delegate(&self) -> DataUser {
        let mut user = DataUser::new(
            self.keys.clone(),
            self.config.clone(),
            self.state.user_view(),
        );
        user.set_telemetry(self.telemetry.clone());
        user
    }
}

/// Converts an owner input batch to records.
fn records<R: Clone + Into<Record>>(db: &[R]) -> Vec<Record> {
    db.iter().cloned().map(Into::into).collect()
}

/// The keyword-state key `t ‖ j ‖ G1 ‖ G2` indexing `S` and feeding
/// `H_prime`.
pub(crate) fn state_key(t_bytes: &[u8], j: u32, g1: &[u8; 32], g2: &[u8; 32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(t_bytes.len() + 4 + 64);
    out.extend_from_slice(t_bytes);
    out.extend_from_slice(&j.to_be_bytes());
    out.extend_from_slice(g1);
    out.extend_from_slice(g2);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owner() -> DataOwner {
        DataOwner::new(SlicerConfig::test_8bit(), 7)
    }

    fn db(n: u64) -> Vec<(RecordId, u64)> {
        (0..n)
            .map(|i| (RecordId::from_u64(i), (i * 37) % 256))
            .collect()
    }

    #[test]
    fn build_emits_one_entry_per_record_keyword() {
        let mut o = owner();
        let out = o.build(&db(10)).unwrap();
        // 10 records × (1 equality + 8 slices) keywords.
        assert_eq!(out.entries.len(), 10 * 9);
        // Primes: one per distinct keyword state.
        assert_eq!(out.primes.len(), o.state().trapdoors.len());
    }

    #[test]
    fn build_twice_rejected() {
        let mut o = owner();
        o.build(&db(3)).unwrap();
        assert!(matches!(o.build(&db(3)), Err(SlicerError::AlreadyBuilt)));
    }

    #[test]
    fn out_of_domain_value_rejected() {
        let mut o = owner();
        let err = o.build(&[(RecordId::from_u64(1), 300)]).unwrap_err();
        assert!(matches!(
            err,
            SlicerError::ValueOutOfDomain {
                value: 300,
                bits: 8
            }
        ));
    }

    #[test]
    fn insert_rotates_trapdoors_of_touched_keywords() {
        let mut o = owner();
        o.build(&[(RecordId::from_u64(1), 42)]).unwrap();
        let kw = Keyword::Equality {
            attr: vec![],
            value: 42,
        }
        .encode();
        let before = o.state().trapdoors[&kw].clone();
        o.insert(&[(RecordId::from_u64(2), 42)]).unwrap();
        let after = &o.state().trapdoors[&kw];
        assert_eq!(after.updates, before.updates + 1);
        assert_ne!(after.trapdoor, before.trapdoor);
        // The old trapdoor is recoverable by walking the public permutation
        // forwards — that is what the cloud does during search.
        let pk = o.keys().trapdoor().public();
        assert_eq!(pk.forward(&after.trapdoor), before.trapdoor);
    }

    #[test]
    fn accumulator_changes_on_every_batch() {
        let mut o = owner();
        let a0 = o.accumulator().clone();
        o.build(&db(3)).unwrap();
        let a1 = o.accumulator().clone();
        assert_ne!(a0, a1);
        o.insert(&db(2)).unwrap();
        assert_ne!(&a1, o.accumulator());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut o1 = DataOwner::new(SlicerConfig::test_8bit(), 99);
        let mut o2 = DataOwner::new(SlicerConfig::test_8bit(), 99);
        let out1 = o1.build(&db(20)).unwrap();
        let out2 = o2.build(&db(20)).unwrap();
        assert_eq!(out1.accumulator, out2.accumulator);
        assert_eq!(out1.entries, out2.entries);
        assert_eq!(out1.primes, out2.primes);

        // `(id, value)` pairs and the single-attribute records they convert
        // to are one input: Build and then Insert give byte-identical
        // shipments, owner state and accumulator.
        use slicer_crypto::codec::to_bytes;
        let single = |db: &[(RecordId, u64)]| -> Vec<Record> {
            db.iter().map(|&(id, v)| Record::single(id, v)).collect()
        };
        let mut o3 = DataOwner::new(SlicerConfig::test_8bit(), 99);
        let out3 = o3.build(&single(&db(20))).unwrap();
        assert_eq!(to_bytes(&out3).unwrap(), to_bytes(&out1).unwrap());
        let extra = [(RecordId::from_u64(500), 42), (RecordId::from_u64(501), 7)];
        let ins1 = o1.insert(&extra).unwrap();
        let ins3 = o3.insert(&single(&extra)).unwrap();
        assert_eq!(to_bytes(&ins3).unwrap(), to_bytes(&ins1).unwrap());
        assert_eq!(o3.accumulator(), o1.accumulator());
        assert_eq!(to_bytes(o3.state()).unwrap(), to_bytes(o1.state()).unwrap());
    }

    #[test]
    fn parallel_path_matches_serial() {
        // >64 distinct keywords triggers the parallel path; a second owner
        // with the same seed but a tiny DB plus manual grouping confirms
        // equality through determinism of the whole pipeline instead.
        let mut big1 = DataOwner::new(SlicerConfig::test_16bit(), 5);
        let mut big2 = DataOwner::new(SlicerConfig::test_16bit(), 5);
        let data: Vec<(RecordId, u64)> = (0..200)
            .map(|i| (RecordId::from_u64(i), i * 13 % 65536))
            .collect();
        let o1 = big1.build(&data).unwrap();
        let o2 = big2.build(&data).unwrap();
        assert_eq!(o1.accumulator, o2.accumulator);
        assert_eq!(o1.entries.len(), o2.entries.len());
    }

    #[test]
    fn multi_attribute_records_index_each_attr() {
        let mut o = owner();
        let rec = Record::with_attrs(
            RecordId::from_u64(1),
            vec![("age".into(), 30), ("score".into(), 90)],
        );
        let out = o.build(&[rec]).unwrap();
        // 2 attributes × 9 keywords.
        assert_eq!(out.entries.len(), 18);
    }
}
