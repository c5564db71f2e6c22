//! The cloud server: search and VO generation (Algorithm 4), plus the
//! malicious behaviours exercised by the failure-injection tests.

use crate::config::SlicerConfig;
use crate::error::SlicerError;
use crate::messages::{BuildOutput, CloudResponse, SearchToken, SliceResult};
use crate::owner::state_key;
use slicer_accumulator::{
    hash_to_prime_counted, result_digest, result_digest_step, witness, AccumulatorError,
    EMPTY_RESULT_DIGEST,
};
use slicer_bignum::BigUint;
use slicer_crypto::{sha256, Prf};
use slicer_par::Pool;
use slicer_store::CloudState;
use slicer_telemetry::{Span, TelemetryHandle};
use slicer_trapdoor::{Trapdoor, TrapdoorPublic};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// How the cloud generates membership witnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WitnessStrategy {
    /// One direct `O(|X|)` fold per token — what the paper's prototype
    /// does; its cost grows with the record count (Fig. 5b/5d).
    Direct,
    /// All of a query's tokens from a long-lived [`witness::BatchProver`]:
    /// a target proven before is served from the prover's kept witness;
    /// for any other, the cached base of the leaf it falls in (at most
    /// [`witness::LEAF`] primes) is raised by the leaf's other primes,
    /// then split among the leaf's targets.
    #[default]
    Batched,
}

/// The (honest) cloud server.
///
/// Stores the encrypted index, prime list and accumulator digest shipped by
/// the owner, executes the trapdoor-walk search of Algorithm 4 and produces
/// membership witnesses for the on-chain verification.
#[derive(Debug)]
pub struct CloudServer {
    config: SlicerConfig,
    state: CloudState,
    trapdoor_pk: TrapdoorPublic,
    strategy: WitnessStrategy,
    /// Built on the first batched `prove`, never at ingest or restore and
    /// never persisted: its leaves cost about `log2(|X| / LEAF)` full
    /// witness folds to build, which set-up and restore should not pay
    /// for a cloud that may never search. It keeps every witness it
    /// handed out, so a repeated target costs a lookup, or a catch-up
    /// with the primes ingested since; a rebuild drops them with it.
    prover: Option<witness::BatchProver>,
    /// The last answer [`CloudServer::respond`] gave per keyword `(G1, G2)`
    /// (DESIGN §10, "Kept answers"). Like the prover it lives and dies
    /// with the cloud, never persisted.
    kept: BTreeMap<([u8; 32], [u8; 32]), KeptAnswer>,
    telemetry: TelemetryHandle,
    pool: Pool,
}

/// A keyword's last answer at `j` updates. Generations `0..=j` never
/// change once shipped, so it is a suffix of every later answer, and a
/// token that reaches `t_j` at generation `j` only walks the generations
/// added since.
#[derive(Debug)]
struct KeptAnswer {
    updates: u32,
    trapdoor: Trapdoor,
    er: Vec<Vec<u8>>,
    digest: [u8; 32],
    prime: BigUint,
    hint: u16,
}

/// One token's answer before its prime is known.
enum Answer {
    /// An exact repeat of a kept answer: nothing left to derive.
    Kept {
        er: Vec<Vec<u8>>,
        digest: [u8; 32],
        prime: BigUint,
        hint: u16,
    },
    /// A walked answer: its first `fresh` ciphertexts, folded onto `base`
    /// from the last to the first, give its digest.
    Walked {
        er: Vec<Vec<u8>>,
        fresh: usize,
        base: [u8; 32],
    },
}

impl Answer {
    /// The full walk's answer: every ciphertext is fresh.
    fn full(er: Vec<Vec<u8>>) -> Self {
        let fresh = er.len();
        Answer::Walked {
            er,
            fresh,
            base: EMPTY_RESULT_DIGEST,
        }
    }
}

impl CloudServer {
    /// A fresh cloud bound to the owner's trapdoor public key.
    pub fn new(config: SlicerConfig, trapdoor_pk: TrapdoorPublic) -> Self {
        Self::from_state(config, trapdoor_pk, CloudState::new())
    }

    /// Restores a cloud from persisted state (see
    /// [`slicer_crypto::codec`]): a crashed or migrated cloud resumes
    /// serving from the deserialized index and prime list.
    pub fn from_state(
        config: SlicerConfig,
        trapdoor_pk: TrapdoorPublic,
        state: CloudState,
    ) -> Self {
        let pool = Pool::new(config.workers);
        CloudServer {
            config,
            state,
            trapdoor_pk,
            strategy: WitnessStrategy::default(),
            prover: None,
            kept: BTreeMap::new(),
            telemetry: TelemetryHandle::disabled(),
            pool,
        }
    }

    /// Installs a telemetry context; search/prove spans and index-lookup
    /// counters are recorded through it. Disabled by default.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.pool.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Selects the witness-generation strategy.
    pub fn set_strategy(&mut self, strategy: WitnessStrategy) {
        self.strategy = strategy;
    }

    /// The stored state (index, primes, accumulator digest).
    pub fn storage(&self) -> &CloudState {
        &self.state
    }

    /// Ingests a `Build`/`Insert` shipment `(I, X, Ac)`.
    ///
    /// # Errors
    ///
    /// Returns [`SlicerError::IndexCorruption`] if the shipment repeats a
    /// prime or an index label, of the state or its own. A refused
    /// shipment leaves `I`, `X` and `Ac` as they were.
    pub fn ingest(&mut self, output: &BuildOutput) -> Result<(), SlicerError> {
        let mut span = self.telemetry.span("store.extend");
        span.attr("entries", output.entries.len());
        // `X` holds each accumulated prime once: the prover's accumulator
        // equals `Ac` only then.
        let mut shipped = BTreeSet::new();
        let primes = &self.state.primes;
        if !output
            .primes
            .iter()
            .all(|x| primes.position(x).is_none() && shipped.insert(x))
        {
            return Err(SlicerError::IndexCorruption(
                "shipment repeats a prime".into(),
            ));
        }
        self.state
            .index
            .extend(output.entries.iter().cloned())
            .map_err(|e| SlicerError::IndexCorruption(e.to_string()))?;
        for x in &output.primes {
            self.state.primes.push(x.clone());
        }
        self.state.accumulator = Some(output.accumulator.clone());
        Ok(())
    }

    /// Algorithm 4's index walk for one token: from the newest trapdoor
    /// `t_j` down to `t_0`, scanning counters until the first miss in each
    /// generation.
    ///
    /// Given a kept answer's `(j', t_j')` with `j' < j`, the walk stops
    /// before generation `j'` if `forward` reaches `t_j'` there. Returns
    /// the ciphertexts found and whether it stopped so.
    fn walk(&self, token: &SearchToken, join: Option<(u32, &Trapdoor)>) -> (Vec<Vec<u8>>, bool) {
        let width = self.trapdoor_pk.trapdoor_bytes();
        let f1 = Prf::new(&token.g1);
        let f2 = Prf::new(&token.g2);
        let mut er = Vec::new();
        let mut t: Trapdoor = token.trapdoor.clone();
        let mut gen = token.updates;
        let mut walked: u64 = 0;
        let joined = loop {
            let t_bytes = t.to_bytes(width);
            // One generation shares its trapdoor prefix: absorb it into
            // the PRF midstates once, then walk counters.
            let f1t = f1.stream(&t_bytes);
            let f2t = f2.stream(&t_bytes);
            let mut c: u64 = 0;
            while let Some(d) = self.state.index.get(&f1t.eval(&c.to_be_bytes())) {
                let pad = f2t.eval(&c.to_be_bytes());
                er.push(d.iter().zip(pad.iter()).map(|(x, p)| x ^ p).collect());
                c += 1;
            }
            walked += 1;
            if gen == 0 {
                break false;
            }
            gen -= 1;
            t = self.trapdoor_pk.forward(&t);
            if join.is_some_and(|(g, tg)| g == gen && t == *tg) {
                break true;
            }
        };
        // Every matched counter is a hit; every generation's walk ends on
        // exactly one miss.
        self.telemetry.count("cloud.index.hits", er.len() as u64);
        self.telemetry.count("cloud.index.misses", walked);
        (er, joined)
    }

    /// Records exactly the server's view of one token on its span:
    /// generations, entries recovered, the token's identity fingerprint
    /// and how many generations a kept answer served — `L^search` and
    /// `L^repeat`, no more.
    fn record_token(span: &mut Span, token: &SearchToken, hits: usize, kept: u32) {
        if span.is_recording() {
            span.attr("token.updates", token.updates);
            span.attr("token.hits", hits);
            span.attr("token.fp", token_fingerprint(token));
            span.attr("kept", kept);
        }
    }

    /// Algorithm 4's full walk for one token.
    fn search_one(&self, token: &SearchToken) -> SliceResult {
        let mut span = self.telemetry.span("cloud.token");
        let (er, _) = self.walk(token, None);
        Self::record_token(&mut span, token, er.len(), 0);
        SliceResult {
            token: token.clone(),
            er,
        }
    }

    /// One token's answer by the cheapest route: an exact repeat of the
    /// keyword's kept answer, a join onto it, or the full walk.
    fn answer(&mut self, token: &SearchToken) -> Answer {
        let mut span = self.telemetry.span("cloud.token");
        let (answer, kept) = match self.kept.entry((token.g1, token.g2)) {
            Entry::Occupied(k)
                if k.get().updates == token.updates && k.get().trapdoor == token.trapdoor =>
            {
                let k = k.get();
                let answer = Answer::Kept {
                    er: k.er.clone(),
                    digest: k.digest,
                    prime: k.prime.clone(),
                    hint: k.hint,
                };
                (answer, k.updates + 1)
            }
            Entry::Occupied(k) if k.get().updates < token.updates => {
                let k = k.remove();
                match self.walk(token, Some((k.updates, &k.trapdoor))) {
                    (mut er, true) => {
                        let fresh = er.len();
                        er.extend(k.er);
                        let base = k.digest;
                        (Answer::Walked { er, fresh, base }, k.updates + 1)
                    }
                    (er, false) => (Answer::full(er), 0),
                }
            }
            _ => (Answer::full(self.walk(token, None).0), 0),
        };
        let hits = match &answer {
            Answer::Kept { er, .. } | Answer::Walked { er, .. } => er.len(),
        };
        Self::record_token(&mut span, token, hits, kept);
        answer
    }

    /// Searches all tokens of a query.
    pub fn search(&self, tokens: &[SearchToken]) -> Vec<SliceResult> {
        let mut span = self.telemetry.span("cloud.search");
        span.attr("tokens", tokens.len());
        tokens.iter().map(|t| self.search_one(t)).collect()
    }

    /// Derives the prime representative a slice result must prove,
    /// `x = H_prime(t_j ‖ j ‖ G1 ‖ G2 ‖ h)` with `h` the ordered digest of
    /// `er` ([`result_digest`]), and its walk index: the
    /// hint that lets the contract check one candidate instead of walking.
    ///
    /// # Errors
    ///
    /// Returns [`SlicerError::IndexCorruption`] if the configured prime
    /// width is outside the supported range — misconfiguration, not a
    /// property of the result — and [`SlicerError::HintOutOfRange`] if
    /// the walk index does not fit the contract's `u16` hint.
    pub fn prime_for(&self, result: &SliceResult) -> Result<(BigUint, u16), SlicerError> {
        self.prime_of(&result.token, &result_digest(&result.er))
    }

    /// [`CloudServer::prime_for`] given the digest `h` of the result.
    fn prime_of(&self, token: &SearchToken, h: &[u8; 32]) -> Result<(BigUint, u16), SlicerError> {
        let width = self.trapdoor_pk.trapdoor_bytes();
        let mut material = state_key(
            &token.trapdoor.to_bytes(width),
            token.updates,
            &token.g1,
            &token.g2,
        );
        material.extend_from_slice(h);
        let (x, index) = hash_to_prime_counted(&material, self.config.prime_bits)
            .map_err(|e| SlicerError::IndexCorruption(e.to_string()))?;
        let hint = u16::try_from(index).map_err(|_| SlicerError::HintOutOfRange(index))?;
        Ok((x, hint))
    }

    /// Generates verification objects for a batch of slice results
    /// (`MemWit` of Section III-B), using the configured strategy, each
    /// with the `H_prime` hint of its prime.
    ///
    /// # Errors
    ///
    /// Returns [`SlicerError::UnaccumulatedResult`] if a result's prime is
    /// not in the stored prime list — its token's trapdoor is not on its
    /// keyword's chain, so the owner never accumulated that answer —
    /// [`SlicerError::IndexCorruption`] when witness generation fails on
    /// the cloud's own state, and [`SlicerError::HintOutOfRange`] as
    /// [`CloudServer::prime_for`] does.
    pub fn prove(&mut self, results: &[SliceResult]) -> Result<Vec<(Vec<u8>, u16)>, SlicerError> {
        let mut span = self.telemetry.span("cloud.prove");
        // Per-result prime derivation (digest + H_prime) is independent:
        // fan it out over the pool. prime_for emits no telemetry, so the
        // transcript stays worker-count independent.
        let primes = self
            .pool
            .run(results, |r| self.prime_for(r))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        let proofs = self.witnesses_for(&primes)?;
        span.attr("witnesses", proofs.len());
        Ok(proofs)
    }

    /// The tail [`CloudServer::prove`] and [`CloudServer::respond`] share:
    /// each prime's membership witness in `X`, padded to the element
    /// width, with the prime's hint.
    fn witnesses_for(
        &mut self,
        primes: &[(BigUint, u16)],
    ) -> Result<Vec<(Vec<u8>, u16)>, SlicerError> {
        let targets: Vec<usize> = primes
            .iter()
            .enumerate()
            .map(|(index, (x, _))| {
                self.state
                    .primes
                    .position(x)
                    .ok_or(SlicerError::UnaccumulatedResult { index })
            })
            .collect::<Result<_, _>>()?;
        let params = &self.config.accumulator;
        let elem = params.element_bytes();
        let witnesses = match self.strategy {
            WitnessStrategy::Direct => targets
                .iter()
                .map(|&t| {
                    witness::membership_witness(params, self.state.primes.as_slice(), t)
                        .map_err(corrupt)
                })
                .collect::<Result<Vec<_>, _>>()?,
            // Duplicate targets (same keyword twice in a query) are
            // impossible: tokens within one query address distinct
            // keywords.
            WitnessStrategy::Batched => self.batched_witnesses(&targets)?,
        };
        self.telemetry
            .count("cloud.witnesses.generated", witnesses.len() as u64);
        Ok(witnesses
            .into_iter()
            .map(|w| w.to_bytes_be_padded(elem))
            .zip(primes.iter().map(|&(_, hint)| hint))
            .collect())
    }

    /// Batched witnesses from the long-lived prover, which catches up with
    /// primes ingested since the last call.
    ///
    /// A prover that disagrees with the stored list — it folded more
    /// primes than the list holds, or its accumulator differs from the
    /// stored digest `Ac` (one compare: it folded another list, e.g. state
    /// swapped under it by a truncated restore) — is rebuilt from the
    /// list once, never trusted. The rebuilt prover's witnesses are
    /// returned unchecked: if `X` disagrees with `Ac`, the chain refunds.
    fn batched_witnesses(&mut self, targets: &[usize]) -> Result<Vec<BigUint>, SlicerError> {
        if targets.is_empty() {
            return Ok(Vec::new());
        }
        let primes = self.state.primes.as_slice();
        let ac = self.state.accumulator.as_ref();
        if let Some(prover) = self.prover.as_mut() {
            match prover.witnesses(primes, targets, &self.pool) {
                // A cloud with no digest has nothing to compare with.
                Ok(ws) if ac.is_none_or(|ac| prover.accumulator() == ac) => return Ok(ws),
                _ => self.telemetry.count("cloud.prover.rebuilds", 1),
            }
        }
        let params = &self.config.accumulator;
        let mut prover = witness::BatchProver::new(params);
        let ws = prover
            .witnesses(primes, targets, &self.pool)
            .map_err(corrupt)?;
        self.prover = Some(prover);
        Ok(ws)
    }

    /// Full Algorithm 4: search + VO generation, equal byte for byte to
    /// [`CloudServer::search`] then [`CloudServer::prove`]. Each token is
    /// answered from its keyword's kept answer where it can be: an exact
    /// repeat costs no index lookup, digest or `H_prime`; a newer token
    /// walks only the generations added since (DESIGN §10, "Kept
    /// answers"). The newest answer per keyword is kept.
    ///
    /// # Errors
    ///
    /// The errors of [`CloudServer::prove`]: an answer off its keyword's
    /// trapdoor chain is [`SlicerError::UnaccumulatedResult`] on both
    /// paths.
    pub fn respond(&mut self, tokens: &[SearchToken]) -> Result<CloudResponse, SlicerError> {
        let mut span = self.telemetry.span("cloud.respond");
        span.attr("tokens", tokens.len());
        let mut search_span = self.telemetry.span("cloud.search");
        search_span.attr("tokens", tokens.len());
        let answers: Vec<(&SearchToken, Answer)> =
            tokens.iter().map(|t| (t, self.answer(t))).collect();
        drop(search_span);

        let mut prove_span = self.telemetry.span("cloud.prove");
        // As in prove: a walked answer's digest and prime fan out over the
        // pool, which records no telemetry.
        let (primes, digests): (Vec<(BigUint, u16)>, Vec<[u8; 32]>) = self
            .pool
            .run(&answers, |(token, answer)| match answer {
                Answer::Kept {
                    digest,
                    prime,
                    hint,
                    ..
                } => Ok(((prime.clone(), *hint), *digest)),
                Answer::Walked { er, fresh, base } => {
                    let h = er
                        .iter()
                        .take(*fresh)
                        .rev()
                        .fold(*base, |h, r| result_digest_step(r, &h));
                    Ok((self.prime_of(token, &h)?, h))
                }
            })
            .into_iter()
            .collect::<Result<Vec<_>, SlicerError>>()?
            .into_iter()
            .unzip();
        let proofs = self.witnesses_for(&primes)?;
        prove_span.attr("witnesses", proofs.len());
        drop(prove_span);

        let mut results = Vec::with_capacity(answers.len());
        for (((token, answer), (prime, hint)), digest) in
            answers.into_iter().zip(primes).zip(digests)
        {
            let er = match answer {
                Answer::Kept { er, .. } => er,
                Answer::Walked { er, .. } => {
                    let id = (token.g1, token.g2);
                    if self
                        .kept
                        .get(&id)
                        .is_none_or(|k| k.updates <= token.updates)
                    {
                        let kept = KeptAnswer {
                            updates: token.updates,
                            trapdoor: token.trapdoor.clone(),
                            er: er.clone(),
                            digest,
                            prime,
                            hint,
                        };
                        self.kept.insert(id, kept);
                    }
                    er
                }
            };
            results.push(SliceResult {
                token: token.clone(),
                er,
            });
        }
        Ok(CloudResponse { results, proofs })
    }
}

/// Witness generation failing on the cloud's own state is local state
/// corruption.
fn corrupt(e: AccumulatorError) -> SlicerError {
    SlicerError::IndexCorruption(format!("witness generation failed: {e}"))
}

/// The server-visible identity of a token: tokens carrying the same
/// `(G1, G2, j)` triple are indistinguishable repeats (the `L^repeat`
/// equivalence), so their fingerprints coincide and nothing else about
/// the token is exposed.
fn token_fingerprint(token: &SearchToken) -> u64 {
    let mut material = Vec::with_capacity(68);
    material.extend_from_slice(&token.g1);
    material.extend_from_slice(&token.g2);
    material.extend_from_slice(&token.updates.to_be_bytes());
    let h = sha256(&material);
    u64::from_be_bytes(h.first_chunk().copied().unwrap_or([0u8; 8]))
}

/// Malicious-cloud behaviours (Section IV-B threat model): each helper
/// corrupts an honest response the way a dishonest cloud would, so tests
/// and examples can check that on-chain verification catches it.
pub mod malicious {
    use super::CloudResponse;

    /// Drops one matching record from the first non-empty result
    /// (incomplete results).
    pub fn drop_record(mut resp: CloudResponse) -> CloudResponse {
        if let Some(result) = resp.results.iter_mut().find(|r| !r.er.is_empty()) {
            result.er.pop();
        }
        resp
    }

    /// Injects a forged record ciphertext into the first result
    /// (incorrect results).
    pub fn inject_record(mut resp: CloudResponse, forged: Vec<u8>) -> CloudResponse {
        if let Some(result) = resp.results.first_mut() {
            result.er.push(forged);
        }
        resp
    }

    /// Replaces the first verification object with garbage (forged proof).
    pub fn corrupt_witness(mut resp: CloudResponse) -> CloudResponse {
        if let Some((vo, _)) = resp.proofs.first_mut() {
            for b in vo.iter_mut() {
                *b ^= 0x55;
            }
        }
        resp
    }

    /// Reverses the records of the first result holding at least two:
    /// the same set of ciphertexts in another order than the walk's.
    pub fn reorder_records(mut resp: CloudResponse) -> CloudResponse {
        if let Some(result) = resp.results.iter_mut().find(|r| r.er.len() >= 2) {
            result.er.reverse();
        }
        resp
    }

    /// Swaps the results of the first two slices while keeping their
    /// witnesses (mismatched result/proof binding).
    pub fn swap_results(mut resp: CloudResponse) -> CloudResponse {
        if let [first, second, ..] = resp.results.as_mut_slice() {
            std::mem::swap(&mut first.er, &mut second.er);
        }
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Query;
    use crate::owner::DataOwner;
    use crate::record::RecordId;
    use slicer_accumulator::Accumulator;
    use slicer_telemetry::{AttrValue, Event, LogicalClock, MemorySink};
    use slicer_testkit::Gen;
    use std::sync::Arc;

    fn setup(n: u64) -> (DataOwner, CloudServer) {
        let mut owner = DataOwner::new(SlicerConfig::test_8bit(), 11);
        let db: Vec<(RecordId, u64)> = (0..n)
            .map(|i| (RecordId::from_u64(i), (i * 7) % 256))
            .collect();
        let out = owner.build(&db).unwrap();
        let mut cloud = CloudServer::new(
            owner.config().clone(),
            owner.keys().trapdoor().public().clone(),
        );
        cloud.ingest(&out).unwrap();
        (owner, cloud)
    }

    #[test]
    fn equality_search_returns_matching_count() {
        let (owner, cloud) = setup(40);
        // Values are (i*7)%256 for i in 0..40: value 7 appears once (i=1).
        let tokens = owner.search_tokens(&Query::equal(7));
        assert_eq!(tokens.len(), 1);
        let results = cloud.search(&tokens);
        assert_eq!(results[0].er.len(), 1);
    }

    #[test]
    fn order_search_finds_all_smaller_values() {
        let (owner, cloud) = setup(40);
        let expected = (0..40).filter(|i| (i * 7) % 256 < 50).count();
        let tokens = owner.search_tokens(&Query::less_than(50));
        let results = cloud.search(&tokens);
        let total: usize = results.iter().map(|r| r.er.len()).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn search_spans_insert_generations() {
        let (mut owner, mut cloud) = setup(10);
        let out = owner.insert(&[(RecordId::from_u64(100), 7)]).unwrap();
        cloud.ingest(&out).unwrap();
        let before7 = (0..10).filter(|i| (i * 7) % 256 == 7).count();
        let tokens = owner.search_tokens(&Query::equal(7));
        let results = cloud.search(&tokens);
        assert_eq!(results[0].er.len(), before7 + 1, "old + new generation");
    }

    #[test]
    fn honest_witnesses_verify_against_owner_accumulator() {
        let (owner, mut cloud) = setup(25);
        let tokens = owner.search_tokens(&Query::less_than(100));
        let resp = cloud.respond(&tokens).unwrap();
        assert_verifies(&owner, &cloud, &resp);
    }

    #[test]
    fn all_witness_strategies_agree() {
        let (owner, mut cloud) = setup(25);
        let tokens = owner.search_tokens(&Query::less_than(100));
        let results = cloud.search(&tokens);
        cloud.set_strategy(WitnessStrategy::Direct);
        let direct = cloud.prove(&results).unwrap();
        cloud.set_strategy(WitnessStrategy::Batched);
        let batched = cloud.prove(&results).unwrap();
        assert_eq!(direct, batched);
    }

    /// Every witness of `resp` verifies against the owner's digest.
    fn assert_verifies(owner: &DataOwner, cloud: &CloudServer, resp: &CloudResponse) {
        let params = &owner.config().accumulator;
        let acc = Accumulator::from_value(params, owner.accumulator().clone());
        assert!(!resp.results.is_empty());
        assert_eq!(resp.results.len(), resp.proofs.len());
        for (result, (vo, hint)) in resp.results.iter().zip(&resp.proofs) {
            let (x, want) = cloud.prime_for(result).unwrap();
            assert_eq!(*hint, want);
            let w = BigUint::from_bytes_be(vo);
            assert!(acc.verify(&x, &w));
        }
    }

    /// The numeric attribute `key` of every `span` span in `sink`, in
    /// order.
    fn span_attr(sink: &MemorySink, span: &str, key: &str) -> Vec<u64> {
        sink.events()
            .into_iter()
            .filter_map(|e| match e {
                Event::SpanEnd { name, attrs, .. } if name == span => {
                    attrs.into_iter().find_map(|(k, v)| match v {
                        AttrValue::U64(n) if k == key => Some(n),
                        _ => None,
                    })
                }
                _ => None,
            })
            .collect()
    }

    /// An enabled telemetry handle recording into a fresh memory sink.
    fn recording() -> (TelemetryHandle, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        let handle = TelemetryHandle::with(Arc::new(LogicalClock::default()), sink.clone() as _);
        (handle, sink)
    }

    #[test]
    fn repeated_query_is_served_from_kept_witnesses() {
        let (owner, mut cloud) = setup(25);
        let (telemetry, sink) = recording();
        cloud.set_telemetry(telemetry);
        let tokens = owner.search_tokens(&Query::less_than(100));
        let first = cloud.respond(&tokens).unwrap();
        let again = cloud.respond(&tokens).unwrap();
        assert_verifies(&owner, &cloud, &again);
        assert_eq!(first.proofs, again.proofs);
        assert_eq!(
            span_attr(&sink, "accumulator.witness", "cached"),
            vec![0, tokens.len() as u64]
        );
    }

    #[test]
    fn prover_catches_up_across_interleaved_inserts() {
        // One cloud, one long-lived prover: each insert appends primes
        // that the next prove must fold in before answering, never rebuilt.
        let (mut owner, mut cloud) = setup(15);
        let (telemetry, _sink) = recording();
        cloud.set_telemetry(telemetry.clone());
        for round in 0..6u64 {
            let value = (round * 37) % 256;
            let out = owner
                .insert(&[(RecordId::from_u64(1000 + round), value)])
                .unwrap();
            cloud.ingest(&out).unwrap();
            for query in [Query::equal(value), Query::less_than(128)] {
                let resp = cloud.respond(&owner.search_tokens(&query)).unwrap();
                assert_verifies(&owner, &cloud, &resp);
            }
            let folded = cloud.prover.as_ref().map(|p| p.folded());
            assert_eq!(folded, Some(cloud.state.primes.len()), "round {round}");
        }
        assert_eq!(telemetry.counter_value("cloud.prover.rebuilds"), None);
    }

    #[test]
    fn shipment_repeating_a_prime_is_refused_untouched() {
        // A shipment whose primes repeat one of `X`, or one of its own,
        // is refused before the index, `X` or `Ac` changes.
        use slicer_crypto::codec::to_bytes;
        let (mut owner, mut cloud) = setup(15);
        let out = owner.insert(&[(RecordId::from_u64(500), 9)]).unwrap();
        let before = to_bytes(&cloud.state).unwrap();
        let held = cloud.state.primes.as_slice()[3].clone();
        for repeat in [held, out.primes[0].clone()] {
            let mut bad = out.clone();
            bad.primes.push(repeat);
            match cloud.ingest(&bad) {
                Err(SlicerError::IndexCorruption(m)) => assert!(m.contains("repeats a prime")),
                other => panic!("{other:?}"),
            }
            assert_eq!(to_bytes(&cloud.state).unwrap(), before);
        }
        cloud.ingest(&out).unwrap();
        let resp = cloud
            .respond(&owner.search_tokens(&Query::equal(9)))
            .unwrap();
        assert_verifies(&owner, &cloud, &resp);
    }

    #[test]
    fn shipment_repeating_a_label_is_refused_untouched() {
        // A shipment whose last entry repeats its first is refused with
        // `I`, `X` and `Ac` as they were; the true shipment then ingests.
        use slicer_crypto::codec::to_bytes;
        let (mut owner, mut cloud) = setup(15);
        let out = owner.insert(&[(RecordId::from_u64(500), 9)]).unwrap();
        let before = to_bytes(&cloud.state).unwrap();
        let mut bad = out.clone();
        bad.entries.push(out.entries[0].clone());
        match cloud.ingest(&bad) {
            Err(SlicerError::IndexCorruption(m)) => assert!(m.contains("already present")),
            other => panic!("{other:?}"),
        }
        assert_eq!(to_bytes(&cloud.state).unwrap(), before);
        cloud.ingest(&out).unwrap();
        let resp = cloud
            .respond(&owner.search_tokens(&Query::equal(9)))
            .unwrap();
        assert_verifies(&owner, &cloud, &resp);
    }

    /// `respond`'s outcome next to `search` then `prove` on the same
    /// cloud: equal byte for byte, or both the same error (returned as
    /// `[respond's, prove's]`).
    fn respond_matches_full_walk(
        cloud: &mut CloudServer,
        tokens: &[SearchToken],
    ) -> Result<Result<CloudResponse, [SlicerError; 2]>, String> {
        let got = cloud.respond(tokens);
        let results = cloud.search(tokens);
        match (got, cloud.prove(&results)) {
            (Ok(got), Ok(proofs)) => {
                let same = got.proofs == proofs
                    && got.results.len() == results.len()
                    && got
                        .results
                        .iter()
                        .zip(&results)
                        .all(|(a, b)| a.token == b.token && a.er == b.er);
                if same {
                    Ok(Ok(got))
                } else {
                    Err("respond differs from search + prove".into())
                }
            }
            (Err(a), Err(b)) if a.to_string() == b.to_string() => Ok(Err([a, b])),
            (a, b) => Err(format!("respond {a:?}, search + prove {b:?}")),
        }
    }

    #[test]
    fn respond_equals_search_then_prove() {
        use slicer_testkit::{prop_assert, prop_check};
        // Random interleavings of inserts and queries: repeats, keywords
        // touched since their last search, stale tokens (an older `j`),
        // tokens whose trapdoor does not join, and kept answers that are
        // not on their keyword's trapdoor chain.
        prop_check!(0x3101, 48, |g| {
            let mut owner = DataOwner::new(SlicerConfig::test_8bit(), g.u64_in(0, 999));
            let db: Vec<(RecordId, u64)> = (0..g.u64_in(1, 10))
                .map(|i| (RecordId::from_u64(i), g.u64_in(0, 255)))
                .collect();
            let mut cloud = CloudServer::new(
                owner.config().clone(),
                owner.keys().trapdoor().public().clone(),
            );
            cloud.ingest(&owner.build(&db).unwrap()).unwrap();
            let mut sent: Vec<Vec<SearchToken>> = Vec::new();
            for id in 100..100 + g.u64_in(4, 12) {
                let fresh = |g: &mut Gen, owner: &DataOwner| {
                    let v = g.u64_in(0, 255);
                    let q = [Query::equal(v), Query::less_than(v), Query::greater_than(v)];
                    owner.search_tokens(&q[g.index(3)])
                };
                // Whether the first token's trapdoor is off its chain.
                let mut off_chain = false;
                let tokens = match g.u64_in(0, 5) {
                    0 => {
                        let out = owner
                            .insert(&[(RecordId::from_u64(id), g.u64_in(0, 255))])
                            .unwrap();
                        cloud.ingest(&out).unwrap();
                        continue;
                    }
                    // A repeat of an earlier query: the last one, or one
                    // whose keywords have been updated since.
                    1 if !sent.is_empty() => sent[g.index(sent.len())].clone(),
                    // A fresh token whose trapdoor is one generation off.
                    2 => {
                        let mut tokens = fresh(g, &owner);
                        if let Some(t) = tokens.first_mut() {
                            t.trapdoor = cloud.trapdoor_pk.forward(&t.trapdoor);
                            off_chain = true;
                        }
                        tokens
                    }
                    // A kept answer off its keyword's chain, with a forged
                    // ciphertext: no route may serve it.
                    3 if !cloud.kept.is_empty() => {
                        let at = g.index(cloud.kept.len());
                        if let Some(k) = cloud.kept.values_mut().nth(at) {
                            if g.bool() || k.updates == 0 {
                                k.trapdoor = cloud.trapdoor_pk.forward(&k.trapdoor);
                            } else {
                                k.updates -= 1;
                            }
                            k.er.push(vec![0x5a; 32]);
                        }
                        sent.last().cloned().unwrap_or_default()
                    }
                    _ => fresh(g, &owner),
                };
                // Every answer verifies against the owner's digest. Only an
                // off-chain token fails, typed alike on both paths.
                match respond_matches_full_walk(&mut cloud, &tokens)? {
                    Ok(resp) => {
                        let params = &owner.config().accumulator;
                        let acc = Accumulator::from_value(params, owner.accumulator().clone());
                        for (result, (vo, hint)) in resp.results.iter().zip(&resp.proofs) {
                            let (x, want) = cloud.prime_for(result).unwrap();
                            prop_assert!(
                                *hint == want && acc.verify(&x, &BigUint::from_bytes_be(vo))
                            );
                        }
                        sent.push(tokens);
                    }
                    Err(errors) => {
                        prop_assert!(
                            off_chain
                                && errors.iter().all(|e| matches!(
                                    e,
                                    SlicerError::UnaccumulatedResult { index: 0 }
                                ))
                        );
                    }
                }
            }
            Ok(())
        });
    }

    #[test]
    fn routes_skip_the_generations_they_keep() {
        // An exact repeat makes no index lookup; after a one-record insert
        // the same query walks only the new generation of each keyword
        // the insert touched.
        let (mut owner, mut cloud) = setup(20);
        let (telemetry, sink) = recording();
        cloud.set_telemetry(telemetry.clone());
        let query = Query::less_than(90);
        let lookups = |t: &TelemetryHandle| {
            (
                t.counter_value("cloud.index.hits").unwrap_or(0),
                t.counter_value("cloud.index.misses").unwrap_or(0),
            )
        };
        let first = cloud.respond(&owner.search_tokens(&query)).unwrap();
        let cold = lookups(&telemetry);
        let again = cloud.respond(&owner.search_tokens(&query)).unwrap();
        assert_eq!(
            lookups(&telemetry),
            cold,
            "an exact repeat looks nothing up"
        );
        assert_eq!(first.proofs, again.proofs);

        let out = owner.insert(&[(RecordId::from_u64(900), 3)]).unwrap();
        cloud.ingest(&out).unwrap();
        let tokens = owner.search_tokens(&query);
        let joined = cloud.respond(&tokens).unwrap();
        assert_verifies(&owner, &cloud, &joined);
        let (hits, misses) = lookups(&telemetry);
        // One hit and one miss per keyword the record added: each such
        // token walks only its new generation.
        let touched = tokens.iter().filter(|t| t.updates > 0).count() as u64;
        assert!(touched > 0);
        assert_eq!((hits - cold.0, misses - cold.1), (touched, touched));

        // The span's `kept`: the first walk served nothing from a kept
        // answer; after it, every token's generation 0 was kept, whether
        // it repeated exactly or joined.
        let kept = span_attr(&sink, "cloud.token", "kept");
        let n = tokens.len();
        assert_eq!(kept.len(), 3 * n);
        assert!(kept[..n].iter().all(|&k| k == 0));
        assert!(kept[n..].iter().all(|&k| k == 1));
    }

    #[test]
    fn a_restored_cloud_keeps_no_answers() {
        let (owner, mut cloud) = setup(20);
        let tokens = owner.search_tokens(&Query::less_than(90));
        let before = cloud.respond(&tokens).unwrap();
        assert_eq!(cloud.kept.len(), tokens.len());
        let mut restored = CloudServer::from_state(
            cloud.config.clone(),
            cloud.trapdoor_pk.clone(),
            cloud.storage().clone(),
        );
        assert!(restored.kept.is_empty());
        let after = restored.respond(&tokens).unwrap();
        assert_eq!(before.proofs, after.proofs);
    }

    #[test]
    fn poisoned_prover_is_rebuilt_once() {
        // Provers that a truncated or swapped restore could leave behind,
        // each built through the public API over the wrong list: one is
        // `ProverAhead`, the others hold an accumulator other than `Ac`.
        let (owner, mut cloud) = setup(15);
        let tokens = owner.search_tokens(&Query::less_than(100));
        let params = cloud.config.accumulator.clone();
        let real: Vec<BigUint> = cloud.state.primes.as_slice().to_vec();
        let phantom =
            slicer_accumulator::hash_to_prime(b"phantom", cloud.config.prime_bits).unwrap();
        let targets: Vec<usize> = cloud
            .search(&tokens)
            .iter()
            .map(|r| {
                let (x, _) = cloud.prime_for(r).unwrap();
                real.iter().position(|p| *p == x).unwrap()
            })
            .collect();
        let bystander = (0..real.len()).find(|i| !targets.contains(i)).unwrap();
        // A phantom extra prime: folded count ahead of X.
        let mut longer = real.clone();
        longer.push(phantom.clone());
        // Same length, a non-target prime swapped.
        let mut swapped = real.clone();
        swapped[bystander] = phantom.clone();
        // Same length, a target prime swapped.
        let mut missing = real.clone();
        missing[targets[0]] = phantom;
        for (name, list) in [
            ("longer", longer),
            ("swapped", swapped),
            ("missing", missing),
        ] {
            // The poisoned prover keeps a witness for a non-target.
            let mut prover = witness::BatchProver::new(&params);
            prover
                .witnesses(&list, &[bystander], &Pool::single())
                .unwrap();
            cloud.prover = Some(prover);
            let (telemetry, sink) = recording();
            cloud.set_telemetry(telemetry.clone());
            let resp = cloud.respond(&tokens).unwrap();
            assert_verifies(&owner, &cloud, &resp);
            assert_eq!(
                telemetry.counter_value("cloud.prover.rebuilds"),
                Some(1),
                "{name}"
            );
            assert_eq!(cloud.prover.as_ref().map(|p| p.folded()), Some(real.len()));
            // The rebuilt prover started with no kept witnesses: it holds
            // only this query's.
            assert_eq!(
                cloud.prover.as_ref().map(|p| p.cached()),
                Some(targets.len()),
                "{name}"
            );
            // The rebuilt prover is trusted from then on, and its first
            // call served no target from kept witnesses.
            cloud.respond(&tokens).unwrap();
            assert_eq!(telemetry.counter_value("cloud.prover.rebuilds"), Some(1));
            let cached = span_attr(&sink, "accumulator.witness", "cached");
            assert!(
                cached.ends_with(&[0, targets.len() as u64]),
                "{name}: {cached:?}"
            );
        }
    }

    #[test]
    fn tampered_responses_produce_wrong_primes() {
        let (owner, mut cloud) = setup(25);
        let tokens = owner.search_tokens(&Query::less_than(100));
        let honest = cloud.respond(&tokens).unwrap();
        let tampered = malicious::drop_record(honest.clone());
        // Find the slice whose er changed and show its prime moved.
        for (h, t) in honest.results.iter().zip(&tampered.results) {
            if h.er != t.er {
                assert_ne!(cloud.prime_for(h).unwrap().0, cloud.prime_for(t).unwrap().0);
                return;
            }
        }
        panic!("tampering changed nothing");
    }
}
