//! The cloud server: search and VO generation (Algorithm 4), plus the
//! malicious behaviours exercised by the failure-injection tests.

use crate::config::SlicerConfig;
use crate::error::SlicerError;
use crate::messages::{BuildOutput, CloudResponse, SearchToken, SliceResult};
use crate::owner::state_key;
use slicer_accumulator::{hash_to_prime_counted, result_digest, witness, AccumulatorError};
use slicer_bignum::BigUint;
use slicer_crypto::{sha256, Prf};
use slicer_par::Pool;
use slicer_store::CloudState;
use slicer_telemetry::TelemetryHandle;
use slicer_trapdoor::{Trapdoor, TrapdoorPublic};

/// How the cloud generates membership witnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WitnessStrategy {
    /// One direct `O(|X|)` fold per token — what the paper's prototype
    /// does; its cost grows with the record count (Fig. 5b/5d).
    Direct,
    /// All of a query's tokens from a long-lived [`witness::BatchProver`]:
    /// the cached base of each leaf a target falls in (at most
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
    /// for a cloud that may never search.
    prover: Option<witness::BatchProver>,
    telemetry: TelemetryHandle,
    pool: Pool,
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
    /// Returns [`SlicerError::IndexCorruption`] if the shipment collides
    /// with existing index labels.
    pub fn ingest(&mut self, output: &BuildOutput) -> Result<(), SlicerError> {
        let mut span = self.telemetry.span("store.extend");
        span.attr("entries", output.entries.len());
        self.state
            .index
            .extend(output.entries.iter().cloned())
            .map_err(|e| SlicerError::IndexCorruption(e.to_string()))?;
        self.state.primes.extend(output.primes.iter().cloned());
        self.state.accumulator = Some(output.accumulator.clone());
        Ok(())
    }

    /// Algorithm 4's index walk for one token: from the newest trapdoor
    /// `t_j` down to `t_0`, scanning counters until the first miss in each
    /// generation.
    pub fn search_one(&self, token: &SearchToken) -> SliceResult {
        let mut span = self.telemetry.span("cloud.token");
        let width = self.trapdoor_pk.trapdoor_bytes();
        let f1 = Prf::new(&token.g1);
        let f2 = Prf::new(&token.g2);
        let mut er = Vec::new();
        let mut t: Trapdoor = token.trapdoor.clone();
        for gen in (0..=token.updates).rev() {
            let t_bytes = t.to_bytes(width);
            // One generation shares its trapdoor prefix: absorb it into
            // the PRF midstates once, then walk counters.
            let f1t = f1.stream(&t_bytes);
            let f2t = f2.stream(&t_bytes);
            let mut c: u64 = 0;
            loop {
                let label = f1t.eval(&c.to_be_bytes());
                match self.state.index.get(&label) {
                    None => break,
                    Some(d) => {
                        let pad = f2t.eval(&c.to_be_bytes());
                        let r: Vec<u8> = d.iter().zip(pad.iter()).map(|(x, p)| x ^ p).collect();
                        er.push(r);
                        c += 1;
                    }
                }
            }
            if gen > 0 {
                t = self.trapdoor_pk.forward(&t);
            }
        }
        // Every matched counter is a hit; every generation's walk ends on
        // exactly one miss.
        self.telemetry.count("cloud.index.hits", er.len() as u64);
        self.telemetry
            .count("cloud.index.misses", u64::from(token.updates) + 1);
        // The span records exactly the server's view of this token:
        // generations walked, entries recovered, and the token's identity
        // fingerprint — `L^search` and the `L^repeat` input, no more.
        if span.is_recording() {
            span.attr("token.updates", token.updates);
            span.attr("token.hits", er.len());
            span.attr("token.fp", token_fingerprint(token));
        }
        SliceResult {
            token: token.clone(),
            er,
        }
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
        let width = self.trapdoor_pk.trapdoor_bytes();
        let mut material = state_key(
            &result.token.trapdoor.to_bytes(width),
            result.token.updates,
            &result.token.g1,
            &result.token.g2,
        );
        material.extend_from_slice(&result_digest(&result.er));
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
    /// Returns [`SlicerError::IndexCorruption`] if a result's prime is not
    /// in the stored prime list — that means the cloud's own search output
    /// is inconsistent with what the owner accumulated, i.e. local state
    /// corruption — and [`SlicerError::HintOutOfRange`] as
    /// [`CloudServer::prime_for`] does.
    pub fn prove(&mut self, results: &[SliceResult]) -> Result<Vec<(Vec<u8>, u16)>, SlicerError> {
        let mut span = self.telemetry.span("cloud.prove");
        // Per-result prime derivation (digest + H_prime) is independent:
        // fan it out over the pool. prime_for emits no telemetry, so the
        // transcript stays worker-count independent.
        let (xs, hints): (Vec<BigUint>, Vec<u16>) = self
            .pool
            .run(results, |r| self.prime_for(r))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .unzip();
        let targets: Vec<usize> = xs
            .iter()
            .map(|x| {
                self.state.primes.position(x).ok_or_else(|| {
                    SlicerError::IndexCorruption("result prime missing from X".into())
                })
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
            WitnessStrategy::Batched => self.batched_witnesses(&xs, &targets)?,
        };
        self.telemetry
            .count("cloud.witnesses.generated", witnesses.len() as u64);
        span.attr("witnesses", witnesses.len());
        Ok(witnesses
            .into_iter()
            .map(|w| w.to_bytes_be_padded(elem))
            .zip(hints)
            .collect())
    }

    /// Batched witnesses from the long-lived prover, which catches up with
    /// primes ingested since the last call.
    ///
    /// A prover that disagrees with the stored list — it folded more
    /// primes than the list holds or a different prime, or its first
    /// witness fails against the stored digest (e.g. state swapped under
    /// it by a truncated restore) — is rebuilt from the list once, never
    /// trusted.
    fn batched_witnesses(
        &mut self,
        xs: &[BigUint],
        targets: &[usize],
    ) -> Result<Vec<BigUint>, SlicerError> {
        let primes = self.state.primes.as_slice();
        if let Some(prover) = self.prover.as_mut() {
            match prover.witnesses(primes, targets, &self.pool) {
                Ok(ws) if self.matches_digest(xs, &ws) => return Ok(ws),
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

    /// Whether the first witness verifies against the stored digest (one
    /// short exponentiation). A cloud with no digest has nothing to
    /// check against.
    fn matches_digest(&self, xs: &[BigUint], ws: &[BigUint]) -> bool {
        match (&self.state.accumulator, xs.first(), ws.first()) {
            (Some(ac), Some(x), Some(w)) => {
                witness::verify_membership(&self.config.accumulator, x, w, ac)
            }
            _ => true,
        }
    }

    /// Full Algorithm 4: search + VO generation.
    ///
    /// # Errors
    ///
    /// Propagates [`CloudServer::prove`] state-corruption errors.
    pub fn respond(&mut self, tokens: &[SearchToken]) -> Result<CloudResponse, SlicerError> {
        let mut span = self.telemetry.span("cloud.respond");
        span.attr("tokens", tokens.len());
        let results = self.search(tokens);
        let proofs = self.prove(&results)?;
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

    #[test]
    fn prover_catches_up_across_interleaved_inserts() {
        // One cloud, one long-lived prover: each insert appends primes
        // that the next prove must fold in before answering.
        let (mut owner, mut cloud) = setup(15);
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
    }

    #[test]
    fn poisoned_prover_is_rebuilt_once() {
        // Provers that a truncated or swapped restore could leave behind,
        // each built through the public API over the wrong list.
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
        // Product over a phantom extra prime: folded count ahead of X.
        let mut longer = real.clone();
        longer.push(phantom.clone());
        // Same length, a non-target prime swapped: the list check finds it.
        let mut swapped = real.clone();
        swapped[bystander] = phantom.clone();
        // Same length, a target prime swapped: the list check finds it.
        let mut missing = real.clone();
        missing[targets[0]] = phantom;
        for (name, list) in [
            ("longer", longer),
            ("swapped", swapped),
            ("missing", missing),
        ] {
            let mut prover = witness::BatchProver::new(&params);
            prover.witnesses(&list, &[0], &Pool::single()).unwrap();
            cloud.prover = Some(prover);
            let telemetry = TelemetryHandle::enabled();
            cloud.set_telemetry(telemetry.clone());
            let resp = cloud.respond(&tokens).unwrap();
            assert_verifies(&owner, &cloud, &resp);
            assert_eq!(
                telemetry.counter_value("cloud.prover.rebuilds"),
                Some(1),
                "{name}"
            );
            assert_eq!(cloud.prover.as_ref().map(|p| p.folded()), Some(real.len()));
            // The rebuilt prover is trusted from then on.
            cloud.respond(&tokens).unwrap();
            assert_eq!(telemetry.counter_value("cloud.prover.rebuilds"), Some(1));
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
