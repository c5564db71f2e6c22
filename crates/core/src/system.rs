//! End-to-end orchestration: the four-party workflow of Fig. 1.

use crate::audit::DeclaredLeakage;
use crate::cloud::CloudServer;
use crate::config::SlicerConfig;
use crate::error::SlicerError;
use crate::leakage::{BuildLeakage, SearchLeakage};
use crate::messages::{BuildOutput, Query};
use crate::owner::DataOwner;
use crate::profile::{PhaseStat, SearchProfile};
use crate::record::{Record, RecordId};
use crate::state::OwnerDelta;
use crate::user::DataUser;
use slicer_chain::{Address, Blockchain, SlicerCall, SlicerContract, Transaction, TxReceipt};
use slicer_crypto::sha256;
use slicer_telemetry::{Clock, Level, Span, TelemetryHandle};
use std::sync::Arc;
use std::time::Duration;

/// Outcome of a verified search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Decrypted matching record IDs (with multiplicity, for the
    /// dual-instance difference); empty unless `verified`.
    pub records: Vec<RecordId>,
    /// Whether the on-chain verification passed.
    pub verified: bool,
    /// Gas consumed registering the request (tokens + escrow).
    pub request_gas: u64,
    /// Gas consumed by the result submission + verification.
    pub verify_gas: u64,
    /// Whether the escrowed fee went to the cloud (`true`) or back to the
    /// user (`false`). Trivially-empty searches settle nothing.
    pub paid_cloud: bool,
    /// Phase-by-phase latency and gas breakdown of this search.
    pub profile: SearchProfile,
    /// Identity of this search's trace (the `protocol.search` root span's
    /// [`slicer_telemetry::TraceId`]), or 0 when telemetry is disabled.
    pub trace_id: u64,
}

/// What one [`SlicerInstance::insert`] did: everything a caller needs
/// to persist the insert on its own, without re-reading the whole state.
#[derive(Debug, Clone)]
pub struct InsertOutcome {
    /// Receipt of the on-chain digest update (the 29 144-gas operation
    /// of Table II).
    pub receipt: TxReceipt,
    /// The shipment the cloud ingested: index entries, primes and `Ac`.
    pub shipment: BuildOutput,
    /// The owner-state changes: `T` and `S` entries set, `S` keys retired.
    pub owner: OwnerDelta,
}

/// Lowercase hex of `bytes` — tx hashes as span attributes.
fn hex_bytes(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(2 + bytes.len() * 2);
    out.push_str("0x");
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// One Slicer deployment: owner + cloud + user + verification contract,
/// operating against a caller-owned [`Blockchain`]. The chain is a
/// shared, long-lived party, so several instances may run on one chain
/// (see [`crate::DualSlicer`]).
#[derive(Debug)]
pub struct SlicerInstance {
    /// The data owner.
    pub owner: DataOwner,
    /// The cloud server.
    pub cloud: CloudServer,
    /// The authorized data user.
    pub user: DataUser,
    owner_addr: Address,
    user_addr: Address,
    cloud_addr: Address,
    contract: Address,
    request_counter: u64,
    telemetry: TelemetryHandle,
    /// Drives `SearchProfile` walls: the telemetry clock when a live
    /// handle is installed (deterministic under a `LogicalClock`), a
    /// monotonic fallback otherwise. Keeps `std::time` out of the
    /// protocol path.
    clock: Arc<dyn Clock>,
    declared: DeclaredLeakage,
}

impl SlicerInstance {
    /// Creates the parties, funds their accounts and deploys the
    /// verification contract on `chain`. The telemetry context is
    /// installed into all three parties and used for phase metrics; pass
    /// [`TelemetryHandle::disabled`] for the zero-overhead path.
    ///
    /// # Errors
    ///
    /// Propagates chain failures from the contract deployment.
    pub fn try_setup_with(
        config: SlicerConfig,
        seed: u64,
        chain: &mut Blockchain,
        telemetry: TelemetryHandle,
    ) -> Result<Self, SlicerError> {
        let mut span = telemetry.span("phase.setup");
        let owner = DataOwner::new(config.clone(), seed);
        let cloud = CloudServer::new(config, owner.keys().trapdoor().public().clone());
        let (mut instance, deployed) = Self::deploy(owner, cloud, seed, chain)?;

        telemetry.count("phase.setup.gas", deployed.gas_used);
        if span.is_recording() {
            span.attr("gas.used", deployed.gas_used);
            span.attr("tx.hash", hex_bytes(&deployed.tx_hash.0));
        }
        drop(span);
        // Deterministic fields only (gas, never wall time), so same-seed
        // structured-log transcripts stay byte-identical.
        telemetry.log(
            Level::Info,
            "slicer.setup",
            "parties deployed",
            vec![("gas.used", deployed.gas_used.into())],
        );
        instance.set_telemetry(telemetry);
        Ok(instance)
    }

    /// Rebuilds an instance from persisted owner and cloud snapshots on a
    /// fresh chain: keys are re-derived from `seed`, the owner resumes
    /// from its restored `T`/`S`/accumulator, the cloud serves the
    /// restored index without any rebuild, and the restored digest is
    /// republished on `chain` (the chain itself models an always-on
    /// external party and is not part of the snapshot).
    ///
    /// # Errors
    ///
    /// Propagates chain failures from the contract deployment and the
    /// digest republication.
    pub fn try_restore_with(
        config: SlicerConfig,
        seed: u64,
        chain: &mut Blockchain,
        telemetry: TelemetryHandle,
        owner_state: crate::state::OwnerState,
        accumulator: slicer_bignum::BigUint,
        cloud_state: slicer_store::CloudState,
    ) -> Result<Self, SlicerError> {
        let mut span = telemetry.span("phase.restore");
        let owner = DataOwner::restore(config.clone(), seed, owner_state, accumulator);
        let cloud = CloudServer::from_state(
            config,
            owner.keys().trapdoor().public().clone(),
            cloud_state,
        );
        let (mut instance, deployed) = Self::deploy(owner, cloud, seed, chain)?;
        // Every gas-bearing span must have a matching phase counter, so
        // profile gas totals reconcile with the counter surface on
        // restored deployments too (slicer-cli profile --check).
        telemetry.count("phase.restore.gas", deployed.gas_used);
        if span.is_recording() {
            span.attr("gas.used", deployed.gas_used);
        }
        drop(span);

        instance.set_telemetry(telemetry);
        // The on-chain digest must match the restored accumulator before
        // any search verifies against it.
        instance.publish_accumulator(chain)?;
        Ok(instance)
    }

    /// The block both constructors share: derives the parties' addresses
    /// from `seed`, funds them, deploys the verification contract and
    /// assembles the instance (telemetry still disabled). Returns the
    /// deployment receipt for the caller's phase span.
    fn deploy(
        owner: DataOwner,
        cloud: CloudServer,
        seed: u64,
        chain: &mut Blockchain,
    ) -> Result<(Self, TxReceipt), SlicerError> {
        let user = owner.delegate();
        let addr = |tag: &str| {
            let h = sha256(&[tag.as_bytes(), &seed.to_be_bytes()].concat());
            Address(*h.first_chunk().unwrap_or(&[0u8; 20]))
        };
        let owner_addr = addr("owner");
        let user_addr = addr("user");
        let cloud_addr = addr("cloud");
        chain.create_account(owner_addr, 10_000_000_000);
        chain.create_account(user_addr, 10_000_000_000);
        chain.create_account(cloud_addr, 10_000_000_000);

        let config = owner.config();
        let contract =
            SlicerContract::new(config.accumulator.clone(), config.prime_bits, owner_addr);
        let deployed = chain.deploy_contract(owner_addr, Box::new(contract), 0)?;
        chain.seal_block();

        let instance = SlicerInstance {
            owner,
            cloud,
            user,
            owner_addr,
            user_addr,
            cloud_addr,
            contract: deployed.address,
            request_counter: 0,
            telemetry: TelemetryHandle::disabled(),
            clock: crate::owner::timing_clock(&TelemetryHandle::disabled()),
            declared: DeclaredLeakage::default(),
        };
        Ok((instance, deployed.receipt))
    }

    /// The instance's telemetry context.
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// Installs a telemetry context into the instance and all three
    /// parties. Phase timing follows the handle's clock so span durations
    /// and [`SearchProfile`] walls share one timeline.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.owner.set_telemetry(telemetry.clone());
        self.cloud.set_telemetry(telemetry.clone());
        self.user.set_telemetry(telemetry.clone());
        self.clock = crate::owner::timing_clock(&telemetry);
        self.telemetry = telemetry;
    }

    /// The leakage profiles this instance has declared so far: one
    /// `L^build` per shipment, one `L^search` per search and the token
    /// history behind `L^repeat`. Feed to
    /// [`LeakageAuditor::verify`](crate::LeakageAuditor::verify) together
    /// with the run's trace transcript.
    pub fn declared_leakage(&self) -> &DeclaredLeakage {
        &self.declared
    }

    /// Elapsed nanoseconds on the instance clock since `start_ns`.
    fn elapsed(&self, start_ns: u64) -> Duration {
        Duration::from_nanos(self.clock.now_nanos().saturating_sub(start_ns))
    }

    /// The verification contract's address.
    pub fn contract_address(&self) -> Address {
        self.contract
    }

    /// The parties' chain addresses `(owner, user, cloud)`.
    pub fn addresses(&self) -> (Address, Address, Address) {
        (self.owner_addr, self.user_addr, self.cloud_addr)
    }

    /// Publishes the owner's current accumulator digest on chain.
    fn publish_accumulator(&self, chain: &mut Blockchain) -> Result<TxReceipt, SlicerError> {
        let elem = self.owner.config().accumulator.element_bytes();
        let call = SlicerCall::SetAccumulator(self.owner.accumulator().to_bytes_be_padded(elem));
        let receipt = chain.send_transaction(Transaction::call(
            self.owner_addr,
            self.contract,
            0,
            call.encode(),
        ))?;
        chain.seal_block();
        Ok(receipt)
    }

    /// Full `Build` flow over `(id, value)` pairs or multi-attribute
    /// [`Record`]s: owner builds, cloud ingests `(I, X, Ac)`, the digest
    /// goes on chain and the user receives the fresh state.
    ///
    /// # Errors
    ///
    /// Propagates owner-side domain errors and chain failures.
    pub fn build<R: Clone + Into<Record>>(
        &mut self,
        chain: &mut Blockchain,
        db: &[R],
    ) -> Result<TxReceipt, SlicerError> {
        let mut span = self.telemetry.span("phase.build");
        let out = self.owner.build(db)?;
        Ok(self.deploy_shipment(chain, &mut span, out)?.receipt)
    }

    /// Full forward-secure `Insert` flow. Returns the receipt of the
    /// on-chain digest update together with the shipment and the owner
    /// changes, which a durable deployment persists as one delta.
    ///
    /// # Errors
    ///
    /// Propagates owner-side domain errors and chain failures.
    pub fn insert<R: Clone + Into<Record>>(
        &mut self,
        chain: &mut Blockchain,
        db_plus: &[R],
    ) -> Result<InsertOutcome, SlicerError> {
        let mut span = self.telemetry.span("phase.build");
        let out = self.owner.insert(db_plus)?;
        self.deploy_shipment(chain, &mut span, out)
    }

    /// Shared tail of every build/insert (inserts fold into the Build
    /// phase: both run Algorithm 1/2 + a digest update): ship to the
    /// cloud, refresh the user view, publish the digest, and record
    /// exactly the `L^build` shape — sizes only — on the phase span and
    /// in the declared-leakage ledger.
    fn deploy_shipment(
        &mut self,
        chain: &mut Blockchain,
        span: &mut Span,
        out: BuildOutput,
    ) -> Result<InsertOutcome, SlicerError> {
        self.cloud.ingest(&out)?;
        let owner = self.owner.take_delta();
        self.user.sync_state(owner.trapdoors.clone());
        let leak =
            BuildLeakage::of(&out).map_err(|e| SlicerError::IndexCorruption(e.to_string()))?;
        let receipt = self.publish_accumulator(chain)?;
        self.telemetry.count("phase.build.gas", receipt.gas_used);
        if span.is_recording() {
            span.attr("entries", leak.entries);
            span.attr("label_bits", leak.label_bits);
            span.attr("value_bits", leak.value_bits);
            span.attr("primes", leak.primes);
            span.attr("prime_bits", leak.prime_bits);
            span.attr("gas.used", receipt.gas_used);
            span.attr("tx.hash", hex_bytes(&receipt.tx_hash.0));
        }
        self.telemetry.log(
            Level::Info,
            "slicer.build",
            "shipment deployed",
            vec![
                ("entries", leak.entries.into()),
                ("primes", leak.primes.into()),
                ("gas.used", receipt.gas_used.into()),
            ],
        );
        self.declared.builds.push(leak);
        Ok(InsertOutcome {
            receipt,
            shipment: out,
            owner,
        })
    }

    /// The full verifiable-search workflow of Fig. 1:
    ///
    /// 1. the user generates tokens and registers the request (escrowing
    ///    `payment` wei),
    /// 2. the cloud searches, generates VOs and submits,
    /// 3. the contract verifies and settles the payment,
    /// 4. the user decrypts the results, if they verified.
    ///
    /// # Errors
    ///
    /// Propagates chain failures and malformed-result errors.
    pub fn search(
        &mut self,
        chain: &mut Blockchain,
        query: &Query,
        payment: u128,
    ) -> Result<SearchOutcome, SlicerError> {
        self.search_with(chain, query, payment, |resp| resp)
    }

    /// [`SlicerInstance::search`] with a hook that lets tests and examples
    /// replace the cloud's honest response with a tampered one before it is
    /// submitted for verification.
    ///
    /// # Errors
    ///
    /// Propagates chain failures and malformed-result errors.
    pub fn search_with(
        &mut self,
        chain: &mut Blockchain,
        query: &Query,
        payment: u128,
        tamper: impl FnOnce(crate::messages::CloudResponse) -> crate::messages::CloudResponse,
    ) -> Result<SearchOutcome, SlicerError> {
        let mut root = self.telemetry.span("protocol.search");
        let trace_id = root.ctx().map_or(0, |c| c.trace.0);

        let mut token_span = self.telemetry.span("phase.token");
        let token_start = self.clock.now_nanos();
        let tokens = self.user.tokens_for(query);
        root.attr("tokens", tokens.len());
        if tokens.is_empty() {
            // Nothing indexed can match: `T` (trusted, owner-signed state)
            // has no entry, so the result is provably empty without paying.
            // The cloud and chain observe nothing; the declared ledger
            // records an empty access pattern so audits stay aligned.
            self.declared
                .searches
                .push(SearchLeakage { tokens: Vec::new() });
            return Ok(SearchOutcome {
                records: Vec::new(),
                verified: true,
                request_gas: 0,
                verify_gas: 0,
                paid_cloud: false,
                profile: SearchProfile::default(),
                trace_id,
            });
        }

        // 1. Register the request with tokens + escrow.
        self.request_counter += 1;
        let rid = sha256(
            &[
                self.user_addr.0.as_slice(),
                &self.request_counter.to_be_bytes(),
            ]
            .concat(),
        );
        let width = self.owner.keys().trapdoor().public().trapdoor_bytes();
        let chain_tokens: Vec<_> = tokens.iter().map(|t| t.to_chain(width)).collect();
        let call = SlicerCall::RequestSearch {
            request_id: rid,
            cloud: self.cloud_addr,
            tokens: chain_tokens.clone(),
        };
        let req_receipt = chain.send_transaction(Transaction::call(
            self.user_addr,
            self.contract,
            payment,
            call.encode(),
        ))?;
        let token_wall = self.elapsed(token_start);
        if token_span.is_recording() {
            token_span.attr("tokens", tokens.len());
            token_span.attr("gas.used", req_receipt.gas_used);
            token_span.attr("tx.hash", hex_bytes(&req_receipt.tx_hash.0));
        }
        drop(token_span);

        // 2. Cloud searches and proves (tokens travel via the chain in the
        //    real deployment; the cloud reads the same values here).
        let mut search_span = self.telemetry.span("phase.search");
        let search_start = self.clock.now_nanos();
        let honest = self.cloud.respond(&tokens)?;
        self.declared
            .searches
            .push(SearchLeakage::of(&honest.results));
        self.declared.token_history.extend(tokens.iter().cloned());
        let response = tamper(honest);
        let search_wall = self.elapsed(search_start);
        search_span.attr("results", response.results.len());
        drop(search_span);

        // 3. Submit for verification and settlement.
        let mut verify_span = self.telemetry.span("phase.verify");
        let verify_start = self.clock.now_nanos();
        // The cloud re-sends the request's tokens; the contract checks them
        // against the commitment the request stored.
        let submit = SlicerCall::SubmitResult {
            request_id: rid,
            tokens: chain_tokens,
            entries: response.entries(),
        };
        let mut tx = Transaction::call(self.cloud_addr, self.contract, 0, submit.encode());
        tx.gas_limit = 100_000_000; // verification of large result sets
        let sub_receipt = chain.send_transaction(tx)?;
        let verify_wall = self.elapsed(verify_start);
        let verified = sub_receipt.status.is_success() && sub_receipt.output == [1];
        // The submit transaction's gas splits between the Verify phase
        // (everything but the escrow transfer) and the Settle phase (the
        // transfer) — see the phase-gas attribution below. The span attrs
        // carry the same split so a gas-weighted profile fold over sibling
        // spans sums to the transaction totals without double-counting.
        let settle_gas = sub_receipt.gas_breakdown.transfer;
        if verify_span.is_recording() {
            verify_span.attr("gas.used", sub_receipt.gas_used - settle_gas);
            verify_span.attr("tx.hash", hex_bytes(&sub_receipt.tx_hash.0));
            verify_span.attr("verified", verified);
        }
        drop(verify_span);

        // 4. Settle (seal the block carrying the payment) and decrypt the
        //    results the contract verified; an unverified answer is
        //    refunded and never read.
        let mut settle_span = self.telemetry.span("phase.settle");
        let settle_start = self.clock.now_nanos();
        chain.seal_block();
        let records = if verified {
            self.user.decrypt(&response.results)?
        } else {
            Vec::new()
        };
        let settle_wall = self.elapsed(settle_start);

        // Gas attribution: the request transaction is the Token phase; the
        // submit transaction splits into Verify (everything but the escrow
        // transfer) and Settle (the transfer). Search is off-chain. The
        // phase gas therefore sums exactly to request_gas + verify_gas.
        let paid_cloud = verified && payment > 0;
        if settle_span.is_recording() {
            settle_span.attr("gas.used", settle_gas);
            settle_span.attr("paid_cloud", paid_cloud);
            settle_span.attr("records", records.len());
        }
        drop(settle_span);
        let mut gas = req_receipt.gas_breakdown.clone();
        gas.merge(&sub_receipt.gas_breakdown);
        let profile = SearchProfile {
            token: PhaseStat {
                wall: token_wall,
                gas: req_receipt.gas_used,
            },
            search: PhaseStat {
                wall: search_wall,
                gas: 0,
            },
            verify: PhaseStat {
                wall: verify_wall,
                gas: sub_receipt.gas_used - settle_gas,
            },
            settle: PhaseStat {
                wall: settle_wall,
                gas: settle_gas,
            },
            gas,
        };
        // Phase latency histograms come from the phase spans themselves
        // (`phase.<name>.ns`); only the gas counters are explicit.
        for (name, stat) in profile.phases() {
            self.telemetry.count(&format!("phase.{name}.gas"), stat.gas);
        }
        for (category, gas) in profile.gas.entries() {
            self.telemetry.count(&format!("gas.{category}"), gas);
        }
        drop(root);
        self.telemetry.log(
            Level::Info,
            "slicer.search",
            "search complete",
            vec![
                ("tokens", tokens.len().into()),
                ("records", records.len().into()),
                ("verified", verified.into()),
                ("request.gas", req_receipt.gas_used.into()),
                ("verify.gas", sub_receipt.gas_used.into()),
            ],
        );

        Ok(SearchOutcome {
            records,
            verified,
            request_gas: req_receipt.gas_used,
            verify_gas: sub_receipt.gas_used,
            paid_cloud,
            profile,
            trace_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::malicious;

    /// An 8-bit deployment with `db` built, telemetry off.
    fn system(seed: u64, db: &[(RecordId, u64)]) -> (SlicerInstance, Blockchain) {
        let mut chain = Blockchain::new();
        let mut inst = SlicerInstance::try_setup_with(
            SlicerConfig::test_8bit(),
            seed,
            &mut chain,
            TelemetryHandle::disabled(),
        )
        .unwrap();
        inst.build(&mut chain, db).unwrap();
        (inst, chain)
    }

    fn db(n: u64) -> Vec<(RecordId, u64)> {
        (0..n)
            .map(|i| (RecordId::from_u64(i), (i * 13) % 256))
            .collect()
    }

    #[test]
    fn end_to_end_equality() {
        let (mut inst, mut chain) = system(1, &db(30));
        let out = inst.search(&mut chain, &Query::equal(13), 100).unwrap();
        assert!(out.verified);
        assert_eq!(out.records, vec![RecordId::from_u64(1)]);
        assert!(out.paid_cloud);
    }

    #[test]
    fn end_to_end_order_query_matches_oracle() {
        let data = db(40);
        let (mut inst, mut chain) = system(2, &data);
        for q in [Query::less_than(60), Query::greater_than(200)] {
            let out = inst.search(&mut chain, &q, 10).unwrap();
            assert!(out.verified, "query {q:?}");
            let mut got: Vec<u64> = out.records.iter().map(|r| r.as_u64().unwrap()).collect();
            got.sort_unstable();
            let mut want: Vec<u64> = data
                .iter()
                .filter(|(_, v)| q.matches(*v))
                .map(|(id, _)| id.as_u64().unwrap())
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "query {q:?}");
        }
    }

    #[test]
    fn empty_query_settles_nothing() {
        let (mut inst, mut chain) = system(3, &[(RecordId::from_u64(1), 10)]);
        let out = inst.search(&mut chain, &Query::equal(99), 500).unwrap();
        assert!(out.verified);
        assert!(out.records.is_empty());
        assert!(!out.paid_cloud);
        assert_eq!(out.request_gas, 0);
    }

    #[test]
    fn search_after_insert_sees_fresh_data_and_verifies() {
        let (mut inst, mut chain) = system(4, &db(10));
        inst.insert(&mut chain, &[(RecordId::from_u64(100), 13)])
            .unwrap();
        let out = inst.search(&mut chain, &Query::equal(13), 10).unwrap();
        assert!(out.verified);
        let mut got: Vec<u64> = out.records.iter().map(|r| r.as_u64().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 100]);
    }

    #[test]
    fn tampered_response_fails_verification_and_refunds() {
        let (mut inst, mut chain) = system(5, &db(30));
        let (_, user_addr, cloud_addr) = inst.addresses();
        let user_before = chain.balance(&user_addr);
        let cloud_before = chain.balance(&cloud_addr);

        let out = inst
            .search_with(
                &mut chain,
                &Query::less_than(100),
                1_000,
                malicious::drop_record,
            )
            .unwrap();
        assert!(!out.verified, "dropped record must not verify");
        assert!(!out.paid_cloud);
        // Escrow refunded: user balance unchanged, cloud not paid.
        assert_eq!(chain.balance(&user_addr), user_before);
        assert_eq!(chain.balance(&cloud_addr), cloud_before);
    }

    #[test]
    fn profile_reconciles_with_receipt_gas() {
        let (mut inst, mut chain) = system(7, &db(30));
        let out = inst
            .search(&mut chain, &Query::less_than(100), 1_000)
            .unwrap();
        assert!(out.verified);
        assert_eq!(out.profile.total_gas(), out.request_gas + out.verify_gas);
        assert_eq!(out.profile.gas.total(), out.profile.total_gas());
        assert_eq!(out.profile.token.gas, out.request_gas);
        assert_eq!(out.profile.search.gas, 0, "the cloud search is off-chain");
        // One escrow transfer settles the fee.
        assert_eq!(out.profile.settle.gas, 9_000);
        assert_eq!(out.profile.gas.transfer, 9_000);
    }

    #[test]
    fn gas_counters_predict_search_gas_exactly() {
        // The `gas.<category>` counters add up to what the searches paid,
        // and an honest entry costs one H_prime candidate and no
        // Miller–Rabin round: the contract checks the cloud's hint.
        let telemetry = TelemetryHandle::enabled();
        let mut chain = Blockchain::new();
        let mut inst = SlicerInstance::try_setup_with(
            SlicerConfig::test_8bit(),
            9,
            &mut chain,
            telemetry.clone(),
        )
        .unwrap();
        inst.build(&mut chain, &db(30)).unwrap();
        let (mut paid, mut entries) = (0, 0);
        for q in [
            Query::equal(13),
            Query::less_than(100),
            Query::greater_than(200),
        ] {
            let tokens = inst.user.tokens_for(&q).len() as u64;
            let out = inst.search(&mut chain, &q, 10).unwrap();
            assert!(out.verified, "{q:?}");
            paid += out.request_gas + out.verify_gas;
            entries += tokens;
        }
        let counter = |category: &str| {
            telemetry
                .counter_value(&format!("gas.{category}"))
                .unwrap_or_else(|| panic!("gas.{category} is counted"))
        };
        let categories = slicer_chain::GasBreakdown::default()
            .entries()
            .map(|(name, _)| name);
        assert_eq!(categories.iter().map(|c| counter(c)).sum::<u64>(), paid);
        assert_eq!(counter("miller_rabin"), 0);
        let schedule = chain.schedule();
        assert_eq!(counter("hprime"), entries * schedule.hprime_candidate);
        assert_eq!(
            counter("modexp"),
            entries * schedule.modexp_cost(64, 128, 64)
        );
    }

    #[test]
    fn telemetry_covers_all_six_phases() {
        use slicer_telemetry::{LogicalClock, MemorySink};
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new());
        let handle = TelemetryHandle::with(Arc::new(LogicalClock::default()), sink.clone() as _);
        let mut chain = Blockchain::new();
        let mut inst = SlicerInstance::try_setup_with(
            SlicerConfig::test_8bit(),
            8,
            &mut chain,
            handle.clone(),
        )
        .unwrap();
        inst.build(&mut chain, &db(20)).unwrap();
        inst.insert(&mut chain, &[(RecordId::from_u64(100), 13)])
            .unwrap();
        let out = inst.search(&mut chain, &Query::equal(13), 10).unwrap();
        assert!(out.verified);
        let snap = handle.snapshot();
        for phase in ["setup", "build", "token", "search", "verify", "settle"] {
            let hist = format!("phase.{phase}.ns");
            let gas = format!("phase.{phase}.gas");
            assert!(
                snap.histograms().iter().any(|(n, _)| *n == hist),
                "missing {hist}"
            );
            assert!(
                snap.counters().iter().any(|(n, _)| *n == gas),
                "missing {gas}"
            );
        }
        // Party-level instrumentation reported through the same registry.
        assert!(snap.counter("owner.entries.emitted").unwrap() > 0);
        assert!(snap.counter("cloud.index.hits").unwrap() > 0);
        assert!(snap.counter("user.tokens.generated").unwrap() > 0);
        assert!(!sink.is_empty(), "spans and counters emit sink events");
    }

    #[test]
    fn honest_search_pays_the_cloud() {
        let (mut inst, mut chain) = system(6, &db(30));
        let (_, user_addr, cloud_addr) = inst.addresses();
        let user_before = chain.balance(&user_addr);
        let cloud_before = chain.balance(&cloud_addr);
        let out = inst
            .search(&mut chain, &Query::less_than(100), 1_000)
            .unwrap();
        assert!(out.verified);
        assert_eq!(chain.balance(&user_addr), user_before - 1_000);
        assert_eq!(chain.balance(&cloud_addr), cloud_before + 1_000);
    }
}
