//! The in-process replay: the wire run's requests, in order, on state
//! identical to the daemon's, with the benchmark's own spans around
//! calls into each layer's public API.
//!
//! The replay reaches the daemon's state because it repeats what
//! `slicerd` does for each request: a fresh deployment with the same key
//! seed and value width, one bulk insert committed as generation 1, then
//! every acknowledged ingest followed by a snapshot commit. Searches do
//! not change the accumulator; their chain transactions are repeated so
//! that the chain, and therefore every receipt's gas, matches too.

use crate::daemon::{Workdir, KEY_SEED, THREADS};
use crate::ops::{Op, Oracle, PAYMENT, VALUE_BITS};
use crate::stats::{mean, median};
use crate::wire::WireRun;
use slicer_chain::{Blockchain, GasBreakdown, SlicerCall, Transaction};
use slicer_core::{DataOwner, RecordId, SlicerConfig, SlicerInstance};
use slicer_persist::{SegmentStore, Snapshot};
use slicer_telemetry::TelemetryHandle;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Bytes of one user record on the wire: a `u64` id and a `u64` value.
const RECORD_BYTES: f64 = 16.0;
/// Restores timed by the replay; the restore metrics are their medians.
const RESTORES: usize = 3;

/// A per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn config() -> SlicerConfig {
    SlicerConfig::with_bits(VALUE_BITS).with_workers(THREADS)
}

fn digest(owner: &DataOwner) -> Vec<u8> {
    owner
        .accumulator()
        .to_bytes_be_padded(owner.config().accumulator.element_bytes())
}

fn batch(records: &[(u64, u64)]) -> Vec<(RecordId, u64)> {
    records
        .iter()
        .map(|&(id, v)| (RecordId::from_u64(id), v))
        .collect()
}

/// Milliseconds `f` takes, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// The owner's digest after the base data and every acknowledged ingest
/// of `wire` — the untraced run's check on the daemon's final state.
pub fn replay_digest(base: &[(u64, u64)], wire: &WireRun) -> Result<Vec<u8>, String> {
    let mut owner = DataOwner::new(config(), KEY_SEED);
    owner.insert(&batch(base)).map_err(|e| e.to_string())?;
    for record in &wire.ops {
        if let (Op::Ingest(id, v), true) = (&record.op, record.ok) {
            owner
                .insert(&batch(&[(*id, *v)]))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(digest(&owner))
}

/// Per-search layer timings, milliseconds, and counts.
#[derive(Debug, Default)]
struct SearchTrace {
    tokens: f64,
    search: f64,
    prove: f64,
    decrypt: f64,
    request: f64,
    verify: f64,
    settle: f64,
    untraced: f64,
    token_count: usize,
    hits: usize,
    generations: u64,
    primes: usize,
}

impl SearchTrace {
    fn layer_sum(&self) -> f64 {
        self.tokens
            + self.search
            + self.prove
            + self.decrypt
            + self.request
            + self.verify
            + self.settle
    }
}

/// Per-ingest layer timings, milliseconds, and sizes.
#[derive(Debug, Default)]
struct IngestTrace {
    owner: f64,
    cloud: f64,
    sync: f64,
    publish: f64,
    capture: f64,
    commit: f64,
    entries: usize,
    primes: usize,
    commit_bytes: u64,
    commit_files: u64,
    set_accumulator_gas: u64,
}

impl IngestTrace {
    fn layer_sum(&self) -> f64 {
        self.owner + self.cloud + self.sync + self.publish + self.capture + self.commit
    }
}

/// Bytes and files the commit of `generation` wrote into `dir`.
fn generation_files(dir: &Path, generation: u64) -> Result<(u64, u64), String> {
    let tag = format!("-{generation:010}");
    let mut bytes = 0;
    let mut files = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.contains(&tag) || name == "CURRENT" {
            bytes += entry.metadata().map_err(|e| e.to_string())?.len();
            files += 1;
        }
    }
    Ok((bytes, files))
}

/// The traced replay's findings.
#[derive(Debug, Default)]
pub struct Layers {
    /// Every per-layer metric, in report order.
    pub metrics: Vec<Metric>,
    /// Mismatches against the wire run.
    pub failures: Vec<String>,
    /// Operations replayed.
    pub replayed: usize,
}

/// Replays `wire`'s requests in process and measures each layer.
pub fn replay(base: &[(u64, u64)], wire: &WireRun, work: &Workdir) -> Result<Layers, String> {
    let mut layers = Layers::default();
    let mut chain = Blockchain::new();
    let mut inst =
        SlicerInstance::try_setup_with(config(), KEY_SEED, &mut chain, TelemetryHandle::disabled())
            .map_err(|e| e.to_string())?;
    inst.insert(&mut chain, &batch(base))
        .map_err(|e| e.to_string())?;
    let store_dir = work.join("replay");
    let store = SegmentStore::open(&store_dir).map_err(|e| e.to_string())?;
    store
        .commit(&Snapshot::capture(KEY_SEED, &inst.owner, &inst.cloud))
        .map_err(|e| e.to_string())?;
    let (owner_addr, _, _) = inst.addresses();
    let contract = inst.contract_address();
    let mut oracle = Oracle::new(base);

    let mut searches: Vec<(SearchTrace, f64)> = Vec::new();
    let mut ingests: Vec<(IngestTrace, f64)> = Vec::new();
    let mut gas = GasBreakdown::default();
    let mut wire_search_gas = 0u64;

    for record in &wire.ops {
        if !record.ok {
            continue;
        }
        layers.replayed += 1;
        match &record.op {
            Op::Search(query) => {
                let mut t = SearchTrace::default();
                let (tokens, ms) = timed(|| inst.user.tokens_for(query));
                t.tokens = ms;
                t.token_count = tokens.len();
                t.generations = tokens.iter().map(|k| u64::from(k.updates)).sum();
                t.primes = inst.cloud.storage().primes.len();
                let mut ids = Vec::new();
                if !tokens.is_empty() {
                    let (results, ms) = timed(|| inst.cloud.search(&tokens));
                    t.search = ms;
                    t.hits = results.iter().map(|r| r.er.len()).sum();
                    let (vos, ms) = timed(|| inst.cloud.prove(&results));
                    t.prove = ms;
                    black_box(vos.map_err(|e| e.to_string())?);
                    let (plain, ms) = timed(|| inst.user.decrypt(&results));
                    t.decrypt = ms;
                    ids = plain.map_err(|e| e.to_string())?;
                }
                let (outcome, ms) = timed(|| inst.search(&mut chain, query, PAYMENT));
                t.untraced = ms;
                let outcome = outcome.map_err(|e| e.to_string())?;
                let found: Vec<u64> = outcome
                    .records
                    .iter()
                    .filter_map(RecordId::as_u64)
                    .collect();
                let direct: Vec<u64> = ids.iter().filter_map(RecordId::as_u64).collect();
                if !outcome.verified
                    || !oracle.check(query, &found)
                    || !oracle.check(query, &direct)
                {
                    layers
                        .failures
                        .push(format!("replayed {query:?} disagrees with the oracle"));
                }
                let total = outcome.request_gas + outcome.verify_gas;
                if total != record.gas || outcome.profile.gas.total() != total {
                    layers.failures.push(format!(
                        "replayed {query:?} spent {total} gas ({} by category), the daemon {}",
                        outcome.profile.gas.total(),
                        record.gas
                    ));
                }
                if record.in_window {
                    gas.merge(&outcome.profile.gas);
                    wire_search_gas += record.gas;
                }
                let p = &outcome.profile;
                t.request = (p.token.wall.as_secs_f64() * 1e3 - t.tokens).max(0.0);
                t.verify = p.verify.wall.as_secs_f64() * 1e3;
                t.settle = (p.settle.wall.as_secs_f64() * 1e3 - t.decrypt).max(0.0);
                searches.push((t, record.latency_ms));
            }
            Op::Ingest(id, value) => {
                let mut t = IngestTrace::default();
                let rows = batch(&[(*id, *value)]);
                let (out, ms) = timed(|| inst.owner.insert(&rows));
                t.owner = ms;
                let out = out.map_err(|e| e.to_string())?;
                t.entries = out.entries.len();
                t.primes = out.primes.len();
                let (ingested, ms) = timed(|| inst.cloud.ingest(&out));
                t.cloud = ms;
                ingested.map_err(|e| e.to_string())?;
                let ((), ms) = timed(|| inst.user.sync_state(inst.owner.state().user_view()));
                t.sync = ms;
                let acc = digest(&inst.owner);
                let call = SlicerCall::SetAccumulator(acc.clone()).encode();
                let (receipt, ms) = timed(|| {
                    let receipt =
                        chain.send_transaction(Transaction::call(owner_addr, contract, 0, call));
                    chain.seal_block();
                    receipt
                });
                t.publish = ms;
                t.set_accumulator_gas = receipt.map_err(|e| e.to_string())?.gas_used;
                let (snapshot, ms) =
                    timed(|| Snapshot::capture(KEY_SEED, &inst.owner, &inst.cloud));
                t.capture = ms;
                let (generation, ms) = timed(|| store.commit(&snapshot));
                t.commit = ms;
                let generation = generation.map_err(|e| e.to_string())?;
                (t.commit_bytes, t.commit_files) = generation_files(&store_dir, generation)?;
                if acc != record.digest {
                    layers.failures.push(format!(
                        "replayed ingest of {id} diverged from the daemon's digest"
                    ));
                }
                oracle.insert(*id, *value);
                ingests.push((t, record.latency_ms));
            }
        }
    }
    if digest(&inst.owner) != wire.digest {
        layers
            .failures
            .push("the replay's final digest differs from the daemon's".into());
    }
    if gas.total() != wire_search_gas {
        layers.failures.push(format!(
            "gas categories sum to {}, the window's searches spent {wire_search_gas}",
            gas.total()
        ));
    }

    let mut load_ms = Vec::new();
    let mut restore_ms = Vec::new();
    for _ in 0..RESTORES {
        let (loaded, ms) = timed(|| store.load());
        load_ms.push(ms);
        let (_, snapshot) = loaded
            .map_err(|e| e.to_string())?
            .ok_or("the replay store holds no generation")?;
        let mut fresh = Blockchain::new();
        let (restored, ms) = timed(|| {
            SlicerInstance::try_restore_with(
                config(),
                KEY_SEED,
                &mut fresh,
                TelemetryHandle::disabled(),
                snapshot.owner,
                snapshot.accumulator,
                snapshot.cloud,
            )
        });
        restore_ms.push(ms);
        if digest(&restored.map_err(|e| e.to_string())?.owner) != wire.digest {
            layers
                .failures
                .push("a restored replay instance has another digest".into());
        }
    }

    layers.metrics = summarize(wire, &searches, &ingests, &gas, &load_ms, &restore_ms);
    Ok(layers)
}

/// Folds the replay's samples into the per-layer metrics.
fn summarize(
    wire: &WireRun,
    searches: &[(SearchTrace, f64)],
    ingests: &[(IngestTrace, f64)],
    gas: &GasBreakdown,
    load_ms: &[f64],
    restore_ms: &[f64],
) -> Vec<Metric> {
    // Layer times are medians over the calls that did the work; searches
    // without tokens never reach the cloud or the chain.
    let working: Vec<&SearchTrace> = searches
        .iter()
        .map(|(t, _)| t)
        .filter(|t| t.token_count > 0)
        .collect();
    let s = |f: fn(&SearchTrace) -> f64| median(&working.iter().map(|t| f(t)).collect::<Vec<_>>());
    let s_mean =
        |f: fn(&SearchTrace) -> f64| mean(&searches.iter().map(|(t, _)| f(t)).collect::<Vec<_>>());
    let i =
        |f: fn(&IngestTrace) -> f64| median(&ingests.iter().map(|(t, _)| f(t)).collect::<Vec<_>>());
    let i_mean =
        |f: fn(&IngestTrace) -> f64| mean(&ingests.iter().map(|(t, _)| f(t)).collect::<Vec<_>>());
    let stat_rtt = median(&wire.stat_rtt_ms);
    let window_searches = searches.len().max(1) as f64;
    let per_search = |g: u64| g as f64 / window_searches;
    let tokens: usize = searches.iter().map(|(t, _)| t.token_count).sum();
    let generations: u64 = searches.iter().map(|(t, _)| t.generations).sum();
    let wire_bytes: Vec<f64> = wire.ops.iter().map(|r| r.wire_bytes as f64).collect();
    let unaccounted_search: Vec<f64> = searches
        .iter()
        .map(|(t, wire_ms)| wire_ms - t.layer_sum() - stat_rtt)
        .collect();
    let unaccounted_ingest: Vec<f64> = ingests
        .iter()
        .map(|(t, wire_ms)| wire_ms - t.layer_sum() - stat_rtt)
        .collect();
    let traced = median(&working.iter().map(|t| t.layer_sum()).collect::<Vec<_>>());
    let untraced = median(&working.iter().map(|t| t.untraced).collect::<Vec<_>>());
    let commit_bytes = i_mean(|t| t.commit_bytes as f64);

    vec![
        ("daemon.stat_rtt_ms", stat_rtt, "ms"),
        ("daemon.wire_bytes_per_request", mean(&wire_bytes), "B"),
        ("user.tokens_ms", s(|t| t.tokens), "ms"),
        (
            "user.tokens_per_search",
            s_mean(|t| t.token_count as f64),
            "count",
        ),
        ("user.decrypt_ms", s(|t| t.decrypt), "ms"),
        ("user.sync_ms", i(|t| t.sync), "ms"),
        ("cloud.search_ms", s(|t| t.search), "ms"),
        ("cloud.hits_per_search", s_mean(|t| t.hits as f64), "count"),
        (
            "cloud.generations_per_token",
            generations as f64 / tokens.max(1) as f64,
            "count",
        ),
        ("cloud.prove_ms", s(|t| t.prove), "ms"),
        ("cloud.primes", s_mean(|t| t.primes as f64), "count"),
        ("cloud.ingest_ms", i(|t| t.cloud), "ms"),
        ("chain.request_ms", s(|t| t.request), "ms"),
        ("chain.verify_ms", s(|t| t.verify), "ms"),
        ("chain.settle_ms", s(|t| t.settle), "ms"),
        ("chain.publish_ms", i(|t| t.publish), "ms"),
        ("gas.intrinsic", per_search(gas.intrinsic), "gas"),
        ("gas.sstore", per_search(gas.sstore), "gas"),
        ("gas.sload", per_search(gas.sload), "gas"),
        ("gas.hash", per_search(gas.hash), "gas"),
        ("gas.field_mul", per_search(gas.field_mul), "gas"),
        ("gas.hprime", per_search(gas.hprime), "gas"),
        ("gas.miller_rabin", per_search(gas.miller_rabin), "gas"),
        ("gas.modexp", per_search(gas.modexp), "gas"),
        ("gas.transfer", per_search(gas.transfer), "gas"),
        ("gas.event", per_search(gas.event), "gas"),
        ("gas.other", per_search(gas.other + gas.code_deposit), "gas"),
        (
            "gas.set_accumulator",
            i_mean(|t| t.set_accumulator_gas as f64),
            "gas",
        ),
        ("owner.insert_ms", i(|t| t.owner), "ms"),
        (
            "owner.entries_per_ingest",
            i_mean(|t| t.entries as f64),
            "count",
        ),
        (
            "owner.primes_per_ingest",
            i_mean(|t| t.primes as f64),
            "count",
        ),
        ("persist.capture_ms", i(|t| t.capture), "ms"),
        ("persist.commit_ms", i(|t| t.commit), "ms"),
        ("persist.bytes_per_commit", commit_bytes, "B"),
        (
            "persist.files_per_commit",
            i_mean(|t| t.commit_files as f64),
            "count",
        ),
        ("persist.write_amp", commit_bytes / RECORD_BYTES, "ratio"),
        ("persist.load_ms", median(load_ms), "ms"),
        ("restore.instance_ms", median(restore_ms), "ms"),
        ("unaccounted.search_ms", median(&unaccounted_search), "ms"),
        ("unaccounted.ingest_ms", median(&unaccounted_ingest), "ms"),
        ("trace.overhead_pct", (traced / untraced - 1.0) * 100.0, "%"),
    ]
}
