//! Experiment drivers: one function per paper figure/table group.
//!
//! Absolute numbers differ from the paper (Rust vs Python, different
//! hardware, simulated chain) but each experiment preserves the paper's
//! parameter sweep and reports the same quantities, so curve *shapes* are
//! directly comparable. `scale` multiplies the 10K–160K record sweep so the
//! full suite can run in CI; `--scale 1.0` reproduces the paper's sizes.

use crate::table::Table;
use crate::{mb, record_sweep, secs};
use slicer_core::{
    CloudServer, DataOwner, Query, RecordId, SlicerConfig, SlicerSystem, WitnessStrategy,
};
use slicer_telemetry::{Clock, MonotonicClock, TelemetryHandle};
use slicer_workload::{sample_query_values, DatasetSpec};

/// Seconds elapsed since `start_ns` on `clock` (timing goes through the
/// injectable telemetry [`Clock`] so the det.wall_clock lint holds).
fn secs_since(clock: &MonotonicClock, start_ns: u64) -> f64 {
    clock.now_nanos().saturating_sub(start_ns) as f64 * 1e-9
}

fn dataset(n: usize, bits: u8, seed: u64) -> Vec<(RecordId, u64)> {
    DatasetSpec::uniform(n, bits, seed)
        .generate()
        .into_iter()
        .map(|(id, v)| (RecordId(id), v))
        .collect()
}

fn built_pair(n: usize, bits: u8, seed: u64) -> (DataOwner, CloudServer, Vec<(RecordId, u64)>) {
    let db = dataset(n, bits, seed);
    let mut owner = DataOwner::new(SlicerConfig::with_bits(bits), seed);
    let out = owner.build(&db).expect("benchmark data is in-domain");
    let mut cloud = CloudServer::new(
        owner.config().clone(),
        owner.keys().trapdoor().public().clone(),
    );
    cloud.ingest(&out).expect("fresh cloud accepts the build");
    (owner, cloud, db)
}

/// Fig. 3 (build time) and Fig. 4 (build storage): one sweep covers all
/// four panels.
pub fn build_experiments(scale: f64, bits_list: &[u8]) -> Vec<Table> {
    let headers_for = |unit: &str| {
        let mut h = vec!["records".to_string()];
        h.extend(bits_list.iter().map(|b| format!("{b}-bit {unit}")));
        h
    };
    let mk = |id: &str, title: &str, unit: &str| {
        let headers: Vec<String> = headers_for(unit);
        let refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        Table::new(id, title, &refs)
    };
    let mut fig3a = mk("fig3a", "Build: index building time", "(s)");
    let mut fig3b = mk("fig3b", "Build: ADS building time", "(s)");
    let mut fig4a = mk("fig4a", "Build: index storage", "(MB)");
    let mut fig4b = mk("fig4b", "Build: ADS storage (prime list)", "(MB)");

    for &n in &record_sweep(scale) {
        let mut r3a = vec![n.to_string()];
        let mut r3b = vec![n.to_string()];
        let mut r4a = vec![n.to_string()];
        let mut r4b = vec![n.to_string()];
        for &bits in bits_list {
            let db = dataset(n, bits, 42);
            let mut owner = DataOwner::new(SlicerConfig::with_bits(bits), 42);
            let out = owner.build(&db).expect("in-domain");
            let mut cloud = CloudServer::new(
                owner.config().clone(),
                owner.keys().trapdoor().public().clone(),
            );
            cloud.ingest(&out).expect("fresh cloud");
            r3a.push(secs(out.timing.index));
            r3b.push(secs(out.timing.ads));
            r4a.push(mb(cloud.storage().index.size_bytes()));
            r4b.push(mb(cloud.storage().primes.size_bytes()));
        }
        fig3a.push_row(r3a);
        fig3b.push_row(r3b);
        fig4a.push_row(r4a);
        fig4b.push_row(r4b);
    }
    vec![fig3a, fig3b, fig4a, fig4b]
}

/// Fig. 5 (search time) and Fig. 6 (search overhead): equality and order
/// queries over the record sweep, 8- and 16-bit settings as in the paper.
pub fn search_experiments(scale: f64, bits_list: &[u8], queries: usize) -> Vec<Table> {
    let headers_for = |unit: &str| {
        let mut h = vec!["records".to_string()];
        h.extend(bits_list.iter().map(|b| format!("{b}-bit {unit}")));
        h
    };
    let mk = |id: &str, title: &str, unit: &str| {
        let headers: Vec<String> = headers_for(unit);
        let refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        Table::new(id, title, &refs)
    };
    let mut fig5a = mk("fig5a", "Equality search: result generation time", "(s)");
    let mut fig5b = mk("fig5b", "Equality search: VO generation time", "(s)");
    let mut fig5c = mk("fig5c", "Order search: result generation time", "(s)");
    let mut fig5d = mk("fig5d", "Order search: VO generation time", "(s)");
    let mut fig6a = mk("fig6a", "Order search: number of search tokens", "(tokens)");
    let mut fig6b = mk("fig6b", "Equality search: encrypted result size", "(KB)");
    let mut fig6c = mk("fig6c", "Order search: encrypted result size", "(KB)");
    let mut fig6d = mk("fig6d", "Order search: VO size", "(bytes)");

    for &n in &record_sweep(scale) {
        let mut rows: Vec<Vec<String>> = (0..8).map(|_| vec![n.to_string()]).collect();
        for &bits in bits_list {
            let (owner, mut cloud, db) = built_pair(n, bits, 42);
            cloud.set_strategy(WitnessStrategy::Direct);
            let raw: Vec<([u8; 16], u64)> = db.iter().map(|(id, v)| (id.0, *v)).collect();
            let values = sample_query_values(&raw, queries, 7);

            let (mut eq_search, mut eq_vo, mut eq_bytes) = (0.0f64, 0.0f64, 0usize);
            let (mut ord_search, mut ord_vo, mut ord_bytes) = (0.0f64, 0.0f64, 0usize);
            let (mut ord_tokens, mut ord_vo_bytes) = (0usize, 0usize);
            let clock = MonotonicClock::new();
            for &v in &values {
                // Equality query.
                let tokens = owner.search_tokens(&Query::equal(v));
                let t0 = clock.now_nanos();
                let results = cloud.search(&tokens);
                eq_search += secs_since(&clock, t0);
                eq_bytes += results.iter().map(|r| r.er.len() * 32).sum::<usize>();
                let t0 = clock.now_nanos();
                let vos = cloud.prove(&results).expect("bench state is honest");
                eq_vo += secs_since(&clock, t0);
                drop(vos);

                // Order query (< v).
                let tokens = owner.search_tokens(&Query::less_than(v));
                ord_tokens += tokens.len();
                let t0 = clock.now_nanos();
                let results = cloud.search(&tokens);
                ord_search += secs_since(&clock, t0);
                ord_bytes += results.iter().map(|r| r.er.len() * 32).sum::<usize>();
                let t0 = clock.now_nanos();
                let vos = cloud.prove(&results).expect("bench state is honest");
                ord_vo += secs_since(&clock, t0);
                ord_vo_bytes += vos.iter().map(Vec::len).sum::<usize>();
            }
            let q = queries as f64;
            rows[0].push(format!("{:.4}", eq_search / q));
            rows[1].push(format!("{:.4}", eq_vo / q));
            rows[2].push(format!("{:.4}", ord_search / q));
            rows[3].push(format!("{:.4}", ord_vo / q));
            rows[4].push(format!("{:.1}", ord_tokens as f64 / q));
            rows[5].push(format!("{:.3}", eq_bytes as f64 / q / 1024.0));
            rows[6].push(format!("{:.3}", ord_bytes as f64 / q / 1024.0));
            rows[7].push(format!("{:.0}", ord_vo_bytes as f64 / q));
        }
        let mut it = rows.into_iter();
        fig5a.push_row(it.next().expect("8 rows"));
        fig5b.push_row(it.next().expect("8 rows"));
        fig5c.push_row(it.next().expect("8 rows"));
        fig5d.push_row(it.next().expect("8 rows"));
        fig6a.push_row(it.next().expect("8 rows"));
        fig6b.push_row(it.next().expect("8 rows"));
        fig6c.push_row(it.next().expect("8 rows"));
        fig6d.push_row(it.next().expect("8 rows"));
    }
    vec![fig5a, fig5b, fig5c, fig5d, fig6a, fig6b, fig6c, fig6d]
}

/// Fig. 7: insertion time after a 160K-record preload.
pub fn insert_experiment(scale: f64, bits_list: &[u8]) -> Vec<Table> {
    let headers_full: Vec<String> = {
        let mut h = vec!["inserted".to_string()];
        for b in bits_list {
            h.push(format!("{b}-bit index (s)"));
            h.push(format!("{b}-bit ADS (s)"));
        }
        h
    };
    let refs: Vec<&str> = headers_full.iter().map(String::as_str).collect();
    let mut fig7 = Table::new(
        "fig7",
        "Insert time after preloading the largest dataset",
        &refs,
    );

    let preload = *record_sweep(scale).last().expect("non-empty sweep");
    for &m in &record_sweep(scale) {
        let mut row = vec![m.to_string()];
        for &bits in bits_list {
            let mut owner = DataOwner::new(SlicerConfig::with_bits(bits), 42);
            owner.build(&dataset(preload, bits, 42)).expect("in-domain");
            // Fresh IDs (offset past the preload) with the same value law.
            let inserts: Vec<(RecordId, u64)> = dataset(m, bits, 43)
                .into_iter()
                .enumerate()
                .map(|(i, (_, v))| (RecordId::from_u64((preload + i) as u64), v))
                .collect();
            let out = owner.insert(&inserts).expect("in-domain");
            row.push(secs(out.timing.index));
            row.push(secs(out.timing.ads));
        }
        fig7.push_row(row);
    }
    vec![fig7]
}

/// Table II: gas consumption of the smart contract. The USD column uses
/// the paper's quoted conversion (1 gwei gas price, ETH at $3 000).
pub fn gas_experiment() -> Vec<Table> {
    let mut t = Table::new(
        "table2",
        "Gas cost of smart contract (paper: 745,346 / 29,144 / 94,531)",
        &["operation", "gas cost", "USD @1gwei/ETH=3000"],
    );

    // Deployment: measured on a fresh chain.
    let mut chain = slicer_chain::Blockchain::new();
    let deployer = slicer_chain::Address::from_byte(1);
    chain.create_account(deployer, 1);
    let deploy = chain
        .deploy_contract(
            deployer,
            Box::new(slicer_chain::SlicerContract::fixed_512()),
            0,
        )
        .expect("funded deployer");
    let usd = |g: u64| format!("{:.3}", slicer_chain::gas_to_usd(g, 1.0, 3_000.0));
    t.push_row(vec![
        "Deployment".into(),
        deploy.gas_used.to_string(),
        usd(deploy.gas_used),
    ]);

    // Data insertion + verification: a representative small deployment
    // (the paper's costs are per-operation, independent of data size for
    // insertion and near-constant for single-slice verification).
    let mut sys =
        SlicerSystem::try_setup_with(SlicerConfig::test_8bit(), 4242, TelemetryHandle::disabled())
            .expect("chain accepts the deployment");
    let db = dataset(500, 8, 4242);
    sys.build(&db).expect("in-domain");
    let ins = sys
        .insert(&[(RecordId::from_u64(1_000_000), 77)])
        .expect("in-domain");
    t.push_row(vec![
        "Data insertion".into(),
        ins.gas_used.to_string(),
        usd(ins.gas_used),
    ]);

    let outcome = sys
        .search(&Query::equal(db[0].1), 1_000)
        .expect("search succeeds");
    assert!(outcome.verified, "honest verification must pass");
    t.push_row(vec![
        "Result verification".into(),
        outcome.verify_gas.to_string(),
        usd(outcome.verify_gas),
    ]);
    t.push_row(vec![
        "Search request (not in paper)".into(),
        outcome.request_gas.to_string(),
        usd(outcome.request_gas),
    ]);

    // Ablation: the same verification under Berlin (EIP-2565) MODEXP
    // pricing — shows how much of the cost is precompile pricing policy.
    let mut chain = slicer_chain::Blockchain::with_schedule(slicer_chain::GasSchedule::eip2565());
    let mut inst = slicer_core::SlicerInstance::try_setup_with(
        SlicerConfig::test_8bit(),
        4242,
        &mut chain,
        TelemetryHandle::disabled(),
    )
    .expect("chain accepts the deployment");
    inst.build(&mut chain, &db).expect("in-domain");
    let outcome = inst
        .search(&mut chain, &Query::equal(db[0].1), 1_000)
        .expect("search succeeds");
    assert!(outcome.verified);
    t.push_row(vec![
        "Result verification (EIP-2565 ablation)".into(),
        outcome.verify_gas.to_string(),
        usd(outcome.verify_gas),
    ]);
    vec![t]
}

/// The telemetry profiling experiment: one deployment built and searched
/// under an enabled telemetry context. Exports the build-phase and
/// search-phase registries as `BENCH_build.json` / `BENCH_search.json` in
/// `out` (when given) and returns a per-phase latency + gas table.
pub fn telemetry_experiment(
    scale: f64,
    queries: usize,
    out: Option<&std::path::Path>,
) -> Vec<Table> {
    use slicer_telemetry::{global, Snapshot};

    let n = record_sweep(scale)[0];
    let db = dataset(n, 8, 42);

    // Build under its own registry (global facade captures the leaf-crate
    // counters: SORE tuples, index lookups, witness generation).
    let build_handle = TelemetryHandle::enabled();
    global::set(build_handle.clone());
    let mut sys = SlicerSystem::try_setup_with(SlicerConfig::test_8bit(), 42, build_handle.clone())
        .expect("chain accepts the deployment");
    sys.build(&db).expect("in-domain");
    let build_snap = build_handle.snapshot();

    // Search the same deployment under a fresh registry.
    let search_handle = TelemetryHandle::enabled();
    sys.instance_mut().set_telemetry(search_handle.clone());
    global::set(search_handle.clone());
    let raw: Vec<([u8; 16], u64)> = db.iter().map(|(id, v)| (id.0, *v)).collect();
    for &v in &sample_query_values(&raw, queries, 7) {
        let outcome = sys
            .search(&Query::less_than(v), 1_000)
            .expect("search succeeds");
        assert!(outcome.verified, "honest searches verify");
        assert_eq!(
            outcome.profile.total_gas(),
            outcome.request_gas + outcome.verify_gas,
            "phase gas must reconcile with the receipts"
        );
    }
    let search_snap = search_handle.snapshot();
    global::reset();

    if let Some(dir) = out {
        std::fs::create_dir_all(dir).expect("results directory is creatable");
        std::fs::write(dir.join("BENCH_build.json"), build_snap.to_json())
            .expect("results directory is writable");
        std::fs::write(dir.join("BENCH_search.json"), search_snap.to_json())
            .expect("results directory is writable");
    }

    let mut t = Table::new(
        "bench",
        "Telemetry: per-phase latency and gas (see results/BENCH_*.json)",
        &["phase", "mean (ms)", "p99 (ms)", "gas"],
    );
    let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
    let mut push_phase = |snap: &Snapshot, phase: &str| {
        let hist = snap
            .histogram(&format!("phase.{phase}.ns"))
            .expect("phase recorded");
        let gas = snap
            .counter(&format!("phase.{phase}.gas"))
            .expect("phase gas recorded");
        t.push_row(vec![
            phase.to_string(),
            ms(hist.mean()),
            ms(hist.p99),
            gas.to_string(),
        ]);
    };
    for phase in ["setup", "build"] {
        push_phase(&build_snap, phase);
    }
    for phase in ["token", "search", "verify", "settle"] {
        push_phase(&search_snap, phase);
    }
    vec![t]
}

/// Runs every experiment at the given scale.
pub fn all(scale: f64, queries: usize) -> Vec<Table> {
    let mut out = build_experiments(scale, &[8, 16, 24]);
    out.extend(search_experiments(scale, &[8, 16], queries));
    out.extend(insert_experiment(scale, &[8, 16, 24]));
    out.extend(gas_experiment());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gas_experiment_lands_near_paper() {
        let t = &gas_experiment()[0];
        let get = |op: &str| -> u64 {
            t.rows.iter().find(|r| r[0] == op).expect("row present")[1]
                .parse()
                .expect("numeric gas")
        };
        let deploy = get("Deployment");
        let insert = get("Data insertion");
        let verify = get("Result verification");
        // Same order of magnitude as Table II (745,346 / 29,144 / 94,531).
        assert!((600_000..900_000).contains(&deploy), "deploy {deploy}");
        assert!((24_000..40_000).contains(&insert), "insert {insert}");
        assert!((50_000..200_000).contains(&verify), "verify {verify}");
    }

    #[test]
    fn telemetry_experiment_covers_all_phases() {
        let t = &telemetry_experiment(0.001, 1, None)[0];
        let phases: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(
            phases,
            ["setup", "build", "token", "search", "verify", "settle"]
        );
        for r in &t.rows {
            let gas: u64 = r[3].parse().expect("numeric gas");
            if matches!(r[0].as_str(), "setup" | "build" | "token" | "verify") {
                assert!(gas > 0, "{} must consume gas", r[0]);
            }
        }
    }

    #[test]
    fn build_experiment_tiny_scale_runs() {
        let tables = build_experiments(0.001, &[8]);
        assert_eq!(tables.len(), 4);
        assert_eq!(tables[0].rows.len(), 5);
    }
}
