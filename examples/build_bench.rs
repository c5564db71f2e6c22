//! Build-phase scaling benchmark: one deployment built under an enabled
//! telemetry context at a configurable record count, with the phase
//! registry exported as JSON.
//!
//! This is the measurement tool behind the committed
//! `results/BENCH_build_naive_10k.json` (single-thread naive baseline,
//! captured at the pre-`slicer-par` seed) and the refreshed n=10K point in
//! `results/BENCH_build_10k.json`.
//!
//! ```text
//! SLICER_BENCH_N=10000 SLICER_BENCH_BITS=16 \
//!     cargo run --release --example build_bench -- results/BENCH_build_10k.json
//! ```

use slicer_core::{RecordId, SlicerConfig, SlicerSystem};
use slicer_telemetry::{global, Clock, MonotonicClock, TelemetryHandle};
use slicer_workload::DatasetSpec;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let n = env_usize("SLICER_BENCH_N", 10_000);
    let bits = env_usize("SLICER_BENCH_BITS", 16) as u8;
    let out = std::env::args().nth(1);

    let db: Vec<(RecordId, u64)> = DatasetSpec::uniform(n, bits, 42)
        .generate()
        .into_iter()
        .map(|(id, v)| (RecordId(id), v))
        .collect();

    let handle = TelemetryHandle::enabled();
    global::set(handle.clone());
    let clock = MonotonicClock::new();
    let t0 = clock.now_nanos();
    let mut sys = SlicerSystem::try_setup_with(SlicerConfig::with_bits(bits), 42, handle.clone())
        .expect("chain accepts the deployment");
    sys.build(&db).expect("benchmark data is in-domain");
    let wall = clock.now_nanos().saturating_sub(t0);
    let snap = handle.snapshot();
    global::reset();

    let build_ns = snap
        .histogram("phase.build.ns")
        .map(|h| h.sum)
        .unwrap_or_default();
    println!("records            : {n}");
    println!("value bits         : {bits}");
    println!("phase.build.ns     : {build_ns}");
    println!("phase.build (s)    : {:.3}", build_ns as f64 / 1e9);
    println!("setup+build (s)    : {:.3}", wall as f64 / 1e9);

    if let Some(path) = out {
        let path = std::path::PathBuf::from(path);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("results directory is creatable");
        }
        std::fs::write(&path, snap.to_json()).expect("results file is writable");
        println!("wrote {}", path.display());
    }
}
