//! # slicer-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation (Section VII), plus ablations.
//!
//! Run `cargo run -p slicer-bench --release --bin repro -- --help` for the
//! experiment driver; Criterion micro-benchmarks live in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod merkle;
pub mod table;

pub use table::Table;

/// The record-count sweep of the paper (10K–160K), scaled by `scale`.
pub fn record_sweep(scale: f64) -> Vec<usize> {
    [10_000usize, 20_000, 40_000, 80_000, 160_000]
        .iter()
        .map(|&n| (((n as f64) * scale) as usize).max(100))
        .collect()
}

/// Seconds with 3 decimal digits.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Megabytes with 3 decimal digits.
pub fn mb(bytes: usize) -> String {
    format!("{:.3}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_scales_and_floors() {
        assert_eq!(
            record_sweep(1.0),
            vec![10_000, 20_000, 40_000, 80_000, 160_000]
        );
        assert_eq!(record_sweep(0.001)[0], 100);
    }

    #[test]
    fn formatting() {
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
        assert_eq!(mb(1024 * 1024), "1.000");
    }
}
