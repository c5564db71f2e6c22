//! Point-in-time snapshots and exporters.
//!
//! A [`Snapshot`] is an owned, immutable copy of a [`Metrics`] registry:
//! counters and gauges by value, histograms reduced to
//! [`HistogramSummary`] (count/sum/min/max + p50/p90/p99). Snapshots are
//! what crosses process boundaries — as Prometheus exposition text or as
//! a single JSON document. The JSON schema is shared by the metrics
//! exporter, the testkit micro-bench reporter and the `BENCH_*.json`
//! baseline files, so every measurement in the repo diffs the same way.

use crate::json;
use crate::metrics::Metrics;

/// Reduced view of one histogram at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean observation, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// An immutable copy of a registry, ready for export.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, u64)>,
    histograms: Vec<(String, HistogramSummary)>,
}

impl Snapshot {
    /// Captures the current state of `metrics`. Entries are sorted by
    /// name, so two snapshots of identical registries compare equal.
    pub fn of(metrics: &Metrics) -> Self {
        let histograms = metrics
            .histograms()
            .into_iter()
            .map(|(name, h)| {
                let summary = HistogramSummary {
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min().unwrap_or(0),
                    max: h.max().unwrap_or(0),
                    p50: h.quantile(0.50).unwrap_or(0),
                    p90: h.quantile(0.90).unwrap_or(0),
                    p99: h.quantile(0.99).unwrap_or(0),
                };
                (name, summary)
            })
            .collect();
        Snapshot::from_parts(metrics.counters(), metrics.gauges(), histograms)
    }

    /// Assembles a snapshot from captured entries, e.g. a registry that
    /// crossed the wire, so the receiver renders it with the same
    /// exporters. Entries are sorted by name, as [`Snapshot::of`] leaves
    /// them.
    pub fn from_parts(
        mut counters: Vec<(String, u64)>,
        mut gauges: Vec<(String, u64)>,
        mut histograms: Vec<(String, HistogramSummary)>,
    ) -> Self {
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Value of counter `name` at snapshot time.
    pub fn counter(&self, name: &str) -> Option<u64> {
        lookup(&self.counters, name).copied()
    }

    /// Value of gauge `name` at snapshot time.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        lookup(&self.gauges, name).copied()
    }

    /// Summary of histogram `name` at snapshot time.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        lookup(&self.histograms, name)
    }

    /// Sorted `(name, value)` counter pairs.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// Sorted `(name, value)` gauge pairs.
    pub fn gauges(&self) -> &[(String, u64)] {
        &self.gauges
    }

    /// Sorted `(name, summary)` histogram pairs.
    pub fn histograms(&self) -> &[(String, HistogramSummary)] {
        &self.histograms
    }

    /// The snapshot in Prometheus exposition format. Dots in metric
    /// names become underscores and a `slicer_` prefix is added;
    /// histograms export as summaries with `quantile` labels.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                out.push_str(&format!("{n}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        }
        out
    }

    /// The snapshot as one JSON document:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {name:
    /// {count, sum, min, max, mean, p50, p90, p99}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        write_scalar_map(&mut out, &self.counters);
        out.push_str("},\n  \"gauges\": {");
        write_scalar_map(&mut out, &self.gauges);
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json::write_string(&mut out, name);
            out.push_str(&format!(
                ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.p50,
                h.p90,
                h.p99
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

fn lookup<'a, T>(pairs: &'a [(String, T)], name: &str) -> Option<&'a T> {
    pairs
        .binary_search_by(|(n, _)| n.as_str().cmp(name))
        .ok()
        .map(|i| &pairs[i].1)
}

/// Maps a dotted metric name to a Prometheus-legal identifier.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("slicer_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn write_scalar_map(out: &mut String, pairs: &[(String, u64)]) {
    for (i, (name, value)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        json::write_string(out, name);
        out.push_str(&format!(": {value}"));
    }
    if !pairs.is_empty() {
        out.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let m = Metrics::new();
        m.count("phase.search.gas", 120);
        m.gauge("db.records", 24);
        for v in [100u64, 200, 300] {
            m.observe("phase.search.ns", v);
        }
        Snapshot::of(&m)
    }

    #[test]
    fn snapshot_lookups_match_registry() {
        let s = sample();
        assert_eq!(s.counter("phase.search.gas"), Some(120));
        assert_eq!(s.gauge("db.records"), Some(24));
        let h = s.histogram("phase.search.ns").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 600);
        assert_eq!(h.min, 100);
        assert_eq!(h.max, 300);
        assert_eq!(h.mean(), 200);
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn json_export_is_valid_json() {
        let j = sample().to_json();
        assert!(json::parse(&j).is_ok(), "invalid JSON:\n{j}");
        assert!(j.contains("\"phase.search.gas\": 120"));
        assert!(j.contains("\"p50\""));
    }

    #[test]
    fn empty_snapshot_exports_valid_json() {
        let j = Snapshot::of(&Metrics::new()).to_json();
        assert!(json::parse(&j).is_ok(), "invalid JSON:\n{j}");
    }

    #[test]
    fn prometheus_text_uses_legal_names() {
        let text = sample().to_prometheus_text();
        assert!(text.contains("# TYPE slicer_phase_search_gas counter"));
        assert!(text.contains("slicer_phase_search_gas 120"));
        assert!(text.contains("# TYPE slicer_db_records gauge"));
        assert!(text.contains("slicer_phase_search_ns{quantile=\"0.5\"}"));
        assert!(text.contains("slicer_phase_search_ns_count 3"));
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "illegal metric name: {name}"
            );
        }
    }

    #[test]
    fn snapshots_of_identical_registries_are_equal() {
        assert_eq!(sample(), sample());
    }
}
