//! Comparator over two bench-JSON documents (the [`Snapshot::to_json`]
//! schema shared by the metrics exporter, the micro-bench reporter and
//! the committed `BENCH_*.json` baselines).
//!
//! The diff model follows the workspace determinism contract: everything
//! the protocol *counts* — counters, gauges and histogram observation
//! counts — must match the baseline exactly, while everything the clock
//! *measures* — `.ns` sums, percentiles, `*_ns` gauges — is noise-prone
//! and stays informational unless a relative tolerance is supplied.
//! That split is what lets `scripts/ci.sh` regenerate a bench run on any
//! machine and still fail hard on a real regression (a gas counter or
//! event count drifting from the committed baseline) without flaking on
//! wall-clock jitter.
//!
//! [`Snapshot::to_json`]: slicer_telemetry::Snapshot::to_json

use slicer_telemetry::json::{self, JsonError, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Why a bench document was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchDiffError {
    /// The input is not well-formed JSON.
    Json(JsonError),
    /// Well-formed JSON outside the bench schema.
    Schema {
        /// Slash-separated key path to the offending value
        /// (`counters/phase.build.gas`); empty for the document itself.
        path: String,
        /// Human-readable description of the failure.
        message: String,
    },
}

impl fmt::Display for BenchDiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchDiffError::Json(e) => write!(f, "bench json: {e}"),
            BenchDiffError::Schema { path, message } => {
                write!(f, "bench json schema error at {path:?}: {message}")
            }
        }
    }
}

impl std::error::Error for BenchDiffError {}

/// A parsed bench document: three sorted name→value sections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchDoc {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram name → summary fields
    /// (`count`/`sum`/`min`/`max`/`mean`/`p50`/`p90`/`p99`).
    pub histograms: BTreeMap<String, BTreeMap<String, u64>>,
}

/// Parses one bench-JSON document.
///
/// The exporter's schema is an object of three sections, each an object
/// whose values are either unsigned integers (counters, gauges) or flat
/// objects of unsigned integers (histogram summaries). Anything outside
/// it — arrays, floats, booleans, duplicate keys, unknown sections — is
/// rejected, which doubles as a shape check on the files CI commits.
///
/// # Errors
///
/// [`BenchDiffError::Json`] for malformed JSON (with its byte offset),
/// [`BenchDiffError::Schema`] naming the first out-of-schema value.
pub fn parse_bench_json(input: &str) -> Result<BenchDoc, BenchDiffError> {
    let root = json::parse(input).map_err(BenchDiffError::Json)?;
    let mut doc = BenchDoc::default();
    for (name, section) in members(&root, "")? {
        match name {
            "counters" => doc.counters = scalars(section, name)?,
            "gauges" => doc.gauges = scalars(section, name)?,
            "histograms" => {
                for (metric, summary) in members(section, name)? {
                    let summary = scalars(summary, &join(name, metric))?;
                    doc.histograms.insert(metric.to_string(), summary);
                }
            }
            other => return Err(schema(other, "unexpected section")),
        }
    }
    Ok(doc)
}

fn schema(path: &str, message: &str) -> BenchDiffError {
    BenchDiffError::Schema {
        path: path.to_string(),
        message: message.to_string(),
    }
}

/// The members of the object at `path`, rejecting duplicate keys.
fn members<'v>(
    value: &'v Value,
    path: &str,
) -> Result<BTreeMap<&'v str, &'v Value>, BenchDiffError> {
    let Value::Object(pairs) = value else {
        return Err(schema(path, "expected an object"));
    };
    let mut out = BTreeMap::new();
    for (key, v) in pairs {
        if out.insert(key.as_str(), v).is_some() {
            return Err(schema(&join(path, key), "duplicate key"));
        }
    }
    Ok(out)
}

/// `{ "name": <u64>, ... }` at `path`. Floats, negative numbers and
/// values beyond `u64::MAX` are rejected, not rounded.
fn scalars(value: &Value, path: &str) -> Result<BTreeMap<String, u64>, BenchDiffError> {
    let mut out = BTreeMap::new();
    for (key, v) in members(value, path)? {
        let n = match v {
            Value::Number(text) if text.bytes().all(|b| b.is_ascii_digit()) => text.parse().ok(),
            _ => None,
        };
        let n = n.ok_or_else(|| schema(&join(path, key), "expected an unsigned 64-bit integer"))?;
        out.insert(key.to_string(), n);
    }
    Ok(out)
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}/{key}")
    }
}

/// Noise model for one diff run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiffConfig {
    /// Allowed relative change on timing metrics before they count as a
    /// regression/improvement (`0.25` = ±25%). `None` (the default)
    /// leaves timing metrics informational — they never fail the gate.
    pub timing_rel: Option<f64>,
}

/// One metric whose value changed between the two documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDelta {
    /// Fully-qualified metric key, e.g. `histograms/chain.tx.ns/count`.
    pub name: String,
    /// Baseline value.
    pub old: u64,
    /// Candidate value.
    pub new: u64,
}

impl MetricDelta {
    /// Relative change in percent (positive = grew).
    pub fn percent(&self) -> f64 {
        if self.old == 0 {
            if self.new == 0 {
                0.0
            } else {
                100.0
            }
        } else {
            (self.new as f64 - self.old as f64) * 100.0 / self.old as f64
        }
    }
}

/// The typed outcome of one [`diff`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Hard failures: exact-class metrics that drifted, or timing
    /// metrics beyond the configured tolerance in the slow direction.
    pub regressions: Vec<MetricDelta>,
    /// Timing metrics beyond tolerance in the fast direction (only
    /// populated when a tolerance is configured).
    pub improvements: Vec<MetricDelta>,
    /// Informational timing drift (no tolerance configured, or within
    /// it).
    pub timing: Vec<MetricDelta>,
    /// Metrics present in the baseline but absent from the candidate —
    /// always a failure (coverage must not silently shrink).
    pub missing: Vec<String>,
    /// Metrics present in the candidate but absent from the baseline —
    /// informational (new instrumentation is allowed).
    pub added: Vec<String>,
    /// Total metric values compared.
    pub compared: u64,
}

impl DiffReport {
    /// Whether the candidate passes the gate.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }

    /// Renders the report as stable, grep-able `bench-diff` lines, one
    /// finding per line, ending with a summary verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.regressions {
            out.push_str(&format!(
                "bench-diff REGRESSION {} old={} new={} ({:+.1}%)\n",
                d.name,
                d.old,
                d.new,
                d.percent()
            ));
        }
        for name in &self.missing {
            out.push_str(&format!("bench-diff MISSING {name}\n"));
        }
        for d in &self.improvements {
            out.push_str(&format!(
                "bench-diff improvement {} old={} new={} ({:+.1}%)\n",
                d.name,
                d.old,
                d.new,
                d.percent()
            ));
        }
        for d in &self.timing {
            out.push_str(&format!(
                "bench-diff timing {} old={} new={} ({:+.1}%)\n",
                d.name,
                d.old,
                d.new,
                d.percent()
            ));
        }
        for name in &self.added {
            out.push_str(&format!("bench-diff added {name}\n"));
        }
        out.push_str(&format!(
            "bench-diff {} compared={} regressions={} missing={} improvements={} timing={} added={}\n",
            if self.ok() { "ok" } else { "FAILED" },
            self.compared,
            self.regressions.len(),
            self.missing.len(),
            self.improvements.len(),
            self.timing.len(),
            self.added.len()
        ));
        out
    }
}

/// Whether a metric key carries wall-clock weight (noise) rather than a
/// deterministic count. Histogram `count` fields are deterministic; all
/// other histogram fields summarize observed durations. Counter/gauge
/// names ending in `.ns` or `_ns` (the bench reporter's `mean_ns` /
/// `min_ns` gauges) are timing too, as are `.iters` counters — the
/// bench runner sizes iteration batches off the clock.
fn is_timing(name: &str) -> bool {
    name.ends_with(".ns") || name.ends_with("_ns") || name.ends_with(".iters") || {
        // histogram field keys: "histograms/<metric>.ns/<field>"
        match name.rsplit_once('/') {
            Some((prefix, field)) => {
                (prefix.ends_with(".ns") || prefix.ends_with("_ns")) && field != "count"
            }
            None => false,
        }
    }
}

/// Compares `new` (the fresh run) against `old` (the committed
/// baseline) under `config`, returning the typed report.
pub fn diff(old: &BenchDoc, new: &BenchDoc, config: &DiffConfig) -> DiffReport {
    let mut report = DiffReport::default();

    for (section, old_map, new_map) in [
        ("counters", &old.counters, &new.counters),
        ("gauges", &old.gauges, &new.gauges),
    ] {
        let names: BTreeSet<&String> = old_map.keys().chain(new_map.keys()).collect();
        for name in names {
            compare(
                &mut report,
                config,
                format!("{section}/{name}"),
                old_map.get(name).copied(),
                new_map.get(name).copied(),
            );
        }
    }

    let hist_names: BTreeSet<&String> =
        old.histograms.keys().chain(new.histograms.keys()).collect();
    for name in hist_names {
        match (old.histograms.get(name), new.histograms.get(name)) {
            (Some(o), Some(n)) => {
                let fields: BTreeSet<&String> = o.keys().chain(n.keys()).collect();
                for field in fields {
                    compare(
                        &mut report,
                        config,
                        format!("histograms/{name}/{field}"),
                        o.get(field).copied(),
                        n.get(field).copied(),
                    );
                }
            }
            (Some(_), None) => report.missing.push(format!("histograms/{name}")),
            (None, Some(_)) => report.added.push(format!("histograms/{name}")),
            (None, None) => {}
        }
    }
    report
}

/// Classifies one shared-or-one-sided metric value pair into the report.
fn compare(
    report: &mut DiffReport,
    config: &DiffConfig,
    name: String,
    old_v: Option<u64>,
    new_v: Option<u64>,
) {
    match (old_v, new_v) {
        (Some(o), Some(n)) => {
            report.compared += 1;
            if o == n {
                return;
            }
            let delta = MetricDelta {
                name,
                old: o,
                new: n,
            };
            if !is_timing(&delta.name) {
                report.regressions.push(delta);
            } else if let Some(rel) = config.timing_rel {
                let bound = o as f64 * rel;
                if n as f64 > o as f64 + bound {
                    report.regressions.push(delta);
                } else if (n as f64) < o as f64 - bound {
                    report.improvements.push(delta);
                } else {
                    report.timing.push(delta);
                }
            } else {
                report.timing.push(delta);
            }
        }
        (Some(_), None) => report.missing.push(name),
        (None, Some(_)) => report.added.push(name),
        (None, None) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "counters": {
    "phase.build.gas": 63654,
    "phase.setup.gas": 745280
  },
  "gauges": {},
  "histograms": {
    "chain.tx.ns": {"count": 1, "sum": 15497, "min": 15497, "max": 15497, "mean": 15497, "p50": 15497, "p90": 15497, "p99": 15497}
  }
}
"#;

    #[test]
    fn parses_the_exporter_schema() {
        let doc = parse_bench_json(SAMPLE).expect("sample parses");
        assert_eq!(doc.counters["phase.build.gas"], 63654);
        assert!(doc.gauges.is_empty());
        assert_eq!(doc.histograms["chain.tx.ns"]["count"], 1);
        assert_eq!(doc.histograms["chain.tx.ns"]["p99"], 15497);
    }

    #[test]
    fn rejects_out_of_schema_documents() {
        for (input, what) in [
            (r#"{"counters": {"a": 1.5}}"#, "float"),
            (r#"{"counters": {"a": -1}}"#, "negative"),
            (
                r#"{"counters": {"a": 18446744073709551616}}"#,
                "u64 overflow",
            ),
            (r#"{"histograms": {"h": 1}}"#, "flat histogram"),
            (r#"{"counters": {}, "counters": {}}"#, "duplicate section"),
            (r#"{"counters": {"a": [1]}}"#, "array"),
            (r#"{"counters": {"a": 1, "a": 2}}"#, "duplicate key"),
            (r#"{"bogus": {"a": 1}}"#, "unknown section"),
        ] {
            let err = parse_bench_json(input).expect_err(what);
            assert!(
                matches!(err, BenchDiffError::Schema { .. }),
                "{what}: {err}"
            );
        }
        for (input, what) in [
            (r#"{"counters": {"a": 1}} extra"#, "trailing data"),
            (r#"{"counters": {"a": 1}"#, "unterminated object"),
        ] {
            let err = parse_bench_json(input).expect_err(what);
            assert!(matches!(err, BenchDiffError::Json(_)), "{what}: {err}");
        }
        let err = parse_bench_json(r#"{"counters": {"a": 1.5}}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "bench json schema error at \"counters/a\": expected an unsigned 64-bit integer"
        );
    }

    #[test]
    fn identical_documents_diff_clean() {
        let doc = parse_bench_json(SAMPLE).unwrap();
        let report = diff(&doc, &doc, &DiffConfig::default());
        assert!(report.ok());
        assert!(report.regressions.is_empty());
        assert!(report.timing.is_empty());
        assert_eq!(report.compared, 2 + 8);
        assert!(report.render().contains("bench-diff ok"));
    }

    #[test]
    fn counter_drift_is_a_regression_in_either_direction() {
        let old = parse_bench_json(SAMPLE).unwrap();
        for new_value in [63653u64, 63655] {
            let mut new = old.clone();
            new.counters.insert("phase.build.gas".into(), new_value);
            let report = diff(&old, &new, &DiffConfig::default());
            assert!(!report.ok());
            assert_eq!(report.regressions.len(), 1);
            assert_eq!(report.regressions[0].name, "counters/phase.build.gas");
            assert!(report.render().contains("bench-diff REGRESSION"));
        }
    }

    #[test]
    fn histogram_count_is_exact_but_sums_are_informational() {
        let old = parse_bench_json(SAMPLE).unwrap();
        let mut new = old.clone();
        new.histograms
            .get_mut("chain.tx.ns")
            .unwrap()
            .insert("sum".into(), 99_999);
        let report = diff(&old, &new, &DiffConfig::default());
        assert!(report.ok(), "timing drift alone must not fail the gate");
        assert_eq!(report.timing.len(), 1);

        let mut new = old.clone();
        new.histograms
            .get_mut("chain.tx.ns")
            .unwrap()
            .insert("count".into(), 2);
        let report = diff(&old, &new, &DiffConfig::default());
        assert!(
            !report.ok(),
            "observation-count drift is deterministic and must fail"
        );
        assert_eq!(report.regressions[0].name, "histograms/chain.tx.ns/count");
    }

    #[test]
    fn timing_tolerance_splits_regressions_from_improvements() {
        let old = parse_bench_json(SAMPLE).unwrap();
        let config = DiffConfig {
            timing_rel: Some(0.10),
        };
        let mut slower = old.clone();
        slower
            .histograms
            .get_mut("chain.tx.ns")
            .unwrap()
            .insert("sum".into(), 20_000);
        let report = diff(&old, &slower, &config);
        assert!(!report.ok());
        assert_eq!(report.regressions[0].name, "histograms/chain.tx.ns/sum");

        let mut faster = old.clone();
        faster
            .histograms
            .get_mut("chain.tx.ns")
            .unwrap()
            .insert("sum".into(), 10_000);
        let report = diff(&old, &faster, &config);
        assert!(report.ok());
        assert_eq!(report.improvements.len(), 1);

        let mut steady = old.clone();
        steady
            .histograms
            .get_mut("chain.tx.ns")
            .unwrap()
            .insert("sum".into(), 15_600);
        let report = diff(&old, &steady, &config);
        assert!(report.ok());
        assert_eq!(report.timing.len(), 1);
        assert!(report.regressions.is_empty() && report.improvements.is_empty());
    }

    #[test]
    fn missing_metrics_fail_and_added_metrics_do_not() {
        let old = parse_bench_json(SAMPLE).unwrap();
        let mut new = old.clone();
        new.counters.remove("phase.setup.gas");
        new.counters.insert("phase.extra.gas".into(), 7);
        new.histograms.remove("chain.tx.ns");
        let report = diff(&old, &new, &DiffConfig::default());
        assert!(!report.ok());
        assert_eq!(
            report.missing,
            vec!["counters/phase.setup.gas", "histograms/chain.tx.ns"]
        );
        assert_eq!(report.added, vec!["counters/phase.extra.gas"]);

        let mut grown = old.clone();
        grown.counters.insert("phase.extra.gas".into(), 7);
        assert!(diff(&old, &grown, &DiffConfig::default()).ok());
    }

    #[test]
    fn bench_reporter_gauges_are_classified_as_timing() {
        assert!(is_timing("gauges/bench.core.sha256.mean_ns"));
        assert!(is_timing("gauges/bench.core.sha256.min_ns"));
        assert!(is_timing("counters/bench.core.sha256.iters"));
        assert!(is_timing("histograms/phase.search.ns/p99"));
        assert!(!is_timing("histograms/phase.search.ns/count"));
        assert!(!is_timing("counters/phase.verify.gas"));
    }

    #[test]
    fn committed_baselines_parse_and_self_diff_clean() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for name in ["BENCH_build.json", "BENCH_search.json"] {
            let path = root.join(name);
            let text = std::fs::read_to_string(&path).expect("baseline exists");
            let path = path.display();
            let doc = parse_bench_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert!(!doc.counters.is_empty(), "{path} has counters");
            assert!(diff(&doc, &doc, &DiffConfig::default()).ok());
        }
    }
}
