//! Runtime leakage auditing: checks that what an instrumented run
//! *observably does* is exactly what Theorem 2 says it may leak.
//!
//! [`crate::leakage`] computes the declared profiles (`L^build`,
//! `L^search`, `L^repeat`) from protocol values. This module closes the
//! loop: [`LeakageAuditor`] consumes the deterministic trace transcript
//! of a full run (the [`Event`] stream of a
//! [`MemorySink`](slicer_telemetry::MemorySink)), re-derives the
//! observable access pattern **from span attributes alone**, and asserts
//! it matches the declared profiles exactly. If instrumentation — or a
//! future code change — ever exposes anything beyond the declared
//! leakage (an unknown attribute key, a value-dependent span count, a
//! per-entry shape), the audit fails loudly with a typed
//! [`LeakageViolation`].

use crate::leakage::{BuildLeakage, RaggedShapeError, RepeatLeakage, SearchLeakage};
use crate::messages::{BuildOutput, SearchToken, SliceResult};
use slicer_telemetry::{AttrValue, Event};
use std::collections::BTreeMap;
use std::fmt;

/// Every attribute key the instrumentation is allowed to emit. The
/// auditor rejects any transcript containing a key outside this list:
/// adding observability must be a deliberate, leakage-reviewed act.
pub const ALLOWED_ATTR_KEYS: &[&str] = &[
    // Build shipment shape (exactly L^build).
    "entries",
    "label_bits",
    "value_bits",
    "primes",
    "prime_bits",
    // Counts already revealed by message sizes.
    "tokens",
    "results",
    "witnesses",
    "records",
    "keywords",
    "tuples",
    "targets",
    // Pool fan-out width (`par.map` spans) — a pure count of independent
    // tasks, already revealed by the counts above.
    "tasks",
    // Per-token access pattern (exactly L^search / L^repeat).
    "token.updates",
    "token.hits",
    "token.fp",
    // Public on-chain data.
    "gas.used",
    "gas.category",
    "tx.hash",
    "kind",
    "status",
    "block",
    "txs",
    // Settlement outcome (public by construction).
    "verified",
    "paid_cloud",
    // Persistence shape (`persist.commit` / `persist.load` spans): sizes
    // and counts of files and commits. A delta's size follows from the
    // shipment's entry and prime counts, already in L^build.
    "bytes",
    "files",
    "fsyncs",
    "generation",
    "deltas",
    "fallbacks",
    // Batch-prover work (`accumulator.witness` / `accumulator.leaves`
    // spans): how many leaves the targets fall into and how many primes
    // stale leaves caught up with, both functions of the target positions
    // and the prime count the cloud already holds.
    "leaves",
    "catchup_primes",
];

/// The leakage a run *declares*: filled by the auditing caller from
/// protocol values (not from telemetry), namely each shipment that
/// [`SlicerInstance::build`](crate::SlicerInstance::build) and
/// [`insert`](crate::SlicerInstance::insert) return and each honest
/// response that
/// [`SlicerInstance::search_with`](crate::SlicerInstance::search_with)'s
/// hook sees. [`LeakageAuditor::verify`] compares the observed transcript
/// against this ledger.
#[derive(Debug, Clone, Default)]
pub struct DeclaredLeakage {
    /// One `L^build` profile per build/insert shipment, in order.
    pub builds: Vec<BuildLeakage>,
    /// One `L^search` profile per search (empty-token searches included),
    /// in order.
    pub searches: Vec<SearchLeakage>,
    /// Every token handed to the cloud, in order — the input to
    /// `L^repeat`.
    pub token_history: Vec<SearchToken>,
}

impl DeclaredLeakage {
    /// Declares one shipment's `L^build`.
    ///
    /// # Errors
    ///
    /// Returns [`RaggedShapeError`] if the shipment's entries or primes
    /// differ in size.
    pub fn record_build(&mut self, shipment: &BuildOutput) -> Result<(), RaggedShapeError> {
        self.builds.push(BuildLeakage::of(shipment)?);
        Ok(())
    }

    /// Declares one search from the cloud's honest slice results: its
    /// `L^search`, and its tokens (one per result, in order) appended to
    /// the `L^repeat` history. A search that yielded no tokens passes no
    /// results and declares an empty access pattern.
    pub fn record_search(&mut self, results: &[SliceResult]) {
        self.searches.push(SearchLeakage::of(results));
        self.token_history
            .extend(results.iter().map(|r| r.token.clone()));
    }

    /// The declared repeat profile over the full token history.
    pub fn repeat(&self) -> RepeatLeakage {
        RepeatLeakage::of(&self.token_history)
    }
}

/// How an audited transcript deviated from the declared leakage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeakageViolation {
    /// A span carries an attribute key outside [`ALLOWED_ATTR_KEYS`].
    UndeclaredAttribute {
        /// Name of the offending span.
        span: String,
        /// The undeclared key.
        key: String,
    },
    /// A span that should carry an attribute does not.
    MissingAttribute {
        /// Name of the offending span.
        span: String,
        /// The absent key.
        key: &'static str,
    },
    /// An attribute that must be numeric is not.
    MalformedAttribute {
        /// Name of the offending span.
        span: String,
        /// The malformed key.
        key: &'static str,
    },
    /// A `cloud.token` span closed outside any `protocol.search` trace.
    OrphanTokenSpan {
        /// The trace id the span claimed.
        trace: u64,
    },
    /// Observed and declared build counts differ.
    BuildCountMismatch {
        /// Builds re-derived from the transcript.
        observed: usize,
        /// Builds in the declared ledger.
        declared: usize,
    },
    /// One build's observed shape differs from its declared `L^build`.
    BuildMismatch {
        /// Position of the build in shipment order.
        index: usize,
        /// Shape re-derived from span attributes.
        observed: BuildLeakage,
        /// Shape declared by the protocol.
        declared: BuildLeakage,
    },
    /// Observed and declared search counts differ.
    SearchCountMismatch {
        /// Searches re-derived from the transcript.
        observed: usize,
        /// Searches in the declared ledger.
        declared: usize,
    },
    /// One search's observed access pattern differs from its declared
    /// `L^search` — a dropped, duplicated or value-dependent token span.
    SearchMismatch {
        /// Position of the search in request order.
        index: usize,
        /// Per-token `(j, results)` re-derived from span attributes.
        observed: Vec<(u32, usize)>,
        /// Per-token `(j, results)` declared by the protocol.
        declared: Vec<(u32, usize)>,
    },
    /// The repeat matrix re-derived from token fingerprints differs from
    /// the declared `L^repeat`.
    RepeatMismatch {
        /// Matrix re-derived from `token.fp` attributes.
        observed: Vec<Vec<bool>>,
        /// Matrix declared from the token history.
        declared: Vec<Vec<bool>>,
    },
}

impl fmt::Display for LeakageViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeakageViolation::UndeclaredAttribute { span, key } => {
                write!(f, "span '{span}' leaks undeclared attribute '{key}'")
            }
            LeakageViolation::MissingAttribute { span, key } => {
                write!(f, "span '{span}' is missing attribute '{key}'")
            }
            LeakageViolation::MalformedAttribute { span, key } => {
                write!(f, "span '{span}' attribute '{key}' is not numeric")
            }
            LeakageViolation::OrphanTokenSpan { trace } => {
                write!(f, "cloud.token span outside any search (trace {trace})")
            }
            LeakageViolation::BuildCountMismatch { observed, declared } => {
                write!(f, "observed {observed} builds, declared {declared}")
            }
            LeakageViolation::BuildMismatch { index, .. } => {
                write!(f, "build {index}: observed shape differs from L^build")
            }
            LeakageViolation::SearchCountMismatch { observed, declared } => {
                write!(f, "observed {observed} searches, declared {declared}")
            }
            LeakageViolation::SearchMismatch { index, .. } => {
                write!(
                    f,
                    "search {index}: observed access pattern differs from L^search"
                )
            }
            LeakageViolation::RepeatMismatch { .. } => {
                write!(f, "observed repeat matrix differs from L^repeat")
            }
        }
    }
}

impl std::error::Error for LeakageViolation {}

/// What the auditor certifies after a successful [`LeakageAuditor::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Build/insert shipments audited.
    pub builds: usize,
    /// Searches audited.
    pub searches: usize,
    /// Tokens observed across all searches.
    pub tokens: usize,
    /// Distinct token identities in the observed repeat matrix.
    pub distinct_tokens: usize,
}

/// The observable access pattern of one search, re-derived purely from
/// `cloud.token` span attributes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ObservedSearch {
    /// Per token, in search order: `(j, results recovered)`.
    tokens: Vec<(u32, usize)>,
    /// Per token: the server-visible identity fingerprint.
    fps: Vec<u64>,
}

/// Re-derives the observable access pattern of a run from its trace
/// transcript and checks it against the declared leakage profiles.
#[derive(Debug, Clone)]
pub struct LeakageAuditor {
    builds: Vec<BuildLeakage>,
    searches: Vec<ObservedSearch>,
}

fn attr_u64(
    span: &str,
    attrs: &[(&'static str, AttrValue)],
    key: &'static str,
) -> Result<u64, LeakageViolation> {
    match attrs.iter().find(|(k, _)| *k == key) {
        None => Err(LeakageViolation::MissingAttribute {
            span: span.to_string(),
            key,
        }),
        Some((_, AttrValue::U64(v))) => Ok(*v),
        Some(_) => Err(LeakageViolation::MalformedAttribute {
            span: span.to_string(),
            key,
        }),
    }
}

impl LeakageAuditor {
    /// Parses a trace transcript (the event stream of a
    /// [`MemorySink`](slicer_telemetry::MemorySink)) into observed
    /// access patterns.
    ///
    /// # Errors
    ///
    /// Returns a [`LeakageViolation`] if any span carries an attribute
    /// outside [`ALLOWED_ATTR_KEYS`], a shape-bearing span is missing an
    /// attribute, or a `cloud.token` span is not owned by a search.
    pub fn from_events(events: &[Event]) -> Result<Self, LeakageViolation> {
        let mut builds = Vec::new();
        let mut searches = Vec::new();
        // Token spans close before their owning protocol.search root, so
        // buffer them per trace until the root closes.
        let mut pending: BTreeMap<u64, ObservedSearch> = BTreeMap::new();
        for event in events {
            let Event::SpanEnd {
                trace, name, attrs, ..
            } = event
            else {
                continue;
            };
            for (key, _) in attrs {
                if !ALLOWED_ATTR_KEYS.contains(key) {
                    return Err(LeakageViolation::UndeclaredAttribute {
                        span: name.clone(),
                        key: (*key).to_string(),
                    });
                }
            }
            match name.as_str() {
                "phase.build" => builds.push(BuildLeakage {
                    label_bits: attr_u64(name, attrs, "label_bits")? as usize,
                    value_bits: attr_u64(name, attrs, "value_bits")? as usize,
                    entries: attr_u64(name, attrs, "entries")? as usize,
                    prime_bits: attr_u64(name, attrs, "prime_bits")? as usize,
                    primes: attr_u64(name, attrs, "primes")? as usize,
                }),
                "cloud.token" => {
                    let slot = pending.entry(trace.0).or_default();
                    slot.tokens.push((
                        u32::try_from(attr_u64(name, attrs, "token.updates")?).map_err(|_| {
                            LeakageViolation::MalformedAttribute {
                                span: name.clone(),
                                key: "token.updates",
                            }
                        })?,
                        attr_u64(name, attrs, "token.hits")? as usize,
                    ));
                    slot.fps.push(attr_u64(name, attrs, "token.fp")?);
                }
                "protocol.search" => {
                    searches.push(pending.remove(&trace.0).unwrap_or_default());
                }
                _ => {}
            }
        }
        if let Some((&trace, _)) = pending.iter().next() {
            return Err(LeakageViolation::OrphanTokenSpan { trace });
        }
        Ok(LeakageAuditor { builds, searches })
    }

    /// Asserts the observed access pattern equals `declared` exactly.
    ///
    /// # Errors
    ///
    /// Returns the first [`LeakageViolation`] found: a count or shape
    /// mismatch on builds, a per-token mismatch on any search, or a
    /// repeat-matrix mismatch.
    pub fn verify(&self, declared: &DeclaredLeakage) -> Result<AuditReport, LeakageViolation> {
        if self.builds.len() != declared.builds.len() {
            return Err(LeakageViolation::BuildCountMismatch {
                observed: self.builds.len(),
                declared: declared.builds.len(),
            });
        }
        for (index, (observed, decl)) in self.builds.iter().zip(&declared.builds).enumerate() {
            if observed != decl {
                return Err(LeakageViolation::BuildMismatch {
                    index,
                    observed: observed.clone(),
                    declared: decl.clone(),
                });
            }
        }

        if self.searches.len() != declared.searches.len() {
            return Err(LeakageViolation::SearchCountMismatch {
                observed: self.searches.len(),
                declared: declared.searches.len(),
            });
        }
        for (index, (observed, decl)) in self.searches.iter().zip(&declared.searches).enumerate() {
            if observed.tokens != decl.tokens {
                return Err(LeakageViolation::SearchMismatch {
                    index,
                    observed: observed.tokens.clone(),
                    declared: decl.tokens.clone(),
                });
            }
        }

        // L^repeat: two tokens look identical to the server iff their
        // fingerprints coincide. The matrix derived from fingerprints
        // alone must match the one computed from the real token history.
        let fps: Vec<u64> = self.searches.iter().flat_map(|s| s.fps.clone()).collect();
        let observed_matrix: Vec<Vec<bool>> = fps
            .iter()
            .map(|a| fps.iter().map(|b| a == b).collect())
            .collect();
        let declared_matrix = declared.repeat().matrix;
        if observed_matrix != declared_matrix {
            return Err(LeakageViolation::RepeatMismatch {
                observed: observed_matrix,
                declared: declared_matrix,
            });
        }

        let distinct = RepeatLeakage {
            matrix: observed_matrix,
        }
        .distinct();
        Ok(AuditReport {
            builds: self.builds.len(),
            searches: self.searches.len(),
            tokens: fps.len(),
            distinct_tokens: distinct,
        })
    }
}
