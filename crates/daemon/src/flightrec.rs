//! The crash flight recorder: a bounded ring of recent requests plus
//! the daemon's folded wall and gas profiles, persisted as a
//! checksummed `.slc` segment so *any* death of the daemon — panic,
//! fatal serve-loop error, clean shutdown, even `kill -9` — leaves a
//! decodable post-mortem artifact.
//!
//! The recording holds only what no other plane keeps once the process
//! is dead. Log lines are not in it: they already stream to `slicerd`'s
//! stderr, and the live log ring serves them through `slicer-cli tail`.
//! So the recording's size is bounded by its request ring, not by how
//! much the daemon logged.
//!
//! `SIGKILL` cannot be caught, so waiting for a panic hook is not
//! enough: the recorder re-persists at every request *start* (marking
//! the entry in-flight) and again at request *end*. A process killed
//! mid-request therefore leaves a segment whose newest entry names the
//! request that was executing — exactly what the crash_restart suite
//! and the ci.sh kill-9 stage assert on. Each persist writes a temp
//! file and renames it over [`FLIGHTREC_FILE`], so the artifact is
//! never torn; the payload frames reuse [`slicer_persist`]'s
//! `[u64 LE len ‖ payload ‖ SHA-256(payload)]` framing, so a corrupted
//! recording fails checksum validation on read instead of decoding
//! garbage.
//!
//! Segment layout (frames behind the standard `SLCSEG2\0` magic):
//!
//! ```text
//! frame 0   FlightHeader  { version, reason, next_seq }
//! frame 1   Vec<FlightRecord>   oldest → newest
//! frame 2   String              folded wall profile
//! frame 3   String              folded gas profile
//! ```
//!
//! The profile frames hold the daemon's live [`ProfileAggregator`] fold,
//! so a crash dump answers not just "what was running" but "where the
//! time and gas had gone". Only version 3 loads; any other version is an
//! "unsupported flightrec version" error.

use crate::error::DaemonError;
use slicer_telemetry::{ProfileAggregator, ProfileMode};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// File name of the recording inside the daemon's data directory.
pub const FLIGHTREC_FILE: &str = "flightrec.slc";

/// Recording format version (frame-0 header field).
const FLIGHTREC_VERSION: u32 = 3;

/// Outcome marker of a request entry that is still executing. A
/// recording whose newest entry carries this outcome names the request
/// that was in flight when the process died.
pub const IN_FLIGHT: &str = "in-flight";

/// One request in the recorder's ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Monotonic request number within this process lifetime.
    pub seq: u64,
    /// The request's trace id (0 = none supplied).
    pub trace_id: u64,
    /// Operation name (`"ingest"`, `"search"`, …).
    pub kind: String,
    /// Clock reading when handling began.
    pub start_ns: u64,
    /// Handling duration (0 while in flight).
    pub duration_ns: u64,
    /// [`IN_FLIGHT`], `"ok"`, or `"error: …"`.
    pub outcome: String,
}

slicer_crypto::impl_codec!(FlightRecord {
    seq,
    trace_id,
    kind,
    start_ns,
    duration_ns,
    outcome
});

#[derive(Debug, Clone, PartialEq, Eq)]
struct FlightHeader {
    version: u32,
    reason: String,
    next_seq: u64,
}

slicer_crypto::impl_codec!(FlightHeader {
    version,
    reason,
    next_seq
});

#[derive(Debug)]
struct RecorderState {
    ring: VecDeque<FlightRecord>,
    next_seq: u64,
}

#[derive(Debug)]
struct RecorderInner {
    path: PathBuf,
    capacity: usize,
    /// The daemon's live profile aggregator; its folded wall and gas
    /// stacks are embedded in every persist.
    profile: Arc<ProfileAggregator>,
    state: Mutex<RecorderState>,
}

/// Shared handle to the flight recorder. Clones share one ring — the
/// serving loop holds one, the panic hook another.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<RecorderInner>,
}

impl FlightRecorder {
    /// A recorder persisting to `path`, retaining the last `capacity`
    /// requests (min 1) and embedding the live folded wall/gas profiles
    /// of `profile`.
    pub fn new(path: PathBuf, capacity: usize, profile: Arc<ProfileAggregator>) -> Self {
        FlightRecorder {
            inner: Arc::new(RecorderInner {
                path,
                capacity: capacity.max(1),
                profile,
                state: Mutex::new(RecorderState {
                    ring: VecDeque::new(),
                    next_seq: 1,
                }),
            }),
        }
    }

    /// Where the recording lives on disk.
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    fn locked(&self) -> MutexGuard<'_, RecorderState> {
        // The recorder is exactly what must keep working while the
        // process is dying — recover a poisoned lock instead of
        // propagating the panic.
        match self.inner.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Registers a request as in flight and persists the recording, so
    /// a `kill -9` during handling leaves the entry on disk. Returns
    /// the entry's sequence number for [`FlightRecorder::end`]. Persist
    /// failures are reported to the caller but never fail the request.
    pub fn begin(&self, trace_id: u64, kind: &str, start_ns: u64) -> (u64, Option<DaemonError>) {
        let seq = {
            let mut state = self.locked();
            let seq = state.next_seq;
            state.next_seq += 1;
            if state.ring.len() == self.inner.capacity {
                state.ring.pop_front();
            }
            state.ring.push_back(FlightRecord {
                seq,
                trace_id,
                kind: kind.to_string(),
                start_ns,
                duration_ns: 0,
                outcome: IN_FLIGHT.to_string(),
            });
            seq
        };
        (seq, self.persist("request-start").err())
    }

    /// Marks entry `seq` finished with `outcome` and persists. A `seq`
    /// already evicted from the ring is ignored.
    pub fn end(&self, seq: u64, duration_ns: u64, outcome: &str) -> Option<DaemonError> {
        {
            let mut state = self.locked();
            if let Some(entry) = state.ring.iter_mut().find(|r| r.seq == seq) {
                entry.duration_ns = duration_ns;
                entry.outcome = outcome.to_string();
            }
        }
        self.persist("request-end").err()
    }

    /// Writes the recording to disk atomically (temp file + rename),
    /// stamping it with `reason` (`"request-start"`, `"request-end"`,
    /// `"shutdown"`, `"panic"`, `"serve-error"`).
    ///
    /// # Errors
    ///
    /// [`DaemonError::Persist`] / [`DaemonError::Io`] on filesystem
    /// failure — callers on the serving path log and continue.
    pub fn persist(&self, reason: &str) -> Result<(), DaemonError> {
        let (records, next_seq) = {
            let state = self.locked();
            (
                state.ring.iter().cloned().collect::<Vec<FlightRecord>>(),
                state.next_seq,
            )
        };
        let header = FlightHeader {
            version: FLIGHTREC_VERSION,
            reason: reason.to_string(),
            next_seq,
        };
        let profile = self.inner.profile.snapshot();
        let frames = vec![
            slicer_crypto::codec::to_bytes(&header)?,
            slicer_crypto::codec::to_bytes(&records)?,
            slicer_crypto::codec::to_bytes(&profile.to_folded(ProfileMode::Wall))?,
            slicer_crypto::codec::to_bytes(&profile.to_folded(ProfileMode::Gas))?,
        ];
        let tmp = self.inner.path.with_extension("slc.tmp");
        slicer_persist::write_frames(&tmp, &frames)?;
        std::fs::rename(&tmp, &self.inner.path)?;
        Ok(())
    }
}

/// A decoded flight recording — what `slicer-cli flightrec` prints and
/// the crash tests assert on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecording {
    /// Why the recording was last persisted.
    pub reason: String,
    /// The next sequence number the recorder would have assigned.
    pub next_seq: u64,
    /// Retained requests, oldest first.
    pub requests: Vec<FlightRecord>,
    /// Folded wall-weighted profile.
    pub profile_wall: String,
    /// Folded gas-weighted profile.
    pub profile_gas: String,
}

impl FlightRecording {
    /// Reads and checksum-validates a recording from `path`.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Persist`] when the file is unreadable or fails
    /// frame validation, [`DaemonError::Protocol`] when a frame is
    /// missing or does not decode, or the version is not 3.
    pub fn load(path: &Path) -> Result<Self, DaemonError> {
        let (frames, _) = slicer_persist::read_frames(path)?;
        let mut it = frames.iter();
        let mut frame = |what: &str| {
            it.next()
                .ok_or_else(|| DaemonError::Protocol(format!("flightrec missing {what} frame")))
        };
        let header: FlightHeader = slicer_crypto::codec::from_bytes(frame("header")?)?;
        if header.version != FLIGHTREC_VERSION {
            return Err(DaemonError::Protocol(format!(
                "unsupported flightrec version {}",
                header.version
            )));
        }
        Ok(FlightRecording {
            reason: header.reason,
            next_seq: header.next_seq,
            requests: slicer_crypto::codec::from_bytes(frame("requests")?)?,
            profile_wall: slicer_crypto::codec::from_bytes(frame("profile_wall")?)?,
            profile_gas: slicer_crypto::codec::from_bytes(frame("profile_gas")?)?,
        })
    }

    /// The newest entry still marked [`IN_FLIGHT`], if any — the request
    /// the process died inside.
    pub fn in_flight(&self) -> Option<&FlightRecord> {
        self.requests.iter().rev().find(|r| r.outcome == IN_FLIGHT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("slicer-fr-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(FLIGHTREC_FILE)
    }

    #[test]
    fn begin_persists_an_in_flight_entry_before_the_request_runs() {
        let path = tmp("begin");
        let rec = FlightRecorder::new(path.clone(), 4, Arc::default());
        let (seq, err) = rec.begin(42, "search", 100);
        assert!(err.is_none(), "{err:?}");

        // What a kill -9 mid-request would leave behind:
        let loaded = FlightRecording::load(&path).unwrap();
        assert_eq!(loaded.reason, "request-start");
        let inflight = loaded.in_flight().expect("in-flight entry on disk");
        assert_eq!(inflight.seq, seq);
        assert_eq!(inflight.kind, "search");
        assert_eq!(inflight.trace_id, 42);

        assert!(rec.end(seq, 900, "ok").is_none());
        let loaded = FlightRecording::load(&path).unwrap();
        assert_eq!(loaded.reason, "request-end");
        assert!(loaded.in_flight().is_none());
        assert_eq!(loaded.requests[0].duration_ns, 900);
        assert_eq!(loaded.requests[0].outcome, "ok");
    }

    #[test]
    fn ring_evicts_oldest_and_seq_keeps_counting() {
        let path = tmp("evict");
        let rec = FlightRecorder::new(path.clone(), 2, Arc::default());
        for i in 0..4u64 {
            let (seq, _) = rec.begin(i, "stat", i * 10);
            rec.end(seq, 1, "ok");
        }
        let loaded = FlightRecording::load(&path).unwrap();
        assert_eq!(loaded.requests.len(), 2);
        let seqs: Vec<u64> = loaded.requests.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        assert_eq!(loaded.next_seq, 5);
        // Ending an evicted seq is a no-op, not a panic.
        assert!(rec.end(1, 7, "ok").is_none());
    }

    #[test]
    fn explicit_persist_stamps_the_reason() {
        let path = tmp("reason");
        let rec = FlightRecorder::new(path.clone(), 4, Arc::default());
        rec.persist("shutdown").unwrap();
        assert_eq!(FlightRecording::load(&path).unwrap().reason, "shutdown");
        // Clones (panic hook) share the same ring and path.
        let hook = rec.clone();
        let (_, _) = rec.begin(1, "ingest", 0);
        hook.persist("panic").unwrap();
        let loaded = FlightRecording::load(&path).unwrap();
        assert_eq!(loaded.reason, "panic");
        assert_eq!(loaded.requests.len(), 1);
    }

    #[test]
    fn persist_embeds_the_live_profile() {
        use slicer_telemetry::{Event, Sink, SpanId, TraceId};
        let path = tmp("profile");
        let agg = Arc::new(ProfileAggregator::new());
        agg.record(Event::SpanEnd {
            trace: TraceId(1),
            span: SpanId(1),
            parent: None,
            name: "daemon.request".into(),
            start_ns: 0,
            duration_ns: 40,
            attrs: vec![("gas.used", slicer_telemetry::AttrValue::U64(9))],
        });
        let rec = FlightRecorder::new(path.clone(), 4, agg);
        rec.persist("shutdown").unwrap();
        let loaded = FlightRecording::load(&path).unwrap();
        assert_eq!(loaded.profile_wall, "daemon.request 40\n");
        assert_eq!(loaded.profile_gas, "daemon.request 9\n");
    }

    #[test]
    fn only_version_3_recordings_load() {
        // A three-frame v1 segment, a five-frame v2 segment (with its log
        // tail) and an unknown future version get the same typed error.
        let path = tmp("version");
        let frame = |s: &str| slicer_crypto::codec::to_bytes(&String::from(s)).unwrap();
        for (version, extra) in [(1, 1), (2, 3), (99, 2)] {
            let header = FlightHeader {
                version,
                reason: "shutdown".into(),
                next_seq: 3,
            };
            let mut frames = vec![
                slicer_crypto::codec::to_bytes(&header).unwrap(),
                slicer_crypto::codec::to_bytes(&Vec::<FlightRecord>::new()).unwrap(),
            ];
            frames.extend((0..extra).map(|_| frame("{}\n")));
            slicer_persist::write_frames(&path, &frames).unwrap();
            let err = FlightRecording::load(&path).unwrap_err();
            assert!(
                matches!(&err, DaemonError::Protocol(m) if m.contains("unsupported flightrec version")),
                "{err}"
            );
        }
    }

    #[test]
    fn corrupted_recording_fails_validation() {
        let path = tmp("corrupt");
        let rec = FlightRecorder::new(path.clone(), 4, Arc::default());
        rec.persist("shutdown").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 40; // inside a payload, not the magic
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FlightRecording::load(&path),
            Err(DaemonError::Persist(_))
        ));
    }
}
