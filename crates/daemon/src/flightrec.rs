//! The crash flight recorder: a bounded ring of recent requests plus
//! the daemon's folded wall and gas profiles, persisted as checksummed
//! `.slc` frame images so *any* death of the daemon — panic, fatal
//! serve-loop error, clean shutdown, even `kill -9` — leaves a
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
//! mid-request therefore leaves a recording whose newest entry names the
//! request that was executing — exactly what the crash_restart suite
//! and the ci.sh kill-9 stage assert on.
//!
//! A persist is one positioned write into a file the recorder opened
//! once (the first persist of a process creates or truncates it): no
//! temp file, no rename, no fsync. The file holds two slots, and each
//! persist overwrites the *older* one, so the slot not being written
//! always holds a whole recording — a write cut short by `SIGKILL`, or
//! read half-done by a concurrent reader, costs at most the newest
//! persist. Each slot is an image in [`slicer_persist`]'s
//! `[u64 LE len ‖ payload ‖ SHA-256(payload)]` framing, so a torn or
//! corrupted slot fails checksum validation instead of decoding
//! garbage, and [`FlightRecording::load`] returns the newest slot that
//! validates. The recording survives the death of the process; it is
//! not synced to stable storage and does not promise to survive a power
//! loss.
//!
//! File layout (format version 4):
//!
//! ```text
//! offset 0         slot A   frame image behind the `SLCSEG3\0` magic
//! offset 8 KiB     slot B   (or the next power of two at least as large
//!                           as every image written, so a large profile
//!                           is still written whole)
//!
//! frame 0   FlightHeader  { version, reason, next_seq, persist }
//! frame 1   Vec<FlightRecord>   oldest → newest
//! frame 2   String              folded wall profile
//! frame 3   String              folded gas profile
//! ```
//!
//! `persist` counts the persists of the writing process; the slot with
//! the higher count is the newer. The profile frames hold the daemon's
//! live [`ProfileAggregator`] fold, so a crash dump answers not just
//! "what was running" but "where the time and gas had gone". Only
//! version 4 loads; any other version is an "unsupported flightrec
//! version" error.

use crate::error::DaemonError;
use slicer_crypto::codec::{Decode, Reader};
use slicer_persist::PersistError;
use slicer_telemetry::{ProfileAggregator, ProfileMode};
use std::collections::VecDeque;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// File name of the recording inside the daemon's data directory.
pub const FLIGHTREC_FILE: &str = "flightrec.slc";

/// Recording format version (frame-0 header field).
const FLIGHTREC_VERSION: u32 = 4;

/// Frames in one recording image.
const FLIGHTREC_FRAMES: usize = 4;

/// The frames of one slot, header first.
type Frames = [Vec<u8>; FLIGHTREC_FRAMES];

/// Offset of slot B while every image fits below it.
const SLOT_B_MIN: u64 = 8 * 1024;

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
    /// Persists of the writing process up to and including this one.
    persist: u64,
}

slicer_crypto::impl_codec!(FlightHeader {
    version,
    reason,
    next_seq,
    persist
});

#[derive(Debug)]
struct RecorderState {
    ring: VecDeque<FlightRecord>,
    next_seq: u64,
    /// The open recording; `None` until the first persist creates it.
    file: Option<File>,
    /// Persists so far — the header's `persist` counter.
    persists: u64,
    /// Offset of slot B: a power of two no smaller than [`SLOT_B_MIN`]
    /// or than any image written, so slot A never reaches it.
    slot_b: u64,
    /// Whether slot B holds the older recording (the next to overwrite).
    next_in_b: bool,
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

/// Shared handle to the flight recorder. Clones share one ring and one
/// open file — the serving loop holds one, the panic hook another.
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
                    file: None,
                    persists: 0,
                    slot_b: SLOT_B_MIN,
                    next_in_b: false,
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

    /// Writes the recording into the older slot, stamping it with
    /// `reason` (`"request-start"`, `"request-end"`, `"shutdown"`,
    /// `"panic"`, `"serve-error"`). Persists are serialized under the
    /// recorder's lock: the panic hook may persist from a pool thread.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Persist`] / [`DaemonError::Io`] on filesystem
    /// failure — callers on the serving path log and continue.
    pub fn persist(&self, reason: &str) -> Result<(), DaemonError> {
        let profile = self.inner.profile.snapshot();
        let wall = slicer_crypto::codec::to_bytes(&profile.to_folded(ProfileMode::Wall))?;
        let gas = slicer_crypto::codec::to_bytes(&profile.to_folded(ProfileMode::Gas))?;
        let mut guard = self.locked();
        let state = &mut *guard;
        state.persists += 1;
        let header = FlightHeader {
            version: FLIGHTREC_VERSION,
            reason: reason.to_string(),
            next_seq: state.next_seq,
            persist: state.persists,
        };
        let frames = [
            slicer_crypto::codec::to_bytes(&header)?,
            slicer_crypto::codec::to_bytes(&*state.ring.make_contiguous())?,
            wall,
            gas,
        ];
        // An image that outgrows slot A moves slot B past it; the new
        // slot B starts beyond the end of the old one, so both slots
        // written before stay whole. A failed write moves nothing.
        let len = slicer_persist::image_len(&frames);
        let (in_b, slot_b) = if len > state.slot_b {
            (true, len.next_power_of_two())
        } else {
            (state.next_in_b, state.slot_b)
        };
        let file = match &state.file {
            Some(file) => file,
            None => state.file.insert(File::create(&self.inner.path)?),
        };
        let offset = if in_b { slot_b } else { 0 };
        slicer_persist::write_frames_at(file, &self.inner.path, offset, &frames)?;
        state.slot_b = slot_b;
        state.next_in_b = !in_b;
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
    /// Reads `path`, checksum-validates both slots and decodes the
    /// newest slot that validates.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Persist`] when the file is unreadable or no slot
    /// passes frame validation, [`DaemonError::Protocol`] when a frame
    /// does not decode or the newest valid slot's version is not 4.
    pub fn load(path: &Path) -> Result<Self, DaemonError> {
        let bytes = std::fs::read(path).map_err(|e| PersistError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        })?;
        // Slot A, then every offset slot B can have moved to. The newest
        // valid slot wins; with none, slot A's error is the answer.
        let mut newest = read_slot(path, &bytes);
        let slot_b = std::iter::successors(Some(SLOT_B_MIN), |o| o.checked_mul(2));
        for slot in slot_b.map_while(|o| bytes.get(usize::try_from(o).ok()?..)) {
            if slot.is_empty() {
                break;
            }
            if let Ok(b) = read_slot(path, slot) {
                if !newest.as_ref().is_ok_and(|a| a.0.persist > b.0.persist) {
                    newest = Ok(b);
                }
            }
        }
        let (header, frames) = newest?;
        let [_, requests, wall, gas] = frames;
        Ok(FlightRecording {
            reason: header.reason,
            next_seq: header.next_seq,
            requests: slicer_crypto::codec::from_bytes(&requests)?,
            profile_wall: slicer_crypto::codec::from_bytes(&wall)?,
            profile_gas: slicer_crypto::codec::from_bytes(&gas)?,
        })
    }

    /// The newest entry still marked [`IN_FLIGHT`], if any — the request
    /// the process died inside.
    pub fn in_flight(&self) -> Option<&FlightRecord> {
        self.requests.iter().rev().find(|r| r.outcome == IN_FLIGHT)
    }
}

/// Validates the slot image at the start of `slot` and decodes its
/// header; the header's leading field is the version in every format,
/// so an old recording is named as such.
fn read_slot(path: &Path, slot: &[u8]) -> Result<(FlightHeader, Frames), DaemonError> {
    let (frames, _) = slicer_persist::parse_frames(path, slot, FLIGHTREC_FRAMES)?;
    let header = frames.first().map(Vec::as_slice).unwrap_or_default();
    let version = u32::decode(&mut Reader::new(header))?;
    if version != FLIGHTREC_VERSION {
        return Err(DaemonError::Protocol(format!(
            "unsupported flightrec version {version}"
        )));
    }
    let header = slicer_crypto::codec::from_bytes(header)?;
    let frames = Frames::try_from(frames).map_err(|short| PersistError::Corrupt {
        path: path.display().to_string(),
        detail: format!(
            "flightrec slot holds {} of {FLIGHTREC_FRAMES} frames",
            short.len()
        ),
    })?;
    Ok((header, frames))
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
    fn only_version_4_recordings_load() {
        // A v3 single-image file (the format replaced by the two slots),
        // a three-frame v1 segment, a five-frame v2 segment (with its log
        // tail) and an unknown future version get the same typed error.
        let path = tmp("version");
        let frame = |s: &str| slicer_crypto::codec::to_bytes(&String::from(s)).unwrap();
        for (version, extra) in [(3, 2), (1, 1), (2, 3), (99, 2)] {
            let header = (version, String::from("shutdown"), 3u64);
            let mut frames = vec![
                slicer_crypto::codec::to_bytes(&header).unwrap(),
                slicer_crypto::codec::to_bytes(&Vec::<FlightRecord>::new()).unwrap(),
            ];
            frames.extend((0..extra).map(|_| frame("{}\n")));
            let file = File::create(&path).unwrap();
            slicer_persist::write_frames_at(&file, &path, 0, &frames).unwrap();
            let err = FlightRecording::load(&path).unwrap_err();
            assert!(
                matches!(&err, DaemonError::Protocol(m) if m.contains("unsupported flightrec version")),
                "{err}"
            );
        }
    }

    /// Offsets of slot A and slot B in a file whose images fit 8 KiB.
    const SLOTS: [usize; 2] = [0, SLOT_B_MIN as usize];

    /// Persists `n` times, reason `p<i>` for the i-th (1-based).
    fn persists(name: &str, n: usize) -> PathBuf {
        let path = tmp(name);
        let rec = FlightRecorder::new(path.clone(), 4, Arc::default());
        for i in 1..=n {
            rec.persist(&format!("p{i}")).unwrap();
        }
        path
    }

    #[test]
    fn persists_alternate_between_the_two_slots() {
        let path = persists("alternate", 1);
        let one = std::fs::metadata(&path).unwrap().len();
        assert!(one < SLOT_B_MIN, "the first persist fills slot A only");
        let rec = FlightRecorder::new(path.clone(), 4, Arc::default());
        for i in 1..=5 {
            rec.persist(&format!("p{i}")).unwrap();
            assert_eq!(
                FlightRecording::load(&path).unwrap().reason,
                format!("p{i}")
            );
        }
        // The recorder's first persist truncated the older file; the
        // file now ends with slot B.
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.len() > SLOTS[1]);
        for at in SLOTS {
            assert!(bytes[at..].starts_with(b"SLCSEG3\0"), "slot at {at}");
        }
    }

    #[test]
    fn a_torn_newest_slot_falls_back_to_the_previous_persist() {
        // Two persists: p2 in slot B is the newest; three: p3 in slot A.
        for (n, torn, want) in [(2, 1, "p1"), (3, 0, "p2")] {
            let path = persists(&format!("torn{n}"), n);
            let good = std::fs::read(&path).unwrap();
            assert_eq!(
                FlightRecording::load(&path).unwrap().reason,
                format!("p{n}")
            );

            // A flipped bit inside the newest slot's payload.
            let mut bytes = good.clone();
            bytes[SLOTS[torn] + 60] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(FlightRecording::load(&path).unwrap().reason, want);

            // The newest slot cut short, as a killed write leaves it.
            let mut bytes = good.clone();
            if torn == 1 {
                bytes.truncate(SLOTS[1] + 100);
            } else {
                bytes[SLOTS[0] + 100..SLOTS[0] + 400].fill(0);
            }
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(FlightRecording::load(&path).unwrap().reason, want);
        }
    }

    #[test]
    fn both_slots_corrupt_is_a_persist_error() {
        let path = persists("corrupt", 2);
        let mut bytes = std::fs::read(&path).unwrap();
        for at in SLOTS {
            bytes[at + 60] ^= 0x01; // inside a payload, not the magic
        }
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FlightRecording::load(&path),
            Err(DaemonError::Persist(_))
        ));
    }

    #[test]
    fn an_image_larger_than_slot_a_moves_slot_b_and_reloads() {
        use slicer_telemetry::{Event, Sink, SpanId, TraceId};
        let path = tmp("large");
        let agg = Arc::new(ProfileAggregator::new());
        let rec = FlightRecorder::new(path.clone(), 4, agg.clone());
        rec.persist("small").unwrap();
        for i in 0..600u64 {
            agg.record(Event::SpanEnd {
                trace: TraceId(1),
                span: SpanId(i + 1),
                parent: None,
                name: format!("stack.number.{i}"),
                start_ns: 0,
                duration_ns: 10,
                attrs: vec![],
            });
        }
        for reason in ["large-1", "large-2", "large-3"] {
            rec.persist(reason).unwrap();
            let loaded = FlightRecording::load(&path).unwrap();
            assert_eq!(loaded.reason, reason);
            assert_eq!(loaded.profile_wall.lines().count(), 600);
        }
        let len = std::fs::metadata(&path).unwrap().len();
        assert!(len > 2 * SLOT_B_MIN, "slot B moved past 8 KiB: {len} B");
    }
}
