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
//! enough: the recorder writes at every request *start* (marking the
//! entry in-flight) and again at request *end*. A process killed
//! mid-request therefore leaves a recording whose newest entry names the
//! request that was executing — exactly what the crash_restart suite
//! and the ci.sh kill-9 stage assert on.
//!
//! Every write is one positioned write into a file the recorder opened
//! once (the first write of a process creates or truncates it): no temp
//! file, no rename, no fsync. Each request entry has a fixed slot of its
//! own, so a request boundary rewrites one small slot, not the whole
//! ring. The profiles alternate between two profile slots, each write
//! overwriting the *older* one, so the slot not being written always
//! holds a whole profile. Every slot is one frame in [`slicer_persist`]'s
//! `[u64 LE len ‖ payload ‖ SHA-256(payload)]` framing behind the
//! `SLCSEG3\0` magic, written with [`slicer_persist::write_frames_at`]: a
//! write cut short by `SIGKILL`, or read half-done by a concurrent
//! reader, fails checksum validation and costs only that slot — one
//! entry, or the newest profile. The recording survives the death of the
//! process; it is not synced to stable storage and does not promise to
//! survive a power loss.
//!
//! File layout (format version 5), each part one frame:
//!
//! ```text
//! offset 0                 header          { version, capacity }
//! offset 64 + 128·i        entry slot i    { persist, FlightRecord } of
//!                                          the entry whose seq ≡ i (mod capacity)
//! offset P = 64 + 128·capacity
//!                          profile slot A  { reason, next_seq, persist,
//!                                            wall, gas }
//! offset P + 2 KiB         profile slot B  (or P plus the next power of
//!                                          two at least as large as every
//!                                          profile image written)
//! ```
//!
//! `wall` and `gas` are the live [`ProfileAggregator`]'s folded wall and
//! gas profiles, so a crash dump answers not just "what was running"
//! but "where the time and gas had gone".
//!
//! `begin` writes the new entry's slot; `end` rewrites it and then the
//! older profile slot; [`FlightRecorder::persist`] writes the older
//! profile slot. `persist` counts the slot writes of the writing
//! process, so the highest count is the newest write. An outcome too
//! long for its slot is clipped at a char boundary: a failed request's
//! full error goes to the daemon's log, so after a crash it survives
//! only where `slicerd`'s stderr was kept. Only version 5 loads; any other
//! version is an "unsupported flightrec version" error.

use crate::error::DaemonError;
use slicer_crypto::codec::{from_bytes, to_bytes, Decode, Encode, Reader};
use slicer_persist::PersistError;
use slicer_telemetry::{ProfileAggregator, ProfileMode};
use std::collections::VecDeque;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// File name of the recording inside the daemon's data directory.
pub const FLIGHTREC_FILE: &str = "flightrec.slc";

/// Recording format version (the header's leading field).
const FLIGHTREC_VERSION: u32 = 5;

/// Bytes reserved for the header image.
const HEADER_LEN: u64 = 64;

/// Bytes of one entry slot.
const ENTRY_SLOT: u64 = 128;

/// Offset of profile slot B from profile slot A while every profile
/// image fits below it.
const PROFILE_B_MIN: u64 = 2 * 1024;

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
    /// [`IN_FLIGHT`], `"ok"`, or `"error: …"` (clipped to its slot).
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
struct FileHeader {
    version: u32,
    /// Entry slots in the file.
    capacity: u64,
}

slicer_crypto::impl_codec!(FileHeader { version, capacity });

/// The payload of one entry slot.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EntrySlot {
    /// Slot writes of the writing process up to and including this one.
    persist: u64,
    record: FlightRecord,
}

slicer_crypto::impl_codec!(EntrySlot { persist, record });

/// The payload of one profile slot.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ProfileSlot {
    reason: String,
    next_seq: u64,
    /// Slot writes of the writing process up to and including this one.
    persist: u64,
    /// Folded wall-weighted profile.
    wall: String,
    /// Folded gas-weighted profile.
    gas: String,
}

slicer_crypto::impl_codec!(ProfileSlot {
    reason,
    next_seq,
    persist,
    wall,
    gas
});

/// Bytes an entry slot leaves for the record's kind and outcome: the
/// slot less the frame image of seven `u64`s — the slot's `persist`,
/// the record's four numbers and its two string lengths.
const ENTRY_TEXT: usize = ENTRY_SLOT as usize - slicer_persist::single_frame_len(7 * 8);

#[derive(Debug)]
struct RecorderState {
    ring: VecDeque<FlightRecord>,
    next_seq: u64,
    /// The open recording; `None` until the first write creates it.
    file: Option<File>,
    /// Slot writes so far — the slots' `persist` counter.
    persists: u64,
    /// Offset of profile slot B from slot A: a power of two no smaller
    /// than [`PROFILE_B_MIN`] or than any profile image written, so slot
    /// A never reaches it.
    profile_b: u64,
    /// Whether profile slot B holds the older profiles (the next to
    /// overwrite).
    next_in_b: bool,
}

#[derive(Debug)]
struct RecorderInner {
    path: PathBuf,
    capacity: usize,
    /// The daemon's live profile aggregator; its folded wall and gas
    /// stacks are embedded in every profile slot.
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
                    profile_b: PROFILE_B_MIN,
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

    /// Registers a request as in flight and writes its entry slot, so a
    /// `kill -9` during handling leaves the entry on disk. Returns the
    /// entry's sequence number for [`FlightRecorder::end`]. Write
    /// failures are reported to the caller but never fail the request.
    pub fn begin(&self, trace_id: u64, kind: &str, start_ns: u64) -> (u64, Option<DaemonError>) {
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
        (seq, self.write_entry(&mut state, seq).err())
    }

    /// Marks entry `seq` finished with `outcome`, rewrites its slot and
    /// then the older profile slot. A `seq` already evicted from the
    /// ring only writes the profiles.
    pub fn end(&self, seq: u64, duration_ns: u64, outcome: &str) -> Option<DaemonError> {
        let folded = self.render();
        let mut state = self.locked();
        let entry = match state.ring.iter_mut().rev().find(|r| r.seq == seq) {
            Some(entry) => {
                entry.duration_ns = duration_ns;
                entry.outcome = outcome.to_string();
                self.write_entry(&mut state, seq)
            }
            None => Ok(()),
        };
        let profile = self.write_profile(&mut state, "request-end", folded);
        entry.and(profile).err()
    }

    /// Writes the live profiles into the older profile slot, stamping it
    /// with `reason` (`"shutdown"`, `"panic"`, `"serve-error"`). Writes
    /// are serialized under the recorder's lock: the panic hook may
    /// persist from a pool thread.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Persist`] / [`DaemonError::Io`] on filesystem
    /// failure — callers on the serving path log and continue.
    pub fn persist(&self, reason: &str) -> Result<(), DaemonError> {
        let folded = self.render();
        self.write_profile(&mut self.locked(), reason, folded)
    }

    /// The live folded wall and gas profiles, rendered before the
    /// recorder's lock is taken.
    fn render(&self) -> [String; 2] {
        let profile = self.inner.profile.snapshot();
        [ProfileMode::Wall, ProfileMode::Gas].map(|mode| profile.to_folded(mode))
    }

    /// The open recording. The first call of a process creates (or
    /// truncates) the file and writes its header.
    fn file<'a>(&self, state: &'a mut RecorderState) -> Result<&'a File, DaemonError> {
        let file = match state.file.take() {
            Some(file) => file,
            None => {
                let path = &self.inner.path;
                let file = File::create(path)?;
                let header = FileHeader {
                    version: FLIGHTREC_VERSION,
                    capacity: self.inner.capacity as u64,
                };
                slicer_persist::write_frames_at(&file, path, 0, &[to_bytes(&header)?])?;
                file
            }
        };
        Ok(state.file.insert(file))
    }

    /// Writes ring entry `seq` into its slot, its kind and outcome
    /// clipped to the slot.
    fn write_entry(&self, state: &mut RecorderState, seq: u64) -> Result<(), DaemonError> {
        // Newest first: `seq` is the request just begun or ending.
        let Some(record) = state.ring.iter().rev().find(|r| r.seq == seq) else {
            return Ok(());
        };
        let kind = clip(&record.kind, ENTRY_TEXT);
        let outcome = clip(&record.outcome, ENTRY_TEXT - kind.len());
        let slot = EntrySlot {
            persist: state.persists + 1,
            record: FlightRecord {
                kind: kind.to_string(),
                outcome: outcome.to_string(),
                ..record.clone()
            },
        };
        let mut payload = Vec::with_capacity(ENTRY_SLOT as usize);
        slot.encode(&mut payload);
        let offset = HEADER_LEN + (seq % self.inner.capacity as u64) * ENTRY_SLOT;
        slicer_persist::write_frames_at(self.file(state)?, &self.inner.path, offset, &[payload])?;
        state.persists += 1;
        Ok(())
    }

    /// Writes the folded wall and gas profiles into the older profile
    /// slot under `reason`.
    fn write_profile(
        &self,
        state: &mut RecorderState,
        reason: &str,
        [wall, gas]: [String; 2],
    ) -> Result<(), DaemonError> {
        let slot = ProfileSlot {
            reason: reason.to_string(),
            next_seq: state.next_seq,
            persist: state.persists + 1,
            wall,
            gas,
        };
        // Five fields, each at most a u64 and a string's bytes.
        let mut payload =
            Vec::with_capacity(5 * 8 + slot.reason.len() + slot.wall.len() + slot.gas.len());
        slot.encode(&mut payload);
        // An image that outgrows slot A moves slot B past it; the new
        // slot B starts beyond the end of the old one, so both slots
        // written before stay whole. A failed write moves nothing.
        let len = slicer_persist::single_frame_len(payload.len()) as u64;
        let (in_b, profile_b) = if len > state.profile_b {
            (true, len.next_power_of_two())
        } else {
            (state.next_in_b, state.profile_b)
        };
        let offset = profile_a(self.inner.capacity as u64) + if in_b { profile_b } else { 0 };
        slicer_persist::write_frames_at(self.file(state)?, &self.inner.path, offset, &[payload])?;
        state.persists += 1;
        state.profile_b = profile_b;
        state.next_in_b = !in_b;
        Ok(())
    }
}

/// Offset of profile slot A in a recording of `capacity` entry slots
/// (saturating: `capacity` may come from a file).
fn profile_a(capacity: u64) -> u64 {
    capacity
        .saturating_mul(ENTRY_SLOT)
        .saturating_add(HEADER_LEN)
}

/// The longest prefix of `s` of at most `max` bytes that ends on a char
/// boundary.
fn clip(s: &str, max: usize) -> &str {
    let mut end = s.len().min(max);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    s.get(..end).unwrap_or_default()
}

/// A decoded flight recording — what `slicer-cli flightrec` prints and
/// the crash tests assert on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecording {
    /// Why the recording was last written: the newest profile slot's
    /// reason, or `"request-start"` / `"request-end"` when an entry slot
    /// was written after it.
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
    /// Reads `path`, checksum-validates every slot and decodes the valid
    /// ones: the entries in seq order, the newest profile slot, and the
    /// reason of the newest write. A torn slot drops only its entry, or
    /// falls back to the older profiles.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Persist`] when the file is unreadable, its header
    /// does not validate or no slot does, [`DaemonError::Protocol`] when
    /// the header's version is not 5.
    pub fn load(path: &Path) -> Result<Self, DaemonError> {
        let bytes = std::fs::read(path).map_err(|e| PersistError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        })?;
        let capacity = read_header(path, &bytes)?;
        let slot_at = |offset: u64, len: u64| {
            let start = usize::try_from(offset).ok()?;
            let end = usize::try_from(offset.saturating_add(len)).unwrap_or(usize::MAX);
            bytes.get(start..end.min(bytes.len()))
        };

        let mut entries: Vec<EntrySlot> = (0..capacity)
            .map_while(|i| slot_at(HEADER_LEN + i * ENTRY_SLOT, ENTRY_SLOT))
            .filter_map(|slot| read_slot::<EntrySlot>(path, slot))
            .collect();
        entries.sort_by_key(|e| e.record.seq);

        // Slot A, then every offset slot B can have moved to; the newest
        // valid one wins.
        let a = profile_a(capacity);
        let b = std::iter::successors(Some(PROFILE_B_MIN), |o| o.checked_mul(2));
        let profile = std::iter::once(a)
            .chain(b.map_while(|o| a.checked_add(o)))
            .map_while(|o| slot_at(o, u64::MAX).filter(|s| !s.is_empty()))
            .filter_map(|slot| read_slot::<ProfileSlot>(path, slot))
            .max_by_key(|p| p.persist);

        // An entry slot written after the newest profile slot names the
        // last boundary.
        let newest_entry = entries
            .iter()
            .max_by_key(|e| e.persist)
            .filter(|e| profile.as_ref().is_none_or(|p| p.persist < e.persist));
        let reason = match (newest_entry, &profile) {
            (Some(e), _) if e.record.outcome == IN_FLIGHT => "request-start".to_string(),
            (Some(_), _) => "request-end".to_string(),
            (None, Some(p)) => p.reason.clone(),
            (None, None) => {
                return Err(PersistError::Corrupt {
                    path: path.display().to_string(),
                    detail: "no flightrec slot validates".into(),
                }
                .into())
            }
        };
        let entry_seq = entries.last().map_or(0, |e| e.record.seq.saturating_add(1));
        let (next_seq, [profile_wall, profile_gas]) = match profile {
            Some(p) => (p.next_seq.max(entry_seq), [p.wall, p.gas]),
            None => (entry_seq, Default::default()),
        };
        Ok(FlightRecording {
            reason,
            next_seq,
            requests: entries.into_iter().map(|e| e.record).collect(),
            profile_wall,
            profile_gas,
        })
    }

    /// The newest entry still marked [`IN_FLIGHT`], if any — the request
    /// the process died inside.
    pub fn in_flight(&self) -> Option<&FlightRecord> {
        self.requests.iter().rev().find(|r| r.outcome == IN_FLIGHT)
    }
}

/// Validates the header image at the start of `bytes` and returns the
/// recording's entry capacity. The header's leading field is the
/// version in every format, so an old recording is named as such.
fn read_header(path: &Path, bytes: &[u8]) -> Result<u64, DaemonError> {
    let (frames, _) = slicer_persist::parse_frames(path, bytes, 1)?;
    let header = frames.first().map(Vec::as_slice).unwrap_or_default();
    let version = u32::decode(&mut Reader::new(header))?;
    if version != FLIGHTREC_VERSION {
        return Err(DaemonError::Protocol(format!(
            "unsupported flightrec version {version}"
        )));
    }
    Ok(from_bytes::<FileHeader>(header)?.capacity)
}

/// The payload of the slot at the start of `slot`, or `None` when the
/// slot is empty or torn.
fn read_slot<T: Decode>(path: &Path, slot: &[u8]) -> Option<T> {
    let (frames, _) = slicer_persist::parse_frames(path, slot, 1).ok()?;
    from_bytes(frames.first()?).ok()
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
        use slicer_telemetry::{AttrValue, Event, ProfileMode, Sink, SpanId, TraceId};
        let path = tmp("profile");
        let agg = Arc::new(ProfileAggregator::new());
        for (name, duration_ns, gas) in [("daemon.request", 40, 9), ("daemon.idle", 7, 0)] {
            agg.record(Event::SpanEnd {
                trace: TraceId(1),
                span: SpanId(duration_ns),
                parent: None,
                name: name.into(),
                start_ns: 0,
                duration_ns,
                attrs: vec![("gas.used", AttrValue::U64(gas))],
            });
        }
        let rec = FlightRecorder::new(path.clone(), 4, agg.clone());
        rec.persist("shutdown").unwrap();
        let loaded = FlightRecording::load(&path).unwrap();
        assert_eq!(loaded.profile_wall, "daemon.idle 7\ndaemon.request 40\n");
        assert_eq!(loaded.profile_gas, "daemon.request 9\n");
        let profile = agg.snapshot();
        assert_eq!(loaded.profile_wall, profile.to_folded(ProfileMode::Wall));
        assert_eq!(loaded.profile_gas, profile.to_folded(ProfileMode::Gas));
    }

    /// Bytes of the entry slot that holds `seq` in a recording of
    /// `capacity` entries.
    fn entry_slot(capacity: u64, seq: u64) -> std::ops::Range<usize> {
        let at = (HEADER_LEN + (seq % capacity) * ENTRY_SLOT) as usize;
        at..at + ENTRY_SLOT as usize
    }

    /// Offsets of profile slots A and B in a four-entry recording whose
    /// profile images fit 2 KiB.
    const PROFILES: [usize; 2] = [
        (HEADER_LEN + 4 * ENTRY_SLOT) as usize,
        (HEADER_LEN + 4 * ENTRY_SLOT + PROFILE_B_MIN) as usize,
    ];

    /// A four-entry recorder that served `n` requests with trace ids
    /// `1..=n`, each ended `"ok"`.
    fn served(name: &str, n: u64) -> (FlightRecorder, PathBuf) {
        let path = tmp(name);
        let rec = FlightRecorder::new(path.clone(), 4, Arc::default());
        for trace in 1..=n {
            let (seq, _) = rec.begin(trace, "stat", trace * 10);
            assert!(rec.end(seq, 1, "ok").is_none());
        }
        (rec, path)
    }

    fn seqs(rec: &FlightRecording) -> Vec<u64> {
        rec.requests.iter().map(|r| r.seq).collect()
    }

    #[test]
    fn a_begin_changes_only_its_entry_slot() {
        // Five requests wrap the four-entry ring once.
        let (rec, path) = served("begin-slot", 5);
        let before = std::fs::read(&path).unwrap();
        let (seq, err) = rec.begin(6, "search", 60);
        assert!(err.is_none(), "{err:?}");
        let after = std::fs::read(&path).unwrap();
        assert_eq!(after.len(), before.len());
        let slot = entry_slot(4, seq);
        let changed: Vec<usize> = (0..after.len())
            .filter(|&i| after[i] != before[i])
            .collect();
        assert!(!changed.is_empty());
        assert!(
            changed.iter().all(|i| slot.contains(i)),
            "bytes {changed:?} changed outside slot {slot:?}"
        );

        let loaded = FlightRecording::load(&path).unwrap();
        assert_eq!(loaded.reason, "request-start");
        assert_eq!(loaded.next_seq, 7);
        assert_eq!(seqs(&loaded), vec![3, 4, 5, 6]);
        assert_eq!(loaded.in_flight().map(|r| r.seq), Some(seq));
    }

    #[test]
    fn a_torn_entry_slot_drops_only_that_entry() {
        let (_, path) = served("torn-entry", 4);
        let good = std::fs::read(&path).unwrap();
        let whole = FlightRecording::load(&path).unwrap();
        assert_eq!(seqs(&whole), vec![1, 2, 3, 4]);

        let slot = entry_slot(4, 2);
        // A flipped bit inside the payload, and a write cut short: the
        // slot's tail never landed.
        let mut flipped = good.clone();
        flipped[slot.start + 40] ^= 0x01;
        let mut cut = good.clone();
        cut[slot.start + 30..slot.end].fill(0);
        for bytes in [flipped, cut] {
            std::fs::write(&path, &bytes).unwrap();
            let loaded = FlightRecording::load(&path).unwrap();
            assert_eq!(seqs(&loaded), vec![1, 3, 4]);
            assert_eq!(
                (loaded.reason.as_str(), loaded.next_seq),
                ("request-end", 5)
            );
            assert_eq!(loaded.profile_wall, whole.profile_wall);
        }

        // With no slot left whole the recording is a persist error; so
        // is a torn header.
        let mut bytes = good.clone();
        bytes[HEADER_LEN as usize..].fill(0);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FlightRecording::load(&path),
            Err(DaemonError::Persist(_))
        ));
        let mut bytes = good;
        bytes[20] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FlightRecording::load(&path),
            Err(DaemonError::Persist(_))
        ));
    }

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
    fn a_torn_newest_profile_slot_falls_back_to_the_previous_one() {
        // Two persists: p2 in slot B is the newest; three: p3 in slot A.
        for (n, torn, want) in [(2, 1, "p1"), (3, 0, "p2")] {
            let path = persists(&format!("torn{n}"), n);
            let good = std::fs::read(&path).unwrap();
            for at in PROFILES {
                assert!(good[at..].starts_with(b"SLCSEG3\0"), "slot at {at}");
            }
            assert_eq!(
                FlightRecording::load(&path).unwrap().reason,
                format!("p{n}")
            );

            // A flipped bit inside the newest slot's payload.
            let mut bytes = good.clone();
            bytes[PROFILES[torn] + 30] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(FlightRecording::load(&path).unwrap().reason, want);

            // The newest slot cut short, as a killed write leaves it.
            let mut bytes = good.clone();
            if torn == 1 {
                bytes.truncate(PROFILES[1] + 60);
            } else {
                bytes[PROFILES[0] + 60..PROFILES[0] + 400].fill(0);
            }
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(FlightRecording::load(&path).unwrap().reason, want);
        }
    }

    #[test]
    fn a_large_profile_moves_profile_slot_b_and_reloads_whole() {
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
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        assert!(
            len > PROFILES[0] + 2 * PROFILE_B_MIN as usize,
            "profile slot B moved past 2 KiB: {len} B"
        );
    }

    #[test]
    fn a_long_error_outcome_is_clipped_at_a_char_boundary() {
        let path = tmp("clip");
        let rec = FlightRecorder::new(path.clone(), 4, Arc::default());
        let (first, _) = rec.begin(1, "stat", 0);
        assert!(rec.end(first, 5, "ok").is_none());
        // 1 KiB of error text in two-byte chars: the cut falls inside one.
        let outcome = format!("error: {}", "é".repeat(512));
        let (seq, _) = rec.begin(2, "ingest", 10);
        assert!(rec.end(seq, 7, &outcome).is_none());

        let loaded = FlightRecording::load(&path).unwrap();
        assert_eq!(seqs(&loaded), vec![first, seq]);
        assert_eq!(loaded.requests[0].outcome, "ok");
        let clipped = &loaded.requests[1];
        assert_eq!(clipped.kind, "ingest");
        assert!(clipped.outcome.starts_with("error: é"), "{clipped:?}");
        assert!(outcome.starts_with(&clipped.outcome));
        // The slot is full but for the half char that did not fit.
        assert_eq!(clipped.outcome.len(), ENTRY_TEXT - "ingest".len() - 1);

        // An ASCII outcome fills its slot to the byte, and no further.
        let (seq, _) = rec.begin(3, "ingest", 20);
        assert!(rec.end(seq, 1, &"x".repeat(1024)).is_none());
        let bytes = std::fs::read(&path).unwrap();
        let (frames, _) =
            slicer_persist::parse_frames(&path, &bytes[entry_slot(4, seq)], 1).unwrap();
        assert_eq!(
            slicer_persist::single_frame_len(frames[0].len()),
            ENTRY_SLOT as usize
        );
    }

    #[test]
    fn only_version_5_recordings_load() {
        // A v4 two-slot recording (header, request ring, wall and gas
        // profiles in each slot), the same image stamped v3 or v1, and an
        // unknown future version all get the same typed error.
        let path = tmp("version");
        let text = |s: &str| to_bytes(&String::from(s)).unwrap();
        for version in [4u32, 3, 1, 99] {
            let header = (version, String::from("shutdown"), 3u64, 2u64);
            let frames = [
                to_bytes(&header).unwrap(),
                to_bytes(&Vec::<FlightRecord>::new()).unwrap(),
                text("daemon.request 40\n"),
                text("daemon.request 9\n"),
            ];
            let file = File::create(&path).unwrap();
            for offset in [0, 8 * 1024] {
                slicer_persist::write_frames_at(&file, &path, offset, &frames).unwrap();
            }
            let err = FlightRecording::load(&path).unwrap_err();
            assert!(
                matches!(&err, DaemonError::Protocol(m)
                    if m.contains(&format!("unsupported flightrec version {version}"))),
                "{err}"
            );
        }
    }
}
