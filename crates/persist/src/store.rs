//! The generation-numbered segment directory.
//!
//! A generation is a *base* — the whole state, chunked into segments —
//! plus the *deltas* committed since: one segment per ingest, holding
//! the cloud shipment and the owner-state changes. Manifest `n` lists
//! the segments of its base generation `b` by name and checksum,
//! followed by the delta segments of generations `b+1..=n`.
//!
//! Commit protocol (crash-safe by ordering):
//!
//! 1. write the generation's new segment files, fsyncing each: every
//!    segment of a new base, or the one delta segment,
//! 2. write `manifest-<gen>.slc` listing the base's and the deltas'
//!    segments with their checksums (fsync),
//! 3. write `CURRENT.tmp` and atomically rename it over `CURRENT`
//!    (fsync the directory) — this rename *is* the commit point,
//! 4. prune every file that neither the new manifest nor the previous
//!    sealed generation's manifest references.
//!
//! A crash before step 3 leaves the old `CURRENT` pointing at the old
//! sealed generation; the half-written files of the new generation fail
//! checksum validation and are ignored. A crash after step 3 is a
//! completed commit. Sealed files are never rewritten, so a torn write
//! can only hit the generation being committed, and recovery always
//! lands on the last sealed generation or the one before it.
//!
//! A base is written on the first commit, after a failed commit, after
//! a load that had to fall back, and when the deltas' bytes would
//! exceed the base's (compaction); every other ingest writes exactly
//! three files: its delta segment, the manifest and `CURRENT`.

use crate::error::PersistError;
use crate::frame::{encode_frames, read_frames, single_frame_len, write_synced, Image};
use crate::snapshot::{Snapshot, SnapshotMeta};
use slicer_bignum::BigUint;
use slicer_core::{InsertOutcome, OwnerDelta, OwnerState};
use slicer_crypto::codec::{from_bytes, to_bytes, CodecError, Decode, Encode, Reader};
use slicer_store::{CloudState, EncryptedIndex, IndexLabel, PrimeList};
use slicer_telemetry::{Level, Span, TelemetryHandle};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Index entries per `IndexChunk` segment.
const INDEX_CHUNK: usize = 4096;
/// Primes per `PrimesChunk` segment.
const PRIMES_CHUNK: usize = 8192;
/// Name of the commit-pointer file.
const CURRENT: &str = "CURRENT";

/// What a segment file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentRole {
    /// Deployment parameters + key seed ([`SnapshotMeta`]).
    Meta,
    /// The owner's `T`/`S` state.
    Owner,
    /// The accumulator pair (owner value, cloud mirror).
    Accumulator,
    /// A chunk of encrypted-index entries, in ascending label order.
    IndexChunk,
    /// A chunk of the prime list `X`, in list order.
    PrimesChunk,
    /// One ingest committed on top of a base ([`Delta`]).
    Delta,
}

impl Encode for SegmentRole {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            SegmentRole::Meta => 0,
            SegmentRole::Owner => 1,
            SegmentRole::Accumulator => 2,
            SegmentRole::IndexChunk => 3,
            SegmentRole::PrimesChunk => 4,
            SegmentRole::Delta => 5,
        };
        tag.encode(out);
    }
}

impl Decode for SegmentRole {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(reader)? {
            0 => Ok(SegmentRole::Meta),
            1 => Ok(SegmentRole::Owner),
            2 => Ok(SegmentRole::Accumulator),
            3 => Ok(SegmentRole::IndexChunk),
            4 => Ok(SegmentRole::PrimesChunk),
            5 => Ok(SegmentRole::Delta),
            t => Err(CodecError::msg(format!("invalid segment role tag {t}"))),
        }
    }
}

/// One manifest line: a segment file, its role, its size and its file
/// checksum (see [`crate::read_frames`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// File name relative to the store directory.
    pub name: String,
    /// What the segment holds.
    pub role: SegmentRole,
    /// Size of the file as written.
    pub bytes: u64,
    /// Checksum of the file as written.
    pub checksum: [u8; 32],
}

slicer_crypto::impl_codec!(SegmentEntry {
    name,
    role,
    bytes,
    checksum,
});

/// The manifest sealing one generation: the authoritative list of the
/// segment files it is made of, base first, then one delta per
/// generation `base+1..=generation`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The generation this manifest seals.
    pub generation: u64,
    /// The generation whose base segments this one starts from
    /// (`generation` itself when it wrote a new base).
    pub base: u64,
    /// Segment files in decode order.
    pub segments: Vec<SegmentEntry>,
}

slicer_crypto::impl_codec!(Manifest {
    generation,
    base,
    segments,
});

impl Manifest {
    /// Total bytes of the base segments (`deltas == false`) or of the
    /// delta segments (`deltas == true`).
    fn bytes(&self, deltas: bool) -> u64 {
        self.segments
            .iter()
            .filter(|e| (e.role == SegmentRole::Delta) == deltas)
            .map(|e| e.bytes)
            .sum()
    }
}

/// One ingest as a `Delta` segment stores it: the cloud shipment (index
/// entries, primes, the new `Ac`) and the owner-state changes.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Index entries the ingest added.
    pub entries: Vec<(IndexLabel, Vec<u8>)>,
    /// Primes the ingest appended to `X`.
    pub primes: Vec<BigUint>,
    /// The accumulator value after the ingest (owner value and cloud
    /// mirror alike).
    pub accumulator: BigUint,
    /// The `T`/`S` changes of the ingest.
    pub owner: OwnerDelta,
}

slicer_crypto::impl_codec!(Delta {
    entries,
    primes,
    accumulator,
    owner,
});

impl From<InsertOutcome> for Delta {
    fn from(outcome: InsertOutcome) -> Self {
        Delta {
            entries: outcome.shipment.entries,
            primes: outcome.shipment.primes,
            accumulator: outcome.shipment.accumulator,
            owner: outcome.owner,
        }
    }
}

impl Delta {
    /// Replays the delta onto `snapshot`.
    fn apply(self, snapshot: &mut Snapshot, path: &Path) -> Result<(), PersistError> {
        snapshot
            .cloud
            .index
            .extend(self.entries)
            .map_err(|e| PersistError::corrupt(path, e.to_string()))?;
        snapshot.cloud.primes.extend(self.primes);
        snapshot
            .owner
            .apply(&self.owner)
            .map_err(|e| PersistError::corrupt(path, e.to_string()))?;
        snapshot.cloud.accumulator = Some(self.accumulator.clone());
        snapshot.accumulator = self.accumulator;
        Ok(())
    }
}

/// A crash-safe segment store rooted at one directory.
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    /// Manifest of the sealed generation the next delta extends. `None`
    /// before the first commit or load, after a failed commit and after
    /// a load that fell back: the next commit then writes a base, so a
    /// delta never builds on state the disk does not hold.
    tip: Mutex<Option<Manifest>>,
    telemetry: TelemetryHandle,
    /// File operations left before an injected failure (tests only).
    #[cfg(test)]
    write_budget: Mutex<Option<usize>>,
}

/// Records the outcome of a commit as the new tip.
fn settle(
    tip: &mut Option<Manifest>,
    sealed: Result<Manifest, PersistError>,
) -> Result<u64, PersistError> {
    match sealed {
        Ok(manifest) => {
            let generation = manifest.generation;
            *tip = Some(manifest);
            Ok(generation)
        }
        Err(e) => {
            *tip = None;
            Err(e)
        }
    }
}

fn codec_err(path: &Path, e: &CodecError) -> PersistError {
    PersistError::corrupt(path, e.to_string())
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn manifest_name(generation: u64) -> String {
    format!("manifest-{generation:010}.slc")
}

fn segment_name(generation: u64, index: usize) -> String {
    format!("seg-{generation:010}-{index:04}.slc")
}

/// Parses the generation out of `manifest-<gen>.slc`, if `name` has that
/// shape.
fn parse_manifest_name(name: &str) -> Option<u64> {
    name.strip_prefix("manifest-")?
        .strip_suffix(".slc")?
        .parse()
        .ok()
}

/// Parses the generation out of `seg-<gen>-<idx>.slc`.
fn parse_segment_name(name: &str) -> Option<u64> {
    let middle = name.strip_prefix("seg-")?.strip_suffix(".slc")?;
    let (generation, _idx) = middle.split_once('-')?;
    generation.parse().ok()
}

/// Encodes `value` as a one-frame segment image.
fn image_of<T: Encode + ?Sized>(value: &T, dir: &Path) -> Result<Image, PersistError> {
    let bytes = to_bytes(value).map_err(|e| codec_err(dir, &e))?;
    Ok(encode_frames(&[bytes]))
}

impl SegmentStore {
    /// Opens (creating if necessary) a store directory.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, PersistError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| PersistError::io(&dir, &e))?;
        Ok(SegmentStore {
            dir,
            tip: Mutex::new(None),
            telemetry: TelemetryHandle::disabled(),
            #[cfg(test)]
            write_budget: Mutex::new(None),
        })
    }

    /// Installs a telemetry context. Commits then record a
    /// `persist.commit` span (attributes `kind`, `bytes`, `files`,
    /// `fsyncs`) and the counters `persist.commits.{base,delta}` and
    /// `persist.commit.bytes`; loads record a `persist.load` span
    /// (`generation`, `deltas`, `fallbacks`) and count and log every
    /// fallback with its reason in `persist.recovery.fallbacks`.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Every generation with a manifest file present, ascending. Makes no
    /// claim about validity — a listed generation may still fail checksum
    /// validation on load.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] when the directory cannot be listed.
    pub fn generations(&self) -> Result<Vec<u64>, PersistError> {
        let entries = fs::read_dir(&self.dir).map_err(|e| PersistError::io(&self.dir, &e))?;
        let mut gens = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| PersistError::io(&self.dir, &e))?;
            if let Some(g) = entry.file_name().to_str().and_then(parse_manifest_name) {
                gens.push(g);
            }
        }
        gens.sort_unstable();
        gens.dedup();
        Ok(gens)
    }

    /// The generation `CURRENT` points at, if the pointer exists and
    /// parses. A missing or garbled pointer is not an error — recovery
    /// falls back to scanning manifests.
    fn current_generation(&self) -> Option<u64> {
        let content = fs::read_to_string(self.dir.join(CURRENT)).ok()?;
        content.trim().strip_prefix("gen ")?.parse().ok()
    }

    /// Commits a snapshot as a new base generation and returns its
    /// number. Files the previous sealed generation references are
    /// retained for torn-write fallback; everything else is pruned.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on filesystem failures. A failed
    /// commit never damages the previously sealed generation.
    pub fn commit(&self, snapshot: &Snapshot) -> Result<u64, PersistError> {
        let mut span = self.telemetry.span("persist.commit");
        let mut tip = lock(&self.tip);
        let sealed = self.seal_base(&mut span, snapshot);
        settle(&mut tip, sealed)
    }

    /// Commits one ingest and returns the new generation's number. The
    /// ingest is written as one delta segment on top of the current base,
    /// unless a base is due — first commit, a failed or fallen-back
    /// predecessor, or deltas that would outgrow the base — in which case
    /// `snapshot` is called and its result written as a new base.
    ///
    /// # Errors
    ///
    /// As [`SegmentStore::commit`]. After a failure the next commit
    /// writes a base, so no later delta can silently drop this one.
    pub fn commit_delta(
        &self,
        delta: &Delta,
        snapshot: impl FnOnce() -> Snapshot,
    ) -> Result<u64, PersistError> {
        let mut span = self.telemetry.span("persist.commit");
        let mut tip = lock(&self.tip);
        let sealed = match tip.as_ref() {
            Some(parent) => match to_bytes(delta) {
                // Sized before it is hashed: a delta that forces a new
                // base is never checksummed.
                Ok(payload)
                    if parent.bytes(true) + single_frame_len(payload.len()) as u64
                        <= parent.bytes(false) =>
                {
                    let image = encode_frames(&[payload]);
                    self.seal(&mut span, Some(parent), vec![(SegmentRole::Delta, image)])
                }
                Ok(_) => self.seal_base(&mut span, &snapshot()),
                Err(e) => Err(codec_err(&self.dir, &e)),
            },
            None => self.seal_base(&mut span, &snapshot()),
        };
        settle(&mut tip, sealed)
    }

    /// Makes the next commit write a base. Call it when the live state
    /// changed in a way no [`Delta`] recorded, e.g. an ingest that failed
    /// after it had already mutated the owner or the cloud.
    pub fn require_base(&self) {
        *lock(&self.tip) = None;
    }

    /// Writes `snapshot` as a new base generation.
    fn seal_base(&self, span: &mut Span, snapshot: &Snapshot) -> Result<Manifest, PersistError> {
        let dir = self.dir.as_path();
        let mut images = vec![
            (SegmentRole::Meta, image_of(&snapshot.meta, dir)?),
            (SegmentRole::Owner, image_of(&snapshot.owner, dir)?),
            (
                SegmentRole::Accumulator,
                image_of(&(&snapshot.accumulator, &snapshot.cloud.accumulator), dir)?,
            ),
        ];
        // Index entries travel in ascending label order so chunk contents
        // (and checksums) are identical across runs.
        let sorted = snapshot.cloud.index.sorted_entries();
        for chunk in sorted.chunks(INDEX_CHUNK) {
            images.push((SegmentRole::IndexChunk, image_of(chunk, dir)?));
        }
        for chunk in snapshot.cloud.primes.as_slice().chunks(PRIMES_CHUNK) {
            images.push((SegmentRole::PrimesChunk, image_of(chunk, dir)?));
        }
        self.seal(span, None, images)
    }

    /// Writes `new` as the next generation's segment files, then its
    /// manifest, then flips `CURRENT`, then prunes. With a `parent` the
    /// new generation is `parent + 1` and its manifest lists the parent's
    /// segments followed by `new`; without one, `new` is a base numbered
    /// past every manifest on disk.
    fn seal(
        &self,
        span: &mut Span,
        parent: Option<&Manifest>,
        new: Vec<(SegmentRole, Image)>,
    ) -> Result<Manifest, PersistError> {
        let previous = self.current_generation();
        let (kind, generation, base, mut segments) = match parent {
            // A file numbered `parent + 1` can only be left over from a
            // commit that never sealed, so reusing the number is safe.
            Some(p) => ("delta", p.generation + 1, p.base, p.segments.clone()),
            None => {
                let generation = self.generations()?.last().copied().unwrap_or(0) + 1;
                ("base", generation, generation, Vec::new())
            }
        };
        let (mut bytes, mut files) = (0u64, 0u64);
        for (index, (role, image)) in new.into_iter().enumerate() {
            let name = segment_name(generation, index);
            self.write_file(&self.dir.join(&name), &image.bytes)?;
            let len = image.bytes.len() as u64;
            bytes += len;
            files += 1;
            segments.push(SegmentEntry {
                name,
                role,
                bytes: len,
                checksum: image.checksum,
            });
        }
        let manifest = Manifest {
            generation,
            base,
            segments,
        };
        let image = image_of(&manifest, &self.dir)?;
        self.write_file(&self.dir.join(manifest_name(generation)), &image.bytes)?;

        // The commit point: flip CURRENT by atomic rename.
        let pointer = format!("gen {generation}\n");
        let tmp = self.dir.join("CURRENT.tmp");
        self.write_file(&tmp, pointer.as_bytes())?;
        let current = self.dir.join(CURRENT);
        self.inject_failure(&current, None)?;
        fs::rename(&tmp, &current).map_err(|e| PersistError::io(&current, &e))?;
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        bytes += (image.bytes.len() + pointer.len()) as u64;
        files += 2;

        self.prune(&manifest, previous);
        self.telemetry.count(&format!("persist.commits.{kind}"), 1);
        self.telemetry.count("persist.commit.bytes", bytes);
        if span.is_recording() {
            span.attr("kind", kind);
            span.attr("bytes", bytes);
            span.attr("files", files);
            // Every file is fsynced, and so is the directory.
            span.attr("fsyncs", files + 1);
        }
        Ok(manifest)
    }

    /// Writes one file (fsynced), subject to the test write budget.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
        self.inject_failure(path, Some(bytes))?;
        write_synced(path, bytes)
    }

    /// Spends one file operation of the test write budget. When the
    /// budget is exhausted the operation fails, and a write leaves the
    /// first half of its bytes behind, as a crash mid-write would.
    #[cfg(test)]
    fn inject_failure(&self, path: &Path, bytes: Option<&[u8]>) -> Result<(), PersistError> {
        let mut budget = lock(&self.write_budget);
        match budget.as_mut() {
            Some(0) => {
                if let Some(bytes) = bytes {
                    let _ = fs::write(path, bytes.get(..bytes.len() / 2).unwrap_or_default());
                }
                Err(PersistError::Io {
                    path: path.display().to_string(),
                    msg: "injected write failure".into(),
                })
            }
            Some(left) => {
                *left -= 1;
                Ok(())
            }
            None => Ok(()),
        }
    }

    #[cfg(not(test))]
    #[inline]
    fn inject_failure(&self, _path: &Path, _bytes: Option<&[u8]>) -> Result<(), PersistError> {
        Ok(())
    }

    /// Loads the most recent *sealed* generation: the one `CURRENT`
    /// points at when it validates, otherwise the newest older
    /// generation that does. Returns `None` on a store with no
    /// manifests at all (fresh directory).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::NoSealedGeneration`] when manifests exist
    /// but none validates, and [`PersistError::Io`] when the directory
    /// itself cannot be read.
    pub fn load(&self) -> Result<Option<(u64, Snapshot)>, PersistError> {
        let mut span = self.telemetry.span("persist.load");
        let mut candidates = self.generations()?;
        candidates.reverse(); // newest first
        if let Some(cur) = self.current_generation() {
            // Try the committed pointer first, then everything else
            // newest-first.
            candidates.retain(|&g| g != cur);
            candidates.insert(0, cur);
        }
        if candidates.is_empty() {
            return Ok(None);
        }
        let mut attempts = Vec::new();
        for generation in candidates {
            match self.load_chain(generation) {
                Ok((manifest, snapshot)) => {
                    let deltas = generation - manifest.base;
                    let fallbacks = attempts.len();
                    if span.is_recording() {
                        span.attr("generation", generation);
                        span.attr("deltas", deltas);
                        span.attr("fallbacks", fallbacks);
                    }
                    self.telemetry.log(
                        Level::Info,
                        "slicer.persist",
                        "loaded sealed generation",
                        vec![
                            ("generation", generation.into()),
                            ("base", manifest.base.into()),
                            ("deltas", deltas.into()),
                            ("fallbacks", fallbacks.into()),
                        ],
                    );
                    *lock(&self.tip) = (fallbacks == 0).then_some(manifest);
                    return Ok(Some((generation, snapshot)));
                }
                Err(e) => {
                    self.telemetry.count("persist.recovery.fallbacks", 1);
                    self.telemetry.log(
                        Level::Warn,
                        "slicer.persist",
                        "generation failed validation, falling back",
                        vec![
                            ("generation", generation.into()),
                            ("reason", e.to_string().into()),
                        ],
                    );
                    attempts.push(format!("generation {generation}: {e}"));
                }
            }
        }
        Err(PersistError::NoSealedGeneration {
            dir: self.dir.display().to_string(),
            attempts,
        })
    }

    /// Loads and fully validates one specific generation.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Corrupt`] on any checksum, framing or
    /// decoding failure, [`PersistError::UnsupportedVersion`] on a file of
    /// another format version and [`PersistError::Io`] on missing files.
    #[cfg(test)]
    fn load_generation(&self, generation: u64) -> Result<Snapshot, PersistError> {
        self.load_chain(generation).map(|(_, snapshot)| snapshot)
    }

    /// Reads and validates manifest `generation`: its number, its base
    /// and the shape of its segment list (base segments, then exactly one
    /// delta per generation `base+1..=generation`, in order).
    fn read_manifest(&self, generation: u64) -> Result<Manifest, PersistError> {
        let path = self.dir.join(manifest_name(generation));
        let (frames, _sum) = read_frames(&path)?;
        let [frame] = frames.as_slice() else {
            return Err(PersistError::corrupt(
                &path,
                format!("expected 1 manifest frame, found {}", frames.len()),
            ));
        };
        let manifest: Manifest = from_bytes(frame).map_err(|e| codec_err(&path, &e))?;
        if manifest.generation != generation {
            return Err(PersistError::corrupt(
                &path,
                format!(
                    "manifest claims generation {}, file name says {generation}",
                    manifest.generation
                ),
            ));
        }
        let split = manifest
            .segments
            .iter()
            .position(|e| e.role == SegmentRole::Delta)
            .unwrap_or(manifest.segments.len());
        let (base, deltas) = manifest.segments.split_at(split);
        if base.is_empty() {
            return Err(PersistError::corrupt(&path, "delta segments with no base"));
        }
        let expected = generation.checked_sub(manifest.base).ok_or_else(|| {
            PersistError::corrupt(
                &path,
                format!(
                    "base generation {} is newer than the manifest",
                    manifest.base
                ),
            )
        })?;
        if deltas.len() as u64 != expected {
            return Err(PersistError::corrupt(
                &path,
                format!(
                    "{} delta segments on base {}, generation {generation} needs {expected}",
                    deltas.len(),
                    manifest.base
                ),
            ));
        }
        for (g, entry) in (manifest.base + 1..).zip(deltas) {
            if entry.role != SegmentRole::Delta || entry.name != segment_name(g, 0) {
                return Err(PersistError::corrupt(
                    &path,
                    format!("segment {} is not the delta of generation {g}", entry.name),
                ));
            }
        }
        Ok(manifest)
    }

    /// Reads one segment and checks it against its manifest entry.
    fn read_segment(&self, entry: &SegmentEntry) -> Result<(PathBuf, Vec<Vec<u8>>), PersistError> {
        let path = self.dir.join(&entry.name);
        let (frames, file_sum) = read_frames(&path)?;
        if file_sum != entry.checksum {
            return Err(PersistError::corrupt(
                &path,
                "file checksum does not match manifest",
            ));
        }
        Ok((path, frames))
    }

    /// Loads generation `generation`: decodes its base, then replays its
    /// deltas in order.
    fn load_chain(&self, generation: u64) -> Result<(Manifest, Snapshot), PersistError> {
        let manifest = self.read_manifest(generation)?;
        let manifest_path = self.dir.join(manifest_name(generation));

        let mut meta: Option<SnapshotMeta> = None;
        let mut owner: Option<OwnerState> = None;
        let mut accumulators: Option<(BigUint, Option<BigUint>)> = None;
        let mut index = EncryptedIndex::new();
        let mut primes = PrimeList::new();
        let mut deltas = Vec::new();

        for entry in &manifest.segments {
            let (path, frames) = self.read_segment(entry)?;
            for frame in &frames {
                match entry.role {
                    SegmentRole::Meta => {
                        meta = Some(from_bytes(frame).map_err(|e| codec_err(&path, &e))?);
                    }
                    SegmentRole::Owner => {
                        owner = Some(from_bytes(frame).map_err(|e| codec_err(&path, &e))?);
                    }
                    SegmentRole::Accumulator => {
                        accumulators = Some(from_bytes(frame).map_err(|e| codec_err(&path, &e))?);
                    }
                    SegmentRole::IndexChunk => {
                        let chunk: Vec<(IndexLabel, Vec<u8>)> =
                            from_bytes(frame).map_err(|e| codec_err(&path, &e))?;
                        index
                            .extend(chunk)
                            .map_err(|e| PersistError::corrupt(&path, e.to_string()))?;
                    }
                    SegmentRole::PrimesChunk => {
                        let chunk: Vec<BigUint> =
                            from_bytes(frame).map_err(|e| codec_err(&path, &e))?;
                        // The snapshot holds each prime once: a repeat
                        // would shift every later index.
                        for prime in chunk {
                            let index = primes.len();
                            if primes.push_new(prime).is_none() {
                                return Err(PersistError::corrupt(
                                    &path,
                                    format!("primes chunk repeats a prime at index {index}"),
                                ));
                            }
                        }
                    }
                    SegmentRole::Delta => {
                        let delta: Delta = from_bytes(frame).map_err(|e| codec_err(&path, &e))?;
                        deltas.push((path.clone(), delta));
                    }
                }
            }
        }

        let Some(meta) = meta else {
            return Err(PersistError::corrupt(&manifest_path, "no meta segment"));
        };
        let Some(owner) = owner else {
            return Err(PersistError::corrupt(&manifest_path, "no owner segment"));
        };
        let Some((accumulator, cloud_accumulator)) = accumulators else {
            return Err(PersistError::corrupt(
                &manifest_path,
                "no accumulator segment",
            ));
        };
        let mut snapshot = Snapshot {
            meta,
            owner,
            accumulator,
            cloud: CloudState {
                index,
                primes,
                accumulator: cloud_accumulator,
            },
        };
        for (path, delta) in deltas {
            delta.apply(&mut snapshot, &path)?;
        }
        Ok((manifest, snapshot))
    }

    /// Removes every segment and manifest file that neither `sealed` nor
    /// the `previous` sealed generation references. Best-effort: a file
    /// that cannot be removed is left behind as garbage and never affects
    /// correctness, since loads go through manifests.
    fn prune(&self, sealed: &Manifest, previous: Option<u64>) {
        let mut keep: BTreeSet<String> = BTreeSet::new();
        let mut reference = |m: &Manifest| {
            keep.insert(manifest_name(m.generation));
            keep.extend(m.segments.iter().map(|e| e.name.clone()));
        };
        reference(sealed);
        if let Some(prev) = previous.filter(|&g| g != sealed.generation) {
            if let Ok(m) = self.read_manifest(prev) {
                reference(&m);
            }
        }
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else {
                continue;
            };
            let ours = parse_manifest_name(name)
                .or_else(|| parse_segment_name(name))
                .is_some();
            if ours && !keep.contains(name) {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicer_core::{CloudServer, DataOwner, RecordId, SlicerConfig};
    use slicer_crypto::sha256;

    const SEED: u64 = 5;

    impl SegmentStore {
        /// Lets the next `ops` file operations succeed and fails the one
        /// after; `None` lifts the budget.
        fn set_write_budget(&self, ops: Option<usize>) {
            *lock(&self.write_budget) = ops;
        }
    }

    /// A live owner/cloud pair, persisted the way `slicerd` persists it.
    struct Live {
        owner: DataOwner,
        cloud: CloudServer,
        next_id: u64,
    }

    impl Live {
        fn new(records: u64) -> Self {
            let owner = DataOwner::new(SlicerConfig::test_8bit(), SEED);
            let cloud = CloudServer::new(
                owner.config().clone(),
                owner.keys().trapdoor().public().clone(),
            );
            let mut live = Live {
                owner,
                cloud,
                next_id: 0,
            };
            live.insert(records);
            live
        }

        /// Inserts `n` records and returns the ingest as a delta.
        fn insert(&mut self, n: u64) -> Delta {
            let rows: Vec<(RecordId, u64)> = (self.next_id..self.next_id + n)
                .map(|i| (RecordId::from_u64(i), i * 37 % 256))
                .collect();
            self.next_id += n;
            let out = self.owner.insert(&rows).unwrap();
            self.cloud.ingest(&out).unwrap();
            Delta {
                entries: out.entries,
                primes: out.primes,
                accumulator: out.accumulator,
                owner: self.owner.take_delta(),
            }
        }

        fn snapshot(&self) -> Snapshot {
            Snapshot::capture(SEED, &self.owner, &self.cloud)
        }
    }

    /// Everything a snapshot holds, hashed: equal fingerprints mean equal
    /// states, so a mix of two generations cannot pass for either.
    fn fingerprint(s: &Snapshot) -> [u8; 32] {
        sha256(&to_bytes(&(&s.meta, &s.owner, &s.accumulator, &s.cloud)).unwrap())
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("slicer-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn files_of(dir: &Path) -> BTreeSet<String> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect()
    }

    /// Crashes one commit after each of k = 0, 1, 2, … file operations
    /// and reloads from disk each time: the store holds exactly the old
    /// generation until the commit point, exactly the new one after.
    /// Returns the number of file operations the commit took.
    fn crash_at_every_boundary(name: &str, base_records: u64, ingest_records: u64) -> usize {
        for k in 0.. {
            let dir = tmp(&format!("{name}-{k}"));
            let store = SegmentStore::open(&dir).unwrap();
            let mut live = Live::new(base_records);
            let old_gen = store.commit(&live.snapshot()).unwrap();
            let old = fingerprint(&live.snapshot());
            let delta = live.insert(ingest_records);
            let new = fingerprint(&live.snapshot());

            store.set_write_budget(Some(k));
            let result = store.commit_delta(&delta, || live.snapshot());
            store.set_write_budget(None);

            let (generation, loaded) = SegmentStore::open(&dir).unwrap().load().unwrap().unwrap();
            let _ = fs::remove_dir_all(&dir);
            match result {
                Ok(new_gen) => {
                    assert_eq!((generation, fingerprint(&loaded)), (new_gen, new));
                    return k;
                }
                Err(e) => {
                    assert!(e.to_string().contains("injected"), "{e}");
                    assert_eq!(generation, old_gen, "crash after {k} operations");
                    assert_eq!(fingerprint(&loaded), old, "crash after {k} operations");
                }
            }
        }
        unreachable!("the loop returns once a commit succeeds")
    }

    #[test]
    fn crash_during_a_delta_commit_recovers_old_or_new() {
        // Delta segment, manifest, CURRENT.tmp, then the rename.
        assert_eq!(crash_at_every_boundary("delta", 40, 1), 4);
    }

    #[test]
    fn crash_during_a_compacting_commit_recovers_old_or_new() {
        // A 60-record ingest outgrows a 1-record base, so the commit
        // writes a new base: meta, owner, accumulator, one index chunk,
        // one primes chunk, the manifest, CURRENT.tmp and the rename.
        assert_eq!(crash_at_every_boundary("compact", 1, 60), 8);
    }

    #[test]
    fn a_failed_delta_commit_is_followed_by_a_base() {
        let dir = tmp("failed-delta");
        let store = SegmentStore::open(&dir).unwrap();
        let mut live = Live::new(40);
        store.commit(&live.snapshot()).unwrap();
        let lost = live.insert(1);
        store.set_write_budget(Some(1));
        assert!(store.commit_delta(&lost, || live.snapshot()).is_err());
        store.set_write_budget(None);

        // The next ingest must not be a delta on generation 1: that
        // would silently drop the record above.
        let next = live.insert(1);
        let generation = store.commit_delta(&next, || live.snapshot()).unwrap();
        let manifest = store.read_manifest(generation).unwrap();
        assert_eq!(manifest.base, generation, "a base follows the failure");

        let (loaded_gen, loaded) = SegmentStore::open(&dir).unwrap().load().unwrap().unwrap();
        assert_eq!(loaded_gen, generation);
        assert_eq!(
            loaded.accumulator_digest(),
            live.snapshot().accumulator_digest()
        );
        assert_eq!(fingerprint(&loaded), fingerprint(&live.snapshot()));
        // And the generation after it is a delta again.
        let third = live.insert(1);
        let generation = store.commit_delta(&third, || live.snapshot()).unwrap();
        assert_eq!(
            store.read_manifest(generation).unwrap().base,
            generation - 1
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_the_old_base_until_the_next_commit() {
        let dir = tmp("compaction");
        let store = SegmentStore::open(&dir).unwrap();
        let mut live = Live::new(1);
        assert_eq!(store.commit(&live.snapshot()).unwrap(), 1);
        let first = fingerprint(&live.snapshot());
        let old_base: Vec<String> = files_of(&dir)
            .into_iter()
            .filter(|n| n.starts_with("seg-0000000001-"))
            .collect();
        assert!(!old_base.is_empty());

        let big = live.insert(60);
        assert_eq!(store.commit_delta(&big, || live.snapshot()).unwrap(), 2);
        assert_eq!(store.read_manifest(2).unwrap().base, 2, "compacted");
        let files = files_of(&dir);
        assert!(
            old_base.iter().all(|n| files.contains(n)),
            "generation 1 stays loadable as the fallback"
        );
        assert_eq!(fingerprint(&store.load_generation(1).unwrap()), first);

        let small = live.insert(1);
        assert_eq!(store.commit_delta(&small, || live.snapshot()).unwrap(), 3);
        assert_eq!(store.read_manifest(3).unwrap().base, 2, "a delta on base 2");
        let files = files_of(&dir);
        assert!(
            old_base.iter().all(|n| !files.contains(n)),
            "the old base is pruned once no retained manifest lists it"
        );
        assert!(!files.contains(&manifest_name(1)));
        let (generation, loaded) = store.load().unwrap().unwrap();
        assert_eq!(generation, 3);
        assert_eq!(fingerprint(&loaded), fingerprint(&live.snapshot()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_delta_falls_back_to_its_parent_and_the_next_commit_rebases() {
        let dir = tmp("torn-delta");
        let store = SegmentStore::open(&dir).unwrap();
        let mut live = Live::new(40);
        store.commit(&live.snapshot()).unwrap();
        let parent = fingerprint(&live.snapshot());
        let delta = live.insert(1);
        assert_eq!(store.commit_delta(&delta, || live.snapshot()).unwrap(), 2);

        let victim = dir.join(segment_name(2, 0));
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() - 1]).unwrap();
        let reopened = SegmentStore::open(&dir).unwrap();
        let (generation, loaded) = reopened.load().unwrap().unwrap();
        assert_eq!((generation, fingerprint(&loaded)), (1, parent));

        // A delta on generation 1 would be numbered 2 again and collide
        // with the torn file's history; after a fallback the store
        // writes a base instead.
        let mut restored = Live::new(40);
        let again = restored.insert(1);
        let generation = reopened
            .commit_delta(&again, || restored.snapshot())
            .unwrap();
        assert_eq!(generation, 3);
        assert_eq!(reopened.read_manifest(3).unwrap().base, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_manifests_are_corrupt_not_panics() {
        let dir = tmp("malformed");
        let store = SegmentStore::open(&dir).unwrap();
        let mut live = Live::new(10);
        store.commit(&live.snapshot()).unwrap();
        let delta = live.insert(1);
        store.commit_delta(&delta, || live.snapshot()).unwrap();
        let good = store.read_manifest(2).unwrap();

        let write = |m: &Manifest| {
            let image = image_of(m, &dir).unwrap();
            fs::write(dir.join(manifest_name(m.generation)), &image.bytes).unwrap();
        };
        let corrupt = |m: &Manifest, want: &str| {
            write(m);
            let err = store.load_generation(m.generation).unwrap_err();
            assert!(
                matches!(&err, PersistError::Corrupt { detail, .. } if detail.contains(want)),
                "{err}"
            );
        };
        // Deltas with no base at all.
        let mut no_base = good.clone();
        no_base.segments.retain(|e| e.role == SegmentRole::Delta);
        corrupt(&no_base, "no base");
        // A delta missing from the chain.
        let mut short = good.clone();
        short.segments.pop();
        corrupt(&short, "delta segments");
        // A base newer than the generation.
        let mut future = good.clone();
        future.base = 9;
        corrupt(&future, "newer");

        // A retired S key the base does not hold.
        let mut bad = delta.clone();
        bad.owner.retired.push(b"missing".to_vec());
        // An index label the chain already holds.
        let mut dup = delta.clone();
        dup.entries.extend(delta.entries.clone());
        for (victim, want) in [(bad, "retired"), (dup, "already present")] {
            let image = image_of(&victim, &dir).unwrap();
            fs::write(dir.join(segment_name(2, 0)), &image.bytes).unwrap();
            let mut m = good.clone();
            if let Some(last) = m.segments.last_mut() {
                last.checksum = image.checksum;
                last.bytes = image.bytes.len() as u64;
            }
            write(&m);
            let err = store.load_generation(2).unwrap_err();
            assert!(
                matches!(&err, PersistError::Corrupt { detail, .. } if detail.contains(want)),
                "{err}"
            );
        }

        // A base primes chunk that repeats a prime: replaying it would
        // drop the repeat and shift every later index.
        let mut base = store.read_manifest(1).unwrap();
        let entry = base
            .segments
            .iter_mut()
            .find(|e| e.role == SegmentRole::PrimesChunk)
            .unwrap();
        let (path, frames) = store.read_segment(entry).unwrap();
        let mut chunk: Vec<BigUint> = from_bytes(&frames[0]).unwrap();
        chunk.push(chunk[0].clone());
        let image = image_of(&chunk, &dir).unwrap();
        fs::write(&path, &image.bytes).unwrap();
        entry.checksum = image.checksum;
        entry.bytes = image.bytes.len() as u64;
        corrupt(&base, "repeats a prime");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn names_parse_back() {
        assert_eq!(parse_manifest_name(&manifest_name(17)), Some(17));
        assert_eq!(parse_segment_name(&segment_name(17, 3)), Some(17));
        assert_eq!(parse_manifest_name("CURRENT"), None);
        assert_eq!(parse_segment_name("manifest-0000000001.slc"), None);
    }

    #[test]
    fn role_codec_rejects_unknown_tags() {
        let roles = [
            SegmentRole::Meta,
            SegmentRole::Owner,
            SegmentRole::Accumulator,
            SegmentRole::IndexChunk,
            SegmentRole::PrimesChunk,
            SegmentRole::Delta,
        ];
        for role in roles {
            let bytes = to_bytes(&role).unwrap();
            assert_eq!(from_bytes::<SegmentRole>(&bytes).unwrap(), role);
        }
        assert!(from_bytes::<SegmentRole>(&[9]).is_err());
    }
}
