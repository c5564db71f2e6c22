//! # slicer-persist
//!
//! Crash-safe segmented on-disk persistence for a Slicer deployment.
//!
//! The paper's system model (§III) treats owner, cloud and chain as
//! long-lived separate parties, but state that lives only on one heap
//! dies with the process and forces a full rebuild. This crate gives the
//! encrypted index `I`, the prime list `X`, the accumulator value `Ac`
//! and the owner's trapdoor/set-hash state a durable home:
//!
//! * [`Snapshot`] — everything one instance needs to resume, captured
//!   from a live owner/cloud pair and encoded with the workspace's own
//!   [`slicer_crypto::codec`] (no serialization framework).
//! * [`SegmentStore`] — a generation-numbered segment directory. A
//!   generation is a base (the whole snapshot) plus one [`Delta`]
//!   segment per ingest since. Every commit writes checksummed segment
//!   files, a manifest listing the base's and the deltas' segments, and
//!   finally flips the `CURRENT` pointer by atomic rename. A torn write —
//!   truncated segment, flipped bit, missing manifest — is detected by
//!   the SHA-256 checksums and recovery falls back to the last *sealed*
//!   generation.
//!
//! On-disk layout (see DESIGN.md §11 for the full diagram):
//!
//! ```text
//! <dir>/
//!   CURRENT                 "gen <n>\n" — flipped last, by rename
//!   manifest-<n>.slc        framed Manifest: base b's segments, then the
//!                           deltas b+1..n, with sizes and checksums
//!   seg-<b>-<idx>.slc       base payload chunks
//!   seg-<g>-0000.slc        the delta of generation g
//! ```
//!
//! Every `.slc` file is the magic `SLCSEG3\0` followed by frames of
//! `[u64 LE length ‖ payload ‖ SHA-256(payload)]`.
//!
//! # Examples
//!
//! ```no_run
//! use slicer_persist::{SegmentStore, Snapshot};
//! # fn demo(snapshot: Snapshot) -> Result<(), slicer_persist::PersistError> {
//! let store = SegmentStore::open("/var/lib/slicerd")?;
//! let generation = store.commit(&snapshot)?;
//! let (gen, restored) = store.load()?.expect("committed above");
//! assert_eq!(gen, generation);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod frame;
mod snapshot;
mod store;

pub use error::PersistError;
pub use frame::{parse_frames, read_frames, single_frame_len, write_frames_at};
pub use snapshot::{Snapshot, SnapshotMeta};
pub use store::{Delta, Manifest, SegmentEntry, SegmentRole, SegmentStore};
