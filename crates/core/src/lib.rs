//! # slicer-core
//!
//! The Slicer protocol: verifiable, secure and fair search over encrypted
//! numerical data using blockchain (Wu, Song, Lei, Xiao — ICDCS 2022).
//!
//! This crate wires the substrates ([`slicer_sore`],
//! [`slicer_accumulator`], [`slicer_trapdoor`], [`slicer_store`],
//! [`slicer_chain`]) into the four-party protocol of Section IV:
//!
//! * [`DataOwner`] — `KGen`, `Build` (Algorithm 1) and forward-secure
//!   `Insert` (Algorithm 2); ships the encrypted index and prime list to
//!   the cloud and the accumulator digest to the chain.
//! * [`DataUser`] — search-token generation (Algorithm 3) and result
//!   decryption, operating on keys and trapdoor state delegated by the
//!   owner.
//! * [`CloudServer`] — the search walk and VO generation (Algorithm 4),
//!   plus deliberately *malicious* variants used by the failure-injection
//!   test-suite.
//! * [`SlicerInstance`] — end-to-end orchestration over a caller-owned
//!   [`slicer_chain::Blockchain`] running the verification contract
//!   (Algorithm 5) with escrowed search fees.
//! * [`DualSlicer`] — the Section V-F extension supporting deletion and
//!   update by running an insert-instance and a delete-instance side by
//!   side.
//! * [`leakage`] / [`audit`] — the declared leakage profiles of
//!   Theorem 2, and a [`LeakageAuditor`] that re-derives the observable
//!   access pattern from an instrumented run's trace transcript and
//!   asserts it matches those profiles exactly.
//!
//! # Quickstart
//!
//! ```
//! use slicer_chain::Blockchain;
//! use slicer_core::{Query, RecordId, SlicerConfig, SlicerInstance};
//! use slicer_telemetry::TelemetryHandle;
//!
//! // 8-bit values, deterministic seed, telemetry off.
//! let mut chain = Blockchain::new();
//! let mut slicer = SlicerInstance::try_setup_with(
//!     SlicerConfig::test_8bit(),
//!     42,
//!     &mut chain,
//!     TelemetryHandle::disabled(),
//! )
//! .unwrap();
//! let db: Vec<(RecordId, u64)> = (0u64..50)
//!     .map(|i| (RecordId::from_u64(i), (i * 3) % 256))
//!     .collect();
//! slicer.build(&mut chain, &db).unwrap();
//!
//! let outcome = slicer.search(&mut chain, &Query::less_than(30), 1_000).unwrap();
//! assert!(outcome.verified);
//! for id in &outcome.records {
//!     let i = id.as_u64().unwrap();
//!     assert!((i * 3) % 256 < 30);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod cloud;
mod config;
mod dual;
mod error;
mod keys;
mod keyword;
pub mod leakage;
mod messages;
mod owner;
mod profile;
mod record;
mod state;
mod system;
mod user;

pub use audit::{AuditReport, DeclaredLeakage, LeakageAuditor, LeakageViolation};
pub use cloud::{malicious, CloudServer, WitnessStrategy};
pub use config::SlicerConfig;
pub use dual::DualSlicer;
pub use error::SlicerError;
pub use keys::KeySet;
pub use keyword::Keyword;
pub use messages::{
    BuildOutput, BuildTiming, CloudResponse, Query, QueryOp, SearchToken, SliceResult,
};
pub use owner::DataOwner;
pub use profile::{PhaseStat, SearchProfile};
pub use record::{Record, RecordId, RECORD_CIPHERTEXT_LEN};
pub use state::{KeywordState, OwnerDelta, OwnerState};
pub use system::{InsertOutcome, SearchOutcome, SlicerInstance};
pub use user::DataUser;
