//! # slicer-repro
//!
//! Umbrella crate for the Slicer reproduction: re-exports the whole
//! workspace under one roof and hosts the runnable examples
//! (`examples/`) and cross-crate integration tests (`tests/`).
//!
//! Start from [`core`] (the protocol) and the crate-level example there;
//! `DESIGN.md` maps every paper section to a module and `EXPERIMENTS.md`
//! records the reproduced evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use slicer_accumulator as accumulator;
pub use slicer_bignum as bignum;
pub use slicer_chain as chain;
pub use slicer_core as core;
pub use slicer_crypto as crypto;
pub use slicer_sore as sore;
pub use slicer_store as store;
pub use slicer_trapdoor as trapdoor;
pub use slicer_workload as workload;
