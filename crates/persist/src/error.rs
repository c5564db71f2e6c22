//! The persistence error type.

use std::error::Error;
use std::fmt;
use std::path::Path;

/// Errors raised by the segment store.
///
/// `Corrupt` is the torn-write signal: the loader treats it (and `Io`) as
/// "this generation is not sealed" and falls back to an older one rather
/// than propagating, so a single flipped bit never takes the daemon down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// An operating-system I/O failure.
    Io {
        /// The file or directory involved.
        path: String,
        /// The OS error message.
        msg: String,
    },
    /// A file exists but fails validation: bad magic, truncated frame,
    /// checksum mismatch, undecodable payload or a manifest that
    /// contradicts itself.
    Corrupt {
        /// The offending file.
        path: String,
        /// What the validator found.
        detail: String,
    },
    /// A segment file carries the magic of another format version: it
    /// was written by an incompatible build and is never reinterpreted.
    UnsupportedVersion {
        /// The offending file.
        path: String,
        /// The magic found, without its trailing NUL (e.g. `SLCSEG1`).
        magic: String,
    },
    /// No generation in the directory could be loaded; carries a
    /// human-readable summary of every attempt.
    NoSealedGeneration {
        /// The store directory.
        dir: String,
        /// One line per failed generation.
        attempts: Vec<String>,
    },
}

impl PersistError {
    pub(crate) fn io(path: &Path, err: &std::io::Error) -> Self {
        PersistError::Io {
            path: path.display().to_string(),
            msg: err.to_string(),
        }
    }

    pub(crate) fn corrupt(path: &Path, detail: impl Into<String>) -> Self {
        PersistError::Corrupt {
            path: path.display().to_string(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, msg } => write!(f, "i/o error on {path}: {msg}"),
            PersistError::Corrupt { path, detail } => write!(f, "corrupt file {path}: {detail}"),
            PersistError::UnsupportedVersion { path, magic } => write!(
                f,
                "unsupported segment version in {path}: found {magic}, this build reads SLCSEG3"
            ),
            PersistError::NoSealedGeneration { dir, attempts } => {
                write!(f, "no sealed generation in {dir}")?;
                for a in attempts {
                    write!(f, "; {a}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for PersistError {}
