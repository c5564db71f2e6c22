//! Checksummed frame files: the unit every segment and manifest is
//! stored in.
//!
//! A `.slc` file is the 8-byte magic followed by zero or more frames,
//! each `[u64 LE payload length ‖ payload ‖ SHA-256(payload)]`. The
//! per-frame checksum localizes torn writes: a segment truncated
//! mid-frame or a single flipped payload bit fails validation on read,
//! and the caller falls back to the previous sealed generation.
//!
//! The file checksum a manifest records is SHA-256 over the magic
//! followed by every frame's `length ‖ SHA-256(payload)`: it hashes the
//! per-frame digests rather than the payloads a second time, and still
//! changes when a whole trailing frame is dropped, frames are reordered
//! or bytes are appended.

use crate::error::PersistError;
use slicer_crypto::sha256;
use std::fs;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// File magic: identifies a Slicer segment file, version 3 (owner
/// result digests are 32 bytes).
pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"SLCSEG3\0";

/// The magic without its version byte and terminator.
const MAGIC_PREFIX: &[u8; 6] = b"SLCSEG";

/// Per-frame overhead: the length prefix and the payload digest.
const FRAME_OVERHEAD: usize = 8 + 32;

/// Size of a segment file holding one frame of `payload` bytes — the
/// image [`write_frames_at`] writes for one frame.
pub const fn single_frame_len(payload: usize) -> usize {
    SEGMENT_MAGIC.len() + FRAME_OVERHEAD + payload
}

/// A segment image ready to write, with the checksum its manifest
/// entry records.
#[derive(Debug)]
pub(crate) struct Image {
    pub(crate) bytes: Vec<u8>,
    pub(crate) checksum: [u8; 32],
}

/// Serializes `frames` into one in-memory segment image, hashing each
/// payload once.
pub(crate) fn encode_frames(frames: &[Vec<u8>]) -> Image {
    let total: usize = frames.iter().map(|f| f.len() + FRAME_OVERHEAD).sum();
    let mut bytes = Vec::with_capacity(SEGMENT_MAGIC.len() + total);
    let mut digests = Vec::with_capacity(SEGMENT_MAGIC.len() + frames.len() * FRAME_OVERHEAD);
    bytes.extend_from_slice(SEGMENT_MAGIC);
    digests.extend_from_slice(SEGMENT_MAGIC);
    for frame in frames {
        let len = (frame.len() as u64).to_le_bytes();
        let sum = sha256(frame);
        bytes.extend_from_slice(&len);
        bytes.extend_from_slice(frame);
        bytes.extend_from_slice(&sum);
        digests.extend_from_slice(&len);
        digests.extend_from_slice(&sum);
    }
    Image {
        bytes,
        checksum: sha256(&digests),
    }
}

/// Creates `path` holding `bytes` and returns it open, not yet synced.
pub(crate) fn write_new(path: &Path, bytes: &[u8]) -> Result<fs::File, PersistError> {
    let mut file = fs::File::create(path).map_err(|e| PersistError::io(path, &e))?;
    file.write_all(bytes)
        .map_err(|e| PersistError::io(path, &e))?;
    Ok(file)
}

/// Writes the image of `frames` into the already open `file` at
/// `offset` with one positioned write: no temp file, no rename, no
/// fsync. The bytes survive the death of the writing process, not a
/// power loss. `path` names the file in errors. Returns the image
/// checksum, the value [`parse_frames`] reports for it.
///
/// A reader locates an image written this way with [`parse_frames`]
/// over the bytes from `offset` on.
///
/// Public so sibling crates can persist their own checksummed artifacts
/// in the same `.slc` format.
///
/// # Errors
///
/// Returns [`PersistError::Io`] when the write fails.
pub fn write_frames_at(
    file: &fs::File,
    path: &Path,
    offset: u64,
    frames: &[Vec<u8>],
) -> Result<[u8; 32], PersistError> {
    let image = encode_frames(frames);
    file.write_all_at(&image.bytes, offset)
        .map_err(|e| PersistError::io(path, &e))?;
    Ok(image.checksum)
}

/// Splits `bytes` at `n` without panicking on short input.
fn split_checked(bytes: &[u8], n: usize) -> Option<(&[u8], &[u8])> {
    Some((bytes.get(..n)?, bytes.get(n..)?))
}

/// Reads and validates a frame file: magic, frame structure and every
/// per-frame checksum. Returns the frames plus the file checksum (for
/// comparison against a manifest entry).
///
/// # Errors
///
/// Returns [`PersistError::Io`] when the file cannot be read and
/// otherwise what [`parse_frames`] returns.
pub fn read_frames(path: &Path) -> Result<(Vec<Vec<u8>>, [u8; 32]), PersistError> {
    let bytes = fs::read(path).map_err(|e| PersistError::io(path, &e))?;
    parse_frames(path, &bytes, usize::MAX)
}

/// Validates the frame image at the start of `bytes`: magic, frame
/// structure and every per-frame checksum. Parsing stops at the end of
/// `bytes` or after `max_frames` frames, whichever comes first; bytes
/// after the last parsed frame are ignored. Returns the frames plus the
/// checksum of the parsed image. `path` names the source in errors.
///
/// # Errors
///
/// Returns [`PersistError::UnsupportedVersion`] for a segment image of
/// another format version and [`PersistError::Corrupt`] on any
/// validation failure.
pub fn parse_frames(
    path: &Path,
    bytes: &[u8],
    max_frames: usize,
) -> Result<(Vec<Vec<u8>>, [u8; 32]), PersistError> {
    let Some(mut cursor) = bytes.strip_prefix(SEGMENT_MAGIC.as_slice()) else {
        if let Some(magic) = bytes.get(..SEGMENT_MAGIC.len()) {
            if magic.starts_with(MAGIC_PREFIX) {
                return Err(PersistError::UnsupportedVersion {
                    path: path.display().to_string(),
                    magic: String::from_utf8_lossy(magic)
                        .trim_end_matches('\0')
                        .to_string(),
                });
            }
        }
        return Err(PersistError::corrupt(path, "bad or missing magic header"));
    };
    let mut digests = SEGMENT_MAGIC.to_vec();
    let mut frames = Vec::new();
    while !cursor.is_empty() && frames.len() < max_frames {
        let Some((len_bytes, tail)) = split_checked(cursor, 8) else {
            return Err(PersistError::corrupt(path, "truncated frame length"));
        };
        let mut len8 = [0u8; 8];
        len8.copy_from_slice(len_bytes);
        let len = usize::try_from(u64::from_le_bytes(len8))
            .map_err(|_| PersistError::corrupt(path, "frame length overflows usize"))?;
        let Some((payload, tail)) = split_checked(tail, len) else {
            return Err(PersistError::corrupt(
                path,
                format!("truncated frame payload (want {len} bytes)"),
            ));
        };
        let Some((sum, tail)) = split_checked(tail, 32) else {
            return Err(PersistError::corrupt(path, "truncated frame checksum"));
        };
        if sum != sha256(payload) {
            return Err(PersistError::corrupt(
                path,
                format!("frame {} checksum mismatch", frames.len()),
            ));
        }
        digests.extend_from_slice(len_bytes);
        digests.extend_from_slice(sum);
        frames.push(payload.to_vec());
        cursor = tail;
    }
    Ok((frames, sha256(&digests)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("slicer-frame-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("f.slc")
    }

    /// Writes `frames` as the whole of a freshly created `path`.
    fn write_image(path: &Path, frames: &[Vec<u8>]) -> [u8; 32] {
        let file = std::fs::File::create(path).unwrap();
        write_frames_at(&file, path, 0, frames).unwrap()
    }

    #[test]
    fn roundtrip_preserves_frames_and_checksum() {
        let path = tmp("rt");
        let frames = vec![vec![1u8, 2, 3], Vec::new(), vec![0u8; 100]];
        let sum = write_image(&path, &frames);
        let (back, read_sum) = read_frames(&path).unwrap();
        assert_eq!(back, frames);
        assert_eq!(sum, read_sum);
    }

    #[test]
    fn truncation_is_corrupt() {
        let path = tmp("trunc");
        write_image(&path, &[vec![7u8; 64]]);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(matches!(
            read_frames(&path),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn flipped_payload_bit_is_corrupt() {
        let path = tmp("flip");
        write_image(&path, &[vec![7u8; 64]]);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[SEGMENT_MAGIC.len() + 8 + 3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_frames(&path).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn dropped_trailing_frame_changes_the_file_checksum() {
        let path = tmp("drop");
        let frames = vec![vec![1u8; 16], vec![2u8; 24]];
        let sum = write_image(&path, &frames);
        let bytes = std::fs::read(&path).unwrap();
        // Cut exactly one whole frame: the rest still parses frame by frame.
        let kept = bytes.len() - (frames[1].len() + FRAME_OVERHEAD);
        std::fs::write(&path, &bytes[..kept]).unwrap();
        let (back, read_sum) = read_frames(&path).unwrap();
        assert_eq!(back, frames[..1]);
        assert_ne!(read_sum, sum, "a manifest must notice the missing frame");

        // Reordered frames and appended bytes are caught the same way.
        let swapped = write_image(&path, &[frames[1].clone(), frames[0].clone()]);
        assert_ne!(swapped, sum);
        write_image(&path, &frames);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&encode_frames(&[Vec::new()]).bytes[SEGMENT_MAGIC.len()..]);
        std::fs::write(&path, &bytes).unwrap();
        assert_ne!(read_frames(&path).unwrap().1, sum);
    }

    #[test]
    fn positioned_image_parses_in_place_and_ignores_what_follows() {
        let path = tmp("at");
        let file = std::fs::File::create(&path).unwrap();
        let frames = vec![vec![3u8; 20], vec![4u8; 5]];
        // A longer image first, then a shorter one over it: the tail of
        // the first is left behind the second.
        write_frames_at(&file, &path, 100, &[vec![9u8; 200], vec![8u8; 50]]).unwrap();
        write_frames_at(&file, &path, 100, &frames).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let at = &bytes[100..];
        assert!(at.len() > encode_frames(&frames).bytes.len());
        let (back, sum) = parse_frames(&path, at, frames.len()).unwrap();
        assert_eq!(back, frames);
        assert_eq!(sum, encode_frames(&frames).checksum);
        // Without the frame limit the stale tail is a torn frame.
        assert!(matches!(
            parse_frames(&path, at, usize::MAX),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn version_one_file_is_an_unsupported_version() {
        // Version 2 files frame the same way but hold 1024-bit set hashes.
        for version in ["SLCSEG1", "SLCSEG2"] {
            let path = tmp(version);
            let mut bytes = format!("{version}\0").into_bytes();
            bytes.extend_from_slice(&encode_frames(&[vec![1u8; 8]]).bytes[SEGMENT_MAGIC.len()..]);
            std::fs::write(&path, &bytes).unwrap();
            let err = read_frames(&path).unwrap_err();
            assert!(
                matches!(&err, PersistError::UnsupportedVersion { magic, .. } if magic == version),
                "{err}"
            );
            assert!(err.to_string().contains("unsupported segment version"));
        }
    }

    #[test]
    fn wrong_magic_is_corrupt() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTSLICER").unwrap();
        let err = read_frames(&path).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }
}
