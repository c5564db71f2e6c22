//! The decoders `slicerd` runs on bytes from a peer or from disk, fed
//! corrupted encodings of valid values: truncation at every offset,
//! inflated length prefixes, trailing bytes and bit flips.
//!
//! - The codec decoders (`Request`, `Response`, `OwnerDelta`,
//!   `PrimeList`, `Manifest`, `Delta`) return a `CodecError` or another
//!   valid value.
//! - The wire-frame reader (`read_message`) returns a typed
//!   `ReadOutcome` or `DaemonError::Io`, and consumes exactly one frame.
//! - The segment-frame reader (`read_frames`) returns
//!   `PersistError::Corrupt` or `UnsupportedVersion`, or, cut at a frame
//!   boundary, the frames before the cut under another file checksum.
//!
//! None of them panics. CI runs this binary under `ulimit -v`, so an
//! allocation sized from an inflated length aborts the stage instead of
//! passing by luck.

use slicer_bignum::BigUint;
use slicer_core::{KeywordState, OwnerDelta, Query};
use slicer_crypto::codec::{from_bytes, to_bytes, Decode, Encode};
use slicer_crypto::sha256;
use slicer_daemon::proto::{read_message, write_message};
use slicer_daemon::{
    DaemonError, MetricsReply, ReadOutcome, Request, RequestBody, Response, ResponseBody,
    StatReply, WireHistogram, MAX_FRAME_LEN,
};
use slicer_persist::{
    read_frames, write_frames_at, Delta, Manifest, PersistError, SegmentEntry, SegmentRole,
};
use slicer_store::{PrimeList, INDEX_LABEL_LEN};
use slicer_testkit::{prop_assert, prop_assert_eq, prop_check, Gen, PropResult};
use slicer_trapdoor::Trapdoor;
use std::fmt::Debug;
use std::path::Path;

fn list<T>(g: &mut Gen, max: usize, item: impl Fn(&mut Gen) -> T) -> Vec<T> {
    (0..g.usize_in(0, max)).map(|_| item(g)).collect()
}

fn big(g: &mut Gen) -> BigUint {
    BigUint::from_bytes_be(&g.bytes(0, 20))
}

fn request(g: &mut Gen) -> Request {
    let body = match g.u64_in(0, 3) {
        0 => RequestBody::Ingest {
            records: list(g, 3, |g| (g.u64(), g.u64())),
        },
        1 => RequestBody::Search {
            query: Query::less_than(g.u64()).on_attr(&g.lower_string(0, 6)),
            payment: g.u128(),
        },
        2 => RequestBody::Tail { count: g.u64() },
        _ => RequestBody::Profile {
            svg: g.bool(),
            gas: g.bool(),
        },
    };
    Request {
        trace_id: g.u64(),
        body,
    }
}

fn response(g: &mut Gen) -> Response {
    let name = |g: &mut Gen| g.lower_string(0, 12);
    let body = match g.u64_in(0, 3) {
        0 => ResponseBody::Error(name(g)),
        1 => ResponseBody::Found {
            ids: list(g, 4, Gen::u64),
            verified: g.bool(),
            paid_cloud: g.bool(),
            request_gas: g.u64(),
            verify_gas: g.u64(),
            digest: g.bytes(0, 64),
        },
        2 => ResponseBody::Stats(StatReply {
            index_entries: g.u64(),
            primes: g.u64(),
            generation: g.u64(),
            chain_height: g.u64(),
            digest: g.bytes(0, 64),
        }),
        _ => ResponseBody::MetricsReport(MetricsReply {
            uptime_ns: g.u64(),
            version: name(g),
            boot: name(g),
            generation: g.u64(),
            counters: list(g, 2, |g| (name(g), g.u64())),
            gauges: list(g, 2, |g| (name(g), g.u64())),
            histograms: list(g, 2, |g| {
                let h = WireHistogram {
                    count: g.u64(),
                    sum: g.u64(),
                    min: g.u64(),
                    max: g.u64(),
                    p50: g.u64(),
                    p90: g.u64(),
                    p99: g.u64(),
                };
                (name(g), h)
            }),
        }),
    };
    Response {
        trace_id: g.u64(),
        body,
    }
}

fn owner_delta(g: &mut Gen) -> OwnerDelta {
    let key = |g: &mut Gen| g.bytes(0, 12);
    let state = |g: &mut Gen| KeywordState {
        trapdoor: Trapdoor::from_value(big(g)),
        updates: g.u32(),
        counter: g.u64(),
    };
    OwnerDelta {
        trapdoors: list(g, 3, |g| (key(g), state(g))).into_iter().collect(),
        set_hashes: list(g, 3, |g| (key(g), sha256(&key(g))))
            .into_iter()
            .collect(),
        retired: list(g, 3, key),
    }
}

fn prime_list(g: &mut Gen) -> PrimeList {
    let mut primes = PrimeList::new();
    for x in list(g, 4, big) {
        primes.push(x);
    }
    primes
}

fn manifest(g: &mut Gen) -> Manifest {
    let roles = [
        SegmentRole::Meta,
        SegmentRole::Owner,
        SegmentRole::Accumulator,
        SegmentRole::IndexChunk,
        SegmentRole::PrimesChunk,
        SegmentRole::Delta,
    ];
    Manifest {
        generation: g.u64(),
        base: g.u64(),
        segments: list(g, 3, |g| SegmentEntry {
            name: g.lower_string(1, 16),
            role: roles[g.index(roles.len())],
            bytes: g.u64(),
            checksum: [g.u8(); 32],
        }),
    }
}

fn delta(g: &mut Gen) -> Delta {
    Delta {
        entries: list(g, 3, |g| ([g.u8(); INDEX_LABEL_LEN], g.bytes(0, 48))),
        primes: list(g, 3, big),
        accumulator: big(g),
        owner: owner_delta(g),
    }
}

/// `bytes` is rejected, or it decodes to a value whose encoding decodes
/// back to that same encoding.
fn rejected_or_valid<T: Encode + Decode>(bytes: &[u8], what: &str) -> PropResult {
    if let Ok(value) = from_bytes::<T>(bytes) {
        let again = to_bytes(&value).map_err(|e| e.to_string())?;
        let back = from_bytes::<T>(&again).map_err(|e| format!("{what}: {e}"))?;
        let stable = to_bytes(&back).map_err(|e| e.to_string())?;
        prop_assert_eq!(stable, again, "{what}: unstable re-encoding");
    }
    Ok(())
}

/// `bytes` with 1–3 distinct bits flipped.
fn flip_bits(g: &mut Gen, bytes: &[u8]) -> Vec<u8> {
    let mut bits: Vec<usize> = (0..g.usize_in(1, 3))
        .map(|_| g.index(bytes.len() * 8))
        .collect();
    bits.sort_unstable();
    bits.dedup();
    let mut bad = bytes.to_vec();
    for bit in bits {
        bad[bit / 8] ^= 1 << (bit % 8);
    }
    bad
}

/// Runs `T`'s decoder over the four corruptions of `value`'s encoding.
fn corruptions<T: Encode + Decode>(g: &mut Gen, value: &T) -> PropResult {
    let name = std::any::type_name::<T>();
    let data = to_bytes(value).map_err(|e| e.to_string())?;
    prop_assert!(from_bytes::<T>(&data).is_ok(), "{name}: valid encoding");

    // A strict prefix always runs out of bytes.
    for end in 0..data.len() {
        prop_assert!(
            from_bytes::<T>(&data[..end]).is_err(),
            "{name}: truncated at {end}"
        );
    }
    // Any suffix is left over.
    let mut longer = data.clone();
    longer.extend(g.bytes(1, 8));
    prop_assert!(from_bytes::<T>(&longer).is_err(), "{name}: trailing bytes");
    // Inflated lengths: every 8-byte window that could hold a length
    // prefix (its value is at most the encoding's size) set to the
    // largest value and to a random larger one.
    for at in 0..data.len().saturating_sub(7) {
        let mut window = [0u8; 8];
        window.copy_from_slice(&data[at..at + 8]);
        let len = u64::from_le_bytes(window);
        if len > data.len() as u64 {
            continue;
        }
        for inflated in [u64::MAX, g.u64_in(len + 1, u64::MAX)] {
            let mut bad = data.clone();
            bad[at..at + 8].copy_from_slice(&inflated.to_le_bytes());
            rejected_or_valid::<T>(&bad, &format!("{name}: length at {at} = {inflated}"))?;
        }
    }
    // Random bit flips.
    for _ in 0..8 {
        let bad = flip_bits(g, &data);
        rejected_or_valid::<T>(&bad, &format!("{name}: bit flips"))?;
    }
    Ok(())
}

/// One `read_message` over `wire`: the outcome, and how many bytes it
/// consumed.
fn read_one<T: Decode>(wire: &[u8]) -> (Result<ReadOutcome<T>, DaemonError>, usize) {
    let mut cursor = wire;
    let got = read_message::<T>(&mut cursor);
    (got, wire.len() - cursor.len())
}

/// Runs `read_message` over the corruptions of `value`'s wire frame (a
/// big-endian `u32` payload length, then the payload).
fn frame_corruptions<T: Encode + Decode + PartialEq + Debug>(g: &mut Gen, value: &T) -> PropResult {
    let name = std::any::type_name::<T>();
    let mut wire = Vec::new();
    write_message(&mut wire, value).map_err(|e| e.to_string())?;
    let payload = &wire[4..];
    let (got, used) = read_one::<T>(&wire);
    prop_assert!(
        matches!(got, Ok(ReadOutcome::Msg(ref back)) if back == value) && used == wire.len(),
        "{name}: valid frame"
    );

    // A strict prefix: a clean EOF before the first byte, an I/O error
    // inside the frame.
    for end in 0..wire.len() {
        let (got, _) = read_one::<T>(&wire[..end]);
        let typed = match got {
            Ok(ReadOutcome::Eof) => end == 0,
            Err(DaemonError::Io(_)) => end > 0,
            _ => false,
        };
        prop_assert!(typed, "{name}: truncated at {end}: {got:?}");
    }
    // Inflated lengths: up to the cap the frame runs out of bytes; past
    // it the frame is drained and reported as oversize.
    let short = u32::try_from(g.u64_in(payload.len() as u64 + 1, u64::from(MAX_FRAME_LEN)))
        .map_err(|e| e.to_string())?;
    for len in [short, MAX_FRAME_LEN, MAX_FRAME_LEN + 1, u32::MAX] {
        let mut bad = len.to_be_bytes().to_vec();
        bad.extend_from_slice(payload);
        let (got, used) = read_one::<T>(&bad);
        let typed = match got {
            Ok(ReadOutcome::Oversize { declared }) => len > MAX_FRAME_LEN && declared == len,
            Err(DaemonError::Io(_)) => len <= MAX_FRAME_LEN,
            _ => false,
        };
        prop_assert!(typed && used == bad.len(), "{name}: length {len}: {got:?}");
    }
    // Trailing bytes inside the frame: it stays framed, and the payload
    // is undecodable. After the frame: they wait for the next read, which
    // cannot find a message in at most 8 bytes.
    let extra = g.bytes(1, 8);
    let mut bad = u32::try_from(payload.len() + extra.len())
        .map_err(|e| e.to_string())?
        .to_be_bytes()
        .to_vec();
    bad.extend_from_slice(payload);
    bad.extend_from_slice(&extra);
    let (got, used) = read_one::<T>(&bad);
    prop_assert!(
        matches!(got, Ok(ReadOutcome::Undecodable(_))) && used == bad.len(),
        "{name}: trailing bytes in the frame: {got:?}"
    );
    let mut longer = wire.clone();
    longer.extend_from_slice(&extra);
    let (got, used) = read_one::<T>(&longer);
    prop_assert!(
        matches!(got, Ok(ReadOutcome::Msg(ref back)) if back == value) && used == wire.len(),
        "{name}: trailing bytes after the frame"
    );
    let (got, _) = read_one::<T>(&extra);
    prop_assert!(
        !matches!(got, Ok(ReadOutcome::Msg(_) | ReadOutcome::Eof)),
        "{name}: a message in {} trailing bytes",
        extra.len()
    );
    // Random bit flips: whatever the outcome, a read that found a frame
    // consumed exactly the frame its (possibly flipped) header declares.
    for _ in 0..8 {
        let bad = flip_bits(g, &wire);
        let mut len = [0u8; 4];
        len.copy_from_slice(&bad[..4]);
        let frame = 4 + u32::from_be_bytes(len) as usize;
        let (got, used) = read_one::<T>(&bad);
        let typed = match got {
            Ok(ReadOutcome::Msg(_) | ReadOutcome::Undecodable(_)) => used == frame,
            Ok(ReadOutcome::Oversize { .. }) | Err(DaemonError::Io(_)) => used == bad.len(),
            _ => false,
        };
        prop_assert!(typed, "{name}: bit flips: {got:?} after {used} bytes");
    }
    Ok(())
}

/// Runs `read_frames` over the corruptions of a segment file holding
/// `frames`: the 8-byte magic, then per frame a `u64` LE payload length,
/// the payload and its SHA-256.
fn segment_corruptions(g: &mut Gen, path: &Path, frames: &[Vec<u8>]) -> PropResult {
    let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
    let sum = write_frames_at(&file, path, 0, frames).map_err(|e| e.to_string())?;
    let data = std::fs::read(path).map_err(|e| e.to_string())?;
    let read = |bytes: &[u8]| {
        std::fs::write(path, bytes).map_err(|e| e.to_string())?;
        Ok::<_, String>(read_frames(path))
    };
    prop_assert_eq!(read(&data)?, Ok((frames.to_vec(), sum)), "valid segment");
    // Where each frame starts; the last entry is the end of the file.
    let mut starts = vec![8];
    for frame in frames {
        starts.push(starts[starts.len() - 1] + 8 + frame.len() + 32);
    }

    // A strict prefix is corrupt, unless it ends at a frame boundary: then
    // it holds the frames before the cut, under another file checksum.
    for end in 0..data.len() {
        let got = read(&data[..end])?;
        let typed = match (starts.iter().position(|&s| s == end), &got) {
            (Some(kept), Ok((back, cut_sum))) => back == &frames[..kept] && *cut_sum != sum,
            (None, Err(PersistError::Corrupt { .. })) => true,
            _ => false,
        };
        prop_assert!(typed, "segment truncated at {end}: {got:?}");
    }
    // Inflated lengths, at every frame: the file runs out of bytes.
    for (k, &at) in starts[..frames.len()].iter().enumerate() {
        let short = g.u64_in(frames[k].len() as u64 + 1, u64::MAX);
        for len in [
            short,
            u64::from(MAX_FRAME_LEN),
            u64::from(MAX_FRAME_LEN) + 1,
            u64::MAX,
        ] {
            let mut bad = data.clone();
            bad[at..at + 8].copy_from_slice(&len.to_le_bytes());
            let got = read(&bad)?;
            prop_assert!(
                matches!(got, Err(PersistError::Corrupt { .. })),
                "frame {k} length {len}: {got:?}"
            );
        }
    }
    // Trailing bytes too few for a frame (one needs at least 40).
    let mut longer = data.clone();
    longer.extend(g.bytes(1, 39));
    let got = read(&longer)?;
    prop_assert!(
        matches!(got, Err(PersistError::Corrupt { .. })),
        "segment with trailing bytes: {got:?}"
    );
    // Random bit flips: every byte is under the magic or a checksum.
    for _ in 0..8 {
        let got = read(&flip_bits(g, &data))?;
        prop_assert!(
            matches!(
                got,
                Err(PersistError::Corrupt { .. } | PersistError::UnsupportedVersion { .. })
            ),
            "segment bit flips: {got:?}"
        );
    }
    Ok(())
}

#[test]
fn corrupted_encodings_are_rejected_or_another_valid_value() {
    prop_check!(0xDEC0, 64, |g| {
        let value = request(g);
        corruptions(g, &value)?;
        let value = response(g);
        corruptions(g, &value)?;
        let value = owner_delta(g);
        corruptions(g, &value)?;
        let value = prime_list(g);
        corruptions(g, &value)?;
        let value = manifest(g);
        corruptions(g, &value)?;
        let value = delta(g);
        corruptions(g, &value)
    });
}

#[test]
fn corrupted_wire_frames_are_typed_outcomes() {
    prop_check!(0xF4A3, 64, |g| {
        let value = request(g);
        frame_corruptions(g, &value)?;
        let value = response(g);
        frame_corruptions(g, &value)
    });
}

#[test]
fn corrupted_segment_frames_are_typed_errors() {
    let dir = std::env::temp_dir().join(format!("slicer-decode-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("seg.slc");
    prop_check!(0x5E6F, 64, |g| {
        let frames = list(g, 3, |g| g.bytes(0, 40));
        segment_corruptions(g, &path, &frames)
    });
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}
