//! The codec decoders `slicerd` runs on bytes from a peer or from disk
//! (`Request`, `Response`, `OwnerDelta`, `PrimeList`, `Manifest`,
//! `Delta`), fed corrupted encodings of valid values: truncation at every
//! offset, inflated `u64` length prefixes, trailing bytes and bit flips
//! each return a `CodecError` or another valid value, never a panic.
//!
//! CI runs this binary under `ulimit -v`, so an allocation sized from an
//! inflated length aborts the stage instead of passing by luck.

use slicer_bignum::BigUint;
use slicer_core::{KeywordState, OwnerDelta, Query};
use slicer_crypto::codec::{from_bytes, to_bytes, Decode, Encode};
use slicer_daemon::{
    MetricsReply, Request, RequestBody, Response, ResponseBody, StatReply, WireHistogram,
};
use slicer_mshash::MsetHash;
use slicer_persist::{Delta, Manifest, SegmentEntry, SegmentRole};
use slicer_store::{PrimeList, INDEX_LABEL_LEN};
use slicer_testkit::{prop_assert, prop_assert_eq, prop_check, Gen, PropResult};
use slicer_trapdoor::Trapdoor;

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
        set_hashes: list(g, 3, |g| (key(g), MsetHash::of_element(&key(g))))
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
        let mut bad = data.clone();
        for _ in 0..g.usize_in(1, 3) {
            let bit = g.index(bad.len() * 8);
            bad[bit / 8] ^= 1 << (bit % 8);
        }
        rejected_or_valid::<T>(&bad, &format!("{name}: bit flips"))?;
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
