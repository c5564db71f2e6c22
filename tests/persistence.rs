//! Persistence: cloud state and protocol messages survive a serialize /
//! deserialize round trip through the in-tree binary codec, a restored
//! cloud keeps serving verifiable results, and the on-disk segment store
//! recovers from torn writes — truncated segments, flipped checksum
//! bytes, deleted manifests — by falling back to the last *sealed*
//! generation.

use slicer_chain::Blockchain;
use slicer_core::{
    BuildOutput, CloudServer, DataOwner, Query, RecordId, SlicerConfig, SlicerInstance,
};
use slicer_persist::{PersistError, SegmentStore, Snapshot};
use slicer_store::codec::{from_bytes, to_bytes};
use slicer_store::CloudState;
use slicer_telemetry::TelemetryHandle;
use std::path::PathBuf;

fn owner_with_data() -> (DataOwner, BuildOutput) {
    let mut owner = DataOwner::new(SlicerConfig::test_8bit(), 61);
    let db: Vec<(RecordId, u64)> = (0..40u64)
        .map(|i| (RecordId::from_u64(i), (i * 11) % 256))
        .collect();
    let out = owner.build(&db).unwrap();
    (owner, out)
}

#[test]
fn build_output_roundtrips() {
    let (_, out) = owner_with_data();
    let bytes = to_bytes(&out).expect("encodes");
    let back: BuildOutput = from_bytes(&bytes).expect("decodes");
    assert_eq!(back.entries, out.entries);
    assert_eq!(back.primes, out.primes);
    assert_eq!(back.accumulator, out.accumulator);
}

#[test]
fn restored_cloud_serves_verifiable_results() {
    let (owner, out) = owner_with_data();
    let mut cloud = CloudServer::new(
        owner.config().clone(),
        owner.keys().trapdoor().public().clone(),
    );
    cloud.ingest(&out).unwrap();

    // Persist, "crash", restore.
    let bytes = to_bytes(cloud.storage()).expect("encodes");
    let state: CloudState = from_bytes(&bytes).expect("decodes");
    let mut restored = CloudServer::from_state(
        owner.config().clone(),
        owner.keys().trapdoor().public().clone(),
        state,
    );

    let tokens = owner.search_tokens(&Query::less_than(100));
    let resp = restored.respond(&tokens).unwrap();
    let params = &owner.config().accumulator;
    let acc = slicer_accumulator::Accumulator::from_value(params, owner.accumulator().clone());
    assert!(!resp.entries.is_empty());
    for (entry, result) in resp.entries.iter().zip(&resp.results) {
        let x = restored.prime_for(result).unwrap();
        let w = slicer_bignum::BigUint::from_bytes_be(&entry.vo);
        assert!(acc.verify(&x, &w), "restored cloud proves correctly");
    }
}

#[test]
fn restored_cloud_accepts_further_inserts() {
    let (mut owner, out) = owner_with_data();
    let mut cloud = CloudServer::new(
        owner.config().clone(),
        owner.keys().trapdoor().public().clone(),
    );
    cloud.ingest(&out).unwrap();
    let bytes = to_bytes(cloud.storage()).expect("encodes");
    let state: CloudState = from_bytes(&bytes).expect("decodes");
    let mut restored = CloudServer::from_state(
        owner.config().clone(),
        owner.keys().trapdoor().public().clone(),
        state,
    );

    let delta = owner.insert(&[(RecordId::from_u64(500), 11)]).unwrap();
    restored.ingest(&delta).unwrap();
    let tokens = owner.search_tokens(&Query::equal(11));
    let results = restored.search(&tokens);
    let total: usize = results.iter().map(|r| r.er.len()).sum();
    // Value 11 appears for i=1 (11) plus the insert.
    assert_eq!(total, 2);
}

#[test]
fn search_token_and_query_roundtrip() {
    let (owner, _) = owner_with_data();
    let tokens = owner.search_tokens(&Query::less_than(77));
    let bytes = to_bytes(&tokens).expect("encodes");
    let back: Vec<slicer_core::SearchToken> = from_bytes(&bytes).expect("decodes");
    assert_eq!(back, tokens);

    let q = Query::greater_than(5).on_attr("age");
    let back_q: Query = from_bytes(&to_bytes(&q).expect("enc")).expect("dec");
    assert_eq!(back_q, q);
}

// ---------------------------------------------------------------------------
// Segment-store crash recovery
// ---------------------------------------------------------------------------

fn store_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slicer-persist-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Builds a live instance, commits generation 1 (3 records) and
/// generation 2 (one more record), and returns everything the recovery
/// tests need.
fn two_generations(dir: &PathBuf) -> (SlicerInstance, Blockchain, SegmentStore, Vec<u8>, Vec<u8>) {
    let seed = 61;
    let mut chain = Blockchain::new();
    let mut instance = SlicerInstance::try_setup_with(
        SlicerConfig::test_8bit(),
        seed,
        &mut chain,
        TelemetryHandle::disabled(),
    )
    .expect("setup");
    let store = SegmentStore::open(dir).expect("open store");

    instance
        .insert(
            &mut chain,
            &[
                (RecordId::from_u64(1), 10),
                (RecordId::from_u64(2), 20),
                (RecordId::from_u64(3), 30),
            ],
        )
        .expect("insert gen 1");
    let snap1 = Snapshot::capture(seed, &instance.owner, &instance.cloud);
    let digest1 = snap1.accumulator_digest();
    assert_eq!(store.commit(&snap1).expect("commit gen 1"), 1);

    instance
        .insert(&mut chain, &[(RecordId::from_u64(4), 40)])
        .expect("insert gen 2");
    let snap2 = Snapshot::capture(seed, &instance.owner, &instance.cloud);
    let digest2 = snap2.accumulator_digest();
    assert_eq!(store.commit(&snap2).expect("commit gen 2"), 2);

    assert_ne!(digest1, digest2, "the two generations must differ");
    (instance, chain, store, digest1, digest2)
}

/// The files of one generation, newest-largest-first.
fn generation_files(dir: &PathBuf, generation: u64) -> Vec<PathBuf> {
    let tag = format!("-{generation:010}");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("readdir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(&tag) && n.starts_with("seg-"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn load_returns_the_latest_sealed_generation() {
    let dir = store_dir("latest");
    let (_, _, store, _, digest2) = two_generations(&dir);
    let (generation, snapshot) = store.load().expect("load").expect("non-empty");
    assert_eq!(generation, 2);
    assert_eq!(snapshot.accumulator_digest(), digest2);
    assert!(!snapshot.cloud.index.is_empty());
}

#[test]
fn truncated_segment_falls_back_to_previous_generation() {
    let dir = store_dir("trunc");
    let (_, _, store, digest1, _) = two_generations(&dir);

    // Tear the largest gen-2 segment mid-file, as an interrupted write
    // would.
    let files = generation_files(&dir, 2);
    let victim = files.last().expect("gen-2 has segments");
    let bytes = std::fs::read(victim).expect("read victim");
    std::fs::write(victim, &bytes[..bytes.len() / 2]).expect("truncate victim");

    let (generation, snapshot) = store.load().expect("load").expect("gen 1 survives");
    assert_eq!(generation, 1, "recovery must fall back to the sealed gen");
    assert_eq!(snapshot.accumulator_digest(), digest1);
}

#[test]
fn flipped_checksum_byte_falls_back_to_previous_generation() {
    let dir = store_dir("flip");
    let (_, _, store, digest1, _) = two_generations(&dir);

    let files = generation_files(&dir, 2);
    let victim = files.first().expect("gen-2 has segments");
    let mut bytes = std::fs::read(victim).expect("read victim");
    // Flip one bit past the magic header: lands in a frame length,
    // payload or checksum — all of which must be caught.
    let idx = bytes.len() - 1;
    bytes[idx] ^= 0x40;
    std::fs::write(victim, &bytes).expect("corrupt victim");

    let (generation, snapshot) = store.load().expect("load").expect("gen 1 survives");
    assert_eq!(generation, 1);
    assert_eq!(snapshot.accumulator_digest(), digest1);
}

#[test]
fn deleted_manifest_falls_back_to_previous_generation() {
    let dir = store_dir("nomanifest");
    let (_, _, store, digest1, _) = two_generations(&dir);

    std::fs::remove_file(dir.join("manifest-0000000002.slc")).expect("delete manifest");

    let (generation, snapshot) = store.load().expect("load").expect("gen 1 survives");
    assert_eq!(generation, 1);
    assert_eq!(snapshot.accumulator_digest(), digest1);
}

#[test]
fn every_generation_corrupt_is_a_typed_error_listing_attempts() {
    let dir = store_dir("allgone");
    let (_, _, store, _, _) = two_generations(&dir);

    for generation in [1u64, 2] {
        for file in generation_files(&dir, generation) {
            let bytes = std::fs::read(&file).expect("read");
            std::fs::write(&file, &bytes[..bytes.len().saturating_sub(7)]).expect("tear");
        }
    }

    let err = store.load().expect_err("nothing sealed remains");
    let PersistError::NoSealedGeneration { attempts, .. } = err else {
        panic!("want NoSealedGeneration, got {err}");
    };
    assert!(
        attempts.len() >= 2,
        "both failed generations are reported: {attempts:?}"
    );
}

#[test]
fn restored_instance_serves_verifiable_search_on_fresh_chain() {
    let dir = store_dir("restore");
    let (instance, _, store, _, digest2) = two_generations(&dir);
    let expected_entries = instance.cloud.storage().index.len();
    drop(instance); // "crash": no clean shutdown, state lives on disk only

    let (generation, snapshot) = store.load().expect("load").expect("sealed");
    assert_eq!(generation, 2);

    let mut chain = Blockchain::new();
    let config = snapshot.meta.config_with_workers(1);
    let seed = snapshot.meta.seed;
    let mut restored = SlicerInstance::try_restore_with(
        config,
        seed,
        &mut chain,
        TelemetryHandle::disabled(),
        snapshot.owner.clone(),
        snapshot.accumulator.clone(),
        snapshot.cloud.clone(),
    )
    .expect("restore");

    // Byte-identical digest, identical index size — restored, not rebuilt.
    let width = restored.owner.config().accumulator.element_bytes();
    assert_eq!(
        restored.owner.accumulator().to_bytes_be_padded(width),
        digest2
    );
    assert_eq!(restored.cloud.storage().index.len(), expected_entries);

    // And the restored deployment serves a *verifiable* search end to end
    // against the republished on-chain digest.
    let outcome = restored
        .search(&mut chain, &Query::less_than(25), 1_000)
        .expect("search");
    assert!(outcome.verified, "restored state must verify on-chain");
    let mut ids: Vec<u64> = outcome
        .records
        .iter()
        .filter_map(RecordId::as_u64)
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 2]);
    assert!(chain.verify_chain());
}

// ---------------------------------------------------------------------------
// Delta commits
// ---------------------------------------------------------------------------

/// Commits a `base_records`-record 16-bit base, then one single-record
/// ingest as a delta. Returns the names and sizes of the files the
/// ingest wrote, and the delta segment's size.
fn single_record_ingest(name: &str, base_records: u64) -> (Vec<(String, u64)>, u64) {
    let dir = store_dir(name);
    let seed = 71;
    let mut chain = Blockchain::new();
    let mut instance = SlicerInstance::try_setup_with(
        SlicerConfig::test_16bit(),
        seed,
        &mut chain,
        TelemetryHandle::disabled(),
    )
    .expect("setup");
    let base: Vec<(RecordId, u64)> = (0..base_records)
        .map(|i| (RecordId::from_u64(i), i * 7919 % 65_536))
        .collect();
    instance.insert(&mut chain, &base).expect("bulk insert");
    let store = SegmentStore::open(&dir).expect("open store");
    let snapshot = Snapshot::capture(seed, &instance.owner, &instance.cloud);
    assert_eq!(store.commit(&snapshot).expect("base"), 1);
    let before = listing(&dir);

    // Record 0's value is in every base, so every keyword rotates an
    // existing chain: the delta is the same shape at any base size.
    let outcome = instance
        .insert(&mut chain, &[(RecordId::from_u64(1 << 40), 0)])
        .expect("insert");
    let delta = slicer_persist::Delta::from(outcome);
    let generation = store
        .commit_delta(&delta, || {
            Snapshot::capture(seed, &instance.owner, &instance.cloud)
        })
        .expect("delta commit");
    assert_eq!(generation, 2);

    // CURRENT is replaced by rename; every other file written is new.
    assert_eq!(
        std::fs::read_to_string(dir.join("CURRENT")).expect("CURRENT"),
        "gen 2\n"
    );
    let written: Vec<(String, u64)> = listing(&dir)
        .into_iter()
        .filter(|name| name == "CURRENT" || !before.contains(name))
        .map(|name| {
            let len = std::fs::metadata(dir.join(&name)).expect("stat").len();
            (name, len)
        })
        .collect();
    let delta_bytes = written
        .iter()
        .find(|(n, _)| n == "seg-0000000002-0000.slc")
        .map(|(_, len)| *len)
        .expect("the ingest wrote its delta segment");

    let (loaded, restored) = store.load().expect("load").expect("sealed");
    assert_eq!(loaded, 2);
    let width = instance.owner.config().accumulator.element_bytes();
    assert_eq!(
        restored.accumulator_digest(),
        instance.owner.accumulator().to_bytes_be_padded(width)
    );
    assert_eq!(
        restored.cloud.index.len(),
        instance.cloud.storage().index.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
    (written, delta_bytes)
}

/// The names of the files in `dir`, sorted.
fn listing(dir: &PathBuf) -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .expect("readdir")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    files
}

#[test]
fn single_record_ingest_writes_a_small_delta_independent_of_base_size() {
    let (small, small_delta) = single_record_ingest("delta-100", 100);
    let (large, large_delta) = single_record_ingest("delta-2000", 2_000);
    for written in [&small, &large] {
        let mut names: Vec<&str> = written.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            [
                "CURRENT",
                "manifest-0000000002.slc",
                "seg-0000000002-0000.slc"
            ],
            "a delta commit writes its segment, its manifest and CURRENT"
        );
        let total: u64 = written.iter().map(|(_, len)| len).sum();
        println!("single-record delta commit: {written:?}");
        assert!(total < 64 * 1024, "{total} bytes for one record");
    }
    assert_eq!(
        small_delta, large_delta,
        "the delta holds the ingest, not the base"
    );
}
