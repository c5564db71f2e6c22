//! The headline durability guarantee, end-to-end over real processes:
//! `kill -9` a serving daemon, restart it on the same data directory,
//! and it serves verifiable searches with a byte-identical accumulator
//! digest — no rebuild.

use slicer_core::Query;
use slicer_daemon::{DaemonClient, Endpoint, FlightRecording, FLIGHTREC_FILE};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slicerd-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn_daemon(socket: &Path, data: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_slicerd"))
        .args([
            "--listen",
            &format!("unix://{}", socket.display()),
            "--data",
            &data.display().to_string(),
            "--seed",
            "11",
            "--bits",
            "8",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn slicerd")
}

fn connect_with_retry(endpoint: &Endpoint, child: &mut Child) -> DaemonClient {
    for _ in 0..200 {
        if let Ok(client) = DaemonClient::connect(endpoint) {
            return client;
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("slicerd exited before accepting connections: {status}");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("slicerd never became reachable at {endpoint}");
}

#[test]
fn kill_nine_then_restart_serves_identical_verifiable_results() {
    let dir = temp_dir("kill9");
    let socket = dir.join("slicerd.sock");
    let data = dir.join("data");
    let endpoint = Endpoint::Unix(socket.clone());

    // First life: ingest two batches, search, capture the digest.
    let mut child = spawn_daemon(&socket, &data);
    let mut client = connect_with_retry(&endpoint, &mut child);
    let (count, generation, _) = client.ingest(vec![(1, 10), (2, 20), (3, 30)]).unwrap();
    assert_eq!((count, generation), (3, 1));
    let (_, generation, _) = client.ingest(vec![(4, 40)]).unwrap();
    assert_eq!(generation, 2);

    let first = client.search(Query::less_than(25), 1_000).unwrap();
    assert!(first.verified);
    assert_eq!(first.ids, vec![1, 2]);
    let stat_before = client.stat().unwrap();
    assert!(stat_before.index_entries >= 4);

    // SIGKILL: no destructors, no flush — the crash the store is built for.
    child.kill().unwrap();
    child.wait().unwrap();

    // The flight recorder persisted at every request boundary, so even a
    // SIGKILL'd daemon leaves a decodable recording naming its recent
    // requests — here the stat that ran last, with its final outcome.
    let rec = FlightRecording::load(&data.join(FLIGHTREC_FILE))
        .expect("flight recording survives kill -9 and validates");
    assert!(!rec.requests.is_empty());
    assert!(
        rec.requests
            .iter()
            .any(|r| r.kind == "stat" && r.outcome == "ok"),
        "{:?}",
        rec.requests
    );
    assert!(rec.requests.iter().any(|r| r.kind == "search"));
    assert!(rec.in_flight().is_none(), "no request was mid-dispatch");

    // Second life: same data directory, fresh process.
    let mut child = spawn_daemon(&socket, &data);
    let mut client = connect_with_retry(&endpoint, &mut child);

    let stat_after = client.stat().unwrap();
    assert_eq!(
        stat_after.digest, stat_before.digest,
        "restored accumulator digest must be byte-identical"
    );
    assert_eq!(
        stat_after.index_entries, stat_before.index_entries,
        "restored index, not a rebuild"
    );
    assert_eq!(stat_after.generation, 2);

    let again = client.search(Query::less_than(25), 1_000).unwrap();
    assert!(
        again.verified,
        "restored state must serve verifiable results"
    );
    assert_eq!(again.ids, first.ids);

    let (chain_ok, height, digest) = client.verify().unwrap();
    assert!(chain_ok);
    assert!(height > 0);
    assert_eq!(digest, stat_before.digest);

    // The restored daemon keeps accepting writes.
    let (_, generation, _) = client.ingest(vec![(5, 50)]).unwrap();
    assert_eq!(generation, 3);
    let grown = client.search(Query::greater_than(35), 1_000).unwrap();
    assert!(grown.verified);
    let mut ids = grown.ids.clone();
    ids.sort_unstable();
    assert_eq!(ids, vec![4, 5]);

    client.shutdown().unwrap();
    let status = child.wait().unwrap();
    assert!(status.success(), "clean shutdown exit: {status}");
}

#[test]
fn cli_round_trip_against_a_live_daemon() {
    let dir = temp_dir("cli");
    let socket = dir.join("slicerd.sock");
    let data = dir.join("data");
    let endpoint = Endpoint::Unix(socket.clone());
    let connect = format!("unix://{}", socket.display());

    let mut child = spawn_daemon(&socket, &data);
    // The daemon serves connections sequentially: close the readiness
    // probe before the CLI subprocesses queue up behind it.
    drop(connect_with_retry(&endpoint, &mut child));

    let cli = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_slicer-cli"))
            .args(["--connect", &connect])
            .args(args)
            .output()
            .expect("run slicer-cli")
    };

    let out = cli(&["ingest", "1:10", "2:200"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("generation="));

    let out = cli(&["search", "gt", "100"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verified=true"), "{text}");
    assert!(text.contains("records=[2]"), "{text}");

    let out = cli(&["verify"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("chain_ok=true"));

    let out = cli(&["stat"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("generation=1"), "{text}");

    // Operations plane through the CLI: scrape, validate, tail, top.
    let out = cli(&["metrics"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("slicer_rpc_requests"), "{text}");
    assert!(text.contains("slicer_rpc_search_ns"), "{text}");

    let out = cli(&["metrics", "--check"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("metrics-check json=ok"), "{text}");
    assert!(text.contains("metrics-check prometheus=ok"), "{text}");

    let out = cli(&["tail", "50"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"target\":\"slicerd.boot\""), "{text}");

    let out = cli(&["top", "--interval-ms", "10"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("req/s"), "{text}");

    let out = cli(&["shutdown"]);
    assert!(out.status.success(), "{out:?}");
    let status = child.wait().unwrap();
    assert!(status.success(), "clean shutdown exit: {status}");

    // A clean shutdown stamps the recording; the offline decoder reads
    // it without a daemon and exits 0 (nothing was in flight).
    let out = Command::new(env!("CARGO_BIN_EXE_slicer-cli"))
        .args([
            "flightrec",
            &data.join(FLIGHTREC_FILE).display().to_string(),
        ])
        .output()
        .expect("run slicer-cli flightrec");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("reason=shutdown"), "{text}");
    assert!(text.contains("kind=ingest"), "{text}");
}

#[test]
fn oversize_frame_gets_a_clean_error_and_the_connection_survives() {
    use slicer_daemon::proto::{
        read_message, write_message, ReadOutcome, Request, RequestBody, Response, ResponseBody,
        MAX_FRAME_LEN,
    };
    let reply = |stream: &mut slicer_daemon::Stream| -> ResponseBody {
        match read_message::<Response>(stream).expect("framed reply, not a dropped connection") {
            ReadOutcome::Msg(response) => response.body,
            other => panic!("want a response frame, got {other:?}"),
        }
    };
    let stat = |stream: &mut slicer_daemon::Stream| {
        write_message(
            stream,
            &Request {
                trace_id: 9,
                body: RequestBody::Stat,
            },
        )
        .unwrap();
        let body = reply(stream);
        assert!(matches!(body, ResponseBody::Stats(_)), "{body:?}");
    };

    let dir = temp_dir("oversize");
    let socket = dir.join("slicerd.sock");
    let data = dir.join("data");
    let endpoint = Endpoint::Unix(socket.clone());

    let mut child = spawn_daemon(&socket, &data);
    drop(connect_with_retry(&endpoint, &mut child));

    // Hand-roll a frame whose length prefix exceeds the 64 MiB cap. The
    // daemon must drain it, answer with a framed error, and keep the
    // connection usable — not hang up.
    let declared = MAX_FRAME_LEN + 1;
    let mut stream = endpoint.connect().unwrap();
    stream.write_all(&declared.to_be_bytes()).unwrap();
    let chunk = vec![0u8; 1 << 20];
    let mut remaining = declared as usize;
    while remaining > 0 {
        let n = remaining.min(chunk.len());
        stream.write_all(&chunk[..n]).unwrap();
        remaining -= n;
    }
    stream.flush().unwrap();

    let body = reply(&mut stream);
    assert!(
        matches!(&body, ResponseBody::Error(msg) if msg.contains("frame too large")),
        "{body:?}"
    );
    // Same connection, well-formed request: still served.
    stat(&mut stream);

    // A well-framed payload that is no request: the same error path.
    stream.write_all(&[0, 0, 0, 3, 0xFF, 0xFF, 0xFF]).unwrap();
    let body = reply(&mut stream);
    assert!(
        matches!(&body, ResponseBody::Error(msg) if msg.contains("undecodable request")),
        "{body:?}"
    );
    stat(&mut stream);
    // The daemon serves sequentially: close this connection before the
    // metrics client queues up behind it.
    drop(stream);

    // Both rejections landed in the error taxonomy.
    let mut client = DaemonClient::connect(&endpoint).unwrap();
    let metrics = client.metrics().unwrap();
    let counter = |name: &str| {
        metrics
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    assert_eq!(counter("rpc.error.oversize"), 1, "{:?}", metrics.counters);
    assert_eq!(counter("rpc.error.decode"), 1, "{:?}", metrics.counters);

    client.shutdown().unwrap();
    child.wait().unwrap();
}
