#!/usr/bin/env bash
# Tier-1 verification: hermetic build + full test suite + formatting.
#
# The workspace has zero external dependencies (every workspace dependency
# is a path crate), so everything below runs with --offline from a clean
# checkout — no network, no registry cache.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo clippy --offline -D warnings (workspace lints)"
# perfbench/ is its own workspace and stays outside this gate.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo bench --no-run --offline (bench targets compile)"
# `cargo test` skips bench targets, so a bench still calling a deleted API
# would otherwise rot unnoticed.
cargo bench --no-run --offline --workspace

echo "==> slicer-lint --check --strict --format json (static-analysis ratchet)"
# Strict mode fails when the baseline is stale (counts shrank without
# --update-baseline), not just when they grew — the ratchet file in the
# repo must always match reality. The JSON report is the CI artifact;
# surface the status line for humans either way.
lint_out="$(cargo run -q --release --offline -p slicer-lint -- \
  --check --strict --format json)" || {
  echo "$lint_out"
  echo "slicer-lint FAILED: ratchet violation or stale baseline (see report above)" >&2
  exit 1
}
grep -q '"status":"ok"' <<<"$lint_out" || {
  echo "$lint_out"
  echo "slicer-lint FAILED: report status is not ok" >&2
  exit 1
}
echo "slicer-lint OK (strict ratchet holds)"

echo "==> cargo test -q --offline (SLICER_THREADS=1)"
SLICER_THREADS=1 cargo test -q --offline --workspace --release

echo "==> cargo test -q --offline (SLICER_THREADS=4)"
SLICER_THREADS=4 cargo test -q --offline --workspace --release

echo "==> decoders under a 4 GiB address-space cap (ulimit -v)"
# Overcommit lets a huge Vec::with_capacity from a hostile length or
# count field pass by luck. Under the cap the same allocation aborts, so
# the calldata, codec and wire-frame decoder tests fail here
# deterministically.
# Runs the test binaries the stage above built; cargo itself stays
# outside the cap.
capped_bins=()
for target in "-p slicer-repro --test chain_adversarial" "-p slicer-chain --test calldata_decode" \
  "-p slicer-daemon --test decode_props" "-p slicer-daemon --lib"; do
  # Test binaries live under deps/; an integration test of a package with
  # binaries (slicer-daemon) also reports those, which are not tests.
  # shellcheck disable=SC2086
  bin="$(cargo test -q --offline --release --no-run --message-format=json $target |
    grep -o '"executable":"[^"]*/deps/[^"]*"' | cut -d'"' -f4)"
  [ -x "$bin" ] || {
    echo "memory-cap stage FAILED: no test binary for $target" >&2
    exit 1
  }
  capped_bins+=("$bin")
done
(
  ulimit -v 4194304
  for bin in "${capped_bins[@]}"; do
    "$bin" -q
  done
) || {
  echo "memory-cap stage FAILED: a decoder test failed or aborted under ulimit -v" >&2
  exit 1
}
echo "memory-cap stage OK"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc (intra-doc links must resolve)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
  cargo doc --workspace --no-deps --offline

echo "==> pool determinism (bench counters agree across SLICER_THREADS)"
# The slicer-par contract: worker count is a throughput knob, never a
# semantic one. Run the telemetry experiment single-threaded and
# four-threaded and require the non-timing metrics (the "counters"
# section of both bench transcripts) to agree byte-for-byte. Timing
# histograms legitimately differ; everything the protocol counts must not.
bench_tmp="$(mktemp -d)"
trap 'rm -rf "$bench_tmp"' EXIT
# Fingerprint the committed baselines: the gate below must read them as
# committed, whatever the runs here write.
sha256sum BENCH_build.json BENCH_search.json >"$bench_tmp/baselines.sha256"
for threads in 1 4; do
  mkdir -p "$bench_tmp/t$threads"
  SLICER_THREADS=$threads cargo run -q --release --offline -p slicer-bench \
    --bin repro -- --experiment telemetry --scale 0.01 --queries 2 \
    --csv "$bench_tmp/t$threads" >/dev/null
done
for f in BENCH_build.json BENCH_search.json; do
  sed -n '/"counters"/,/}/p' "$bench_tmp/t1/$f" >"$bench_tmp/c1"
  sed -n '/"counters"/,/}/p' "$bench_tmp/t4/$f" >"$bench_tmp/c4"
  if ! diff -u "$bench_tmp/c1" "$bench_tmp/c4"; then
    echo "pool determinism FAILED: $f counters differ between SLICER_THREADS=1 and 4" >&2
    exit 1
  fi
  grep -q '"counters"' "$bench_tmp/c1" || {
    echo "pool determinism FAILED: no counters section extracted from $f" >&2
    exit 1
  }
done
echo "pool determinism OK"

echo "==> bench-diff regression gate (counters vs committed baselines)"
# The committed BENCH_*.json at the repo root are the performance
# baselines. Every counter and gauge in them is machine- and
# thread-invariant (the pool-determinism stage above proves thread
# invariance), so the gate demands exact agreement on those, while
# timing metrics (.ns / .iters) stay informational unless a tolerance
# is supplied. Reuses the single-threaded transcripts generated above.
sha256sum -c --quiet "$bench_tmp/baselines.sha256" || {
  echo "bench-diff gate FAILED: a committed baseline changed during the run" >&2
  exit 1
}
for f in BENCH_build.json BENCH_search.json; do
  if ! ./target/release/slicer-cli bench-diff "$f" "$bench_tmp/t1/$f"; then
    echo "bench-diff gate FAILED: $f drifted from the committed baseline" >&2
    echo "  (intentional protocol change? regenerate the baseline with" >&2
    echo "   cargo run --release -p slicer-bench --bin repro -- \\" >&2
    echo "     --experiment telemetry --scale 0.01 --queries 2 --csv .)" >&2
    exit 1
  fi
done
# Negative self-test: the gate has to actually bite. Inject a gas
# regression into a copy of the candidate and require bench-diff to
# reject it with a non-zero exit.
sed 's/"phase.verify.gas": \([0-9]*\)/"phase.verify.gas": 9\1/' \
  "$bench_tmp/t1/BENCH_search.json" >"$bench_tmp/regressed.json"
if cmp -s "$bench_tmp/t1/BENCH_search.json" "$bench_tmp/regressed.json"; then
  echo "bench-diff gate FAILED: regression injection was a no-op" >&2
  exit 1
fi
if ./target/release/slicer-cli bench-diff BENCH_search.json \
  "$bench_tmp/regressed.json" >/dev/null; then
  echo "bench-diff gate FAILED: injected regression was not detected" >&2
  exit 1
fi
echo "bench-diff gate OK (clean inputs pass, injected regression fails)"

echo "==> Table II (committed results/table2.csv equals a fresh run)"
# Table II is gas only, and gas is deterministic: the committed CSV must
# match a fresh run byte for byte. To regenerate it on purpose, run the
# same command with --csv results.
mkdir -p "$bench_tmp/table2"
cargo run -q --release --offline -p slicer-bench --bin repro -- \
  --experiment table2 --csv "$bench_tmp/table2" >/dev/null
if ! cmp -s results/table2.csv "$bench_tmp/table2/table2.csv"; then
  echo "Table II FAILED: results/table2.csv differs from a fresh run" >&2
  diff -u results/table2.csv "$bench_tmp/table2/table2.csv" >&2 || true
  exit 1
fi
echo "Table II OK"

echo "==> examples (every examples/*.rs runs to a zero exit)"
# Each example asserts its own flow (oracle matches, verified results);
# those asserts only fire when the binary runs. With no arguments no
# example writes a file.
# Every `--example X` the docs name must exist as examples/X.rs, so a
# deleted or renamed example cannot leave a dead command behind.
for name in $(grep -oh -- '--example [A-Za-z0-9_]*' README.md DESIGN.md EXPERIMENTS.md |
  cut -d' ' -f2 | sort -u); do
  [ -f "examples/$name.rs" ] || {
    echo "examples FAILED: the docs name --example $name but examples/$name.rs does not exist" >&2
    exit 1
  }
done
cargo build -q --release --offline --examples
for src in examples/*.rs; do
  name="$(basename "$src" .rs)"
  if ! "./target/release/examples/$name" >/dev/null; then
    echo "examples FAILED: $name exited non-zero" >&2
    exit 1
  fi
done
echo "examples OK"

echo "==> telemetry smoke (protocol_trace phase profile + JSON export)"
trace_out="$(cargo run -q --release --offline --example protocol_trace)"
for phase in setup build token search verify settle; do
  if ! grep -q "slicer_phase_${phase}_gas" <<<"$trace_out"; then
    echo "telemetry smoke FAILED: phase '${phase}' missing from the export" >&2
    exit 1
  fi
done
# The example validates its own JSON export (slicer_telemetry::json::parse)
# and prints this marker only if parsing succeeded with all six phases.
grep -q "TELEMETRY JSON OK" <<<"$trace_out" || {
  echo "telemetry smoke FAILED: JSON export did not validate" >&2
  exit 1
}
# The Chrome trace-event export round-trips through the in-crate RFC 8259
# parser and the six protocol phases are verified as parent spans.
grep -q "CHROME TRACE OK" <<<"$trace_out" || {
  echo "telemetry smoke FAILED: Chrome trace export did not validate" >&2
  exit 1
}
# The LeakageAuditor re-derives the access pattern from span attributes
# and matches it against the declared Theorem 2 profiles.
grep -q "LEAKAGE AUDIT OK" <<<"$trace_out" || {
  echo "telemetry smoke FAILED: leakage audit did not pass" >&2
  exit 1
}
# README quotes this run's phase table. Gas is deterministic, so its gas
# column must equal the run's exactly; wall times vary and are not compared.
phase_gas() {
  awk '/^phase +wall \(mean\) +gas$/ { on = 1; next }
    on && NF == 4 && $1 ~ /^(setup|build|token|search|verify|settle)$/ { print $1, $NF; next }
    on { exit }'
}
readme_gas="$(phase_gas <README.md)"
trace_gas="$(phase_gas <<<"$trace_out")"
if [ "$(wc -l <<<"$trace_gas")" -ne 6 ] || [ "$readme_gas" != "$trace_gas" ]; then
  echo "telemetry smoke FAILED: README's protocol_trace gas column differs from this run" >&2
  diff <(echo "$readme_gas") <(echo "$trace_gas") >&2 || true
  exit 1
fi
echo "telemetry smoke OK"

echo "==> slicerd smoke (kill -9 crash/restart, byte-identical digest, no rebuild)"
# Boot a daemon on a temp Unix socket, ingest + search + verify through
# the CLI, SIGKILL it mid-flight, restart on the same data directory and
# require (a) the accumulator digest to be byte-identical and (b) the
# restored index to keep serving verifiable searches — the durability
# contract of crates/persist + crates/daemon, end to end over real
# processes.
smoke_tmp="$(mktemp -d)"
slicerd_pid=""
cleanup_smoke() {
  if [ -n "$slicerd_pid" ]; then kill -9 "$slicerd_pid" 2>/dev/null || true; fi
  rm -rf "$smoke_tmp"
}
trap 'cleanup_smoke; rm -rf "$bench_tmp"' EXIT
sock="$smoke_tmp/slicerd.sock"
cli() { ./target/release/slicer-cli --connect "unix://$sock" "$@"; }
wait_ready() {
  for _ in $(seq 1 200); do
    if cli stat >/dev/null 2>&1; then return 0; fi
    sleep 0.05
  done
  echo "slicerd smoke FAILED: daemon never became reachable" >&2
  exit 1
}

./target/release/slicerd --listen "unix://$sock" --data "$smoke_tmp/data" \
  --seed 11 --bits 8 >/dev/null &
slicerd_pid=$!
wait_ready
cli ingest 1:10 2:20 3:30 >/dev/null
cli search lt 25 | grep -q "verified=true" || {
  echo "slicerd smoke FAILED: first-life search not verified" >&2
  exit 1
}
cli verify | grep -q "chain_ok=true" || {
  echo "slicerd smoke FAILED: chain verification failed" >&2
  exit 1
}
digest_before="$(cli stat | grep -o 'digest=[0-9a-f]*')"

kill -9 "$slicerd_pid"
wait "$slicerd_pid" 2>/dev/null || true

./target/release/slicerd --listen "unix://$sock" --data "$smoke_tmp/data" >/dev/null &
slicerd_pid=$!
wait_ready
digest_after="$(cli stat | grep -o 'digest=[0-9a-f]*')"
if [ -z "$digest_before" ] || [ "$digest_before" != "$digest_after" ]; then
  echo "slicerd smoke FAILED: digest diverged across kill -9 restart" >&2
  echo "  before: $digest_before" >&2
  echo "  after:  $digest_after" >&2
  exit 1
fi
cli search lt 25 | grep -q "verified=true" || {
  echo "slicerd smoke FAILED: restored search not verified" >&2
  exit 1
}

# Delta commits: single-record ingests on the restored state persist as
# one small delta segment each. Five of them, then kill -9: the restart
# must land on the last one (identical digest, every record searchable)
# and the data directory may grow by at most 64 KB per ingest.
data_bytes() { du -sb "$smoke_tmp/data" | cut -f1; }
index_hits() { cli metrics | awk '$1 == "slicer_cloud_index_hits" { print $2 }'; }
records_of() { grep -o 'records=\[[^]]*\]' <<<"$1"; }
bytes_before="$(data_bytes)"
# A `search gt 200` after each ingest: the keywords of `gt 200` first
# appear with these records and then gain one generation at a time, so
# over the wire the searches walk a keyword afresh, repeat a kept answer
# exactly, and join one (walk only the generation an ingest added).
for i in 1 2 3 4 5; do
  cli ingest "$((100 + i)):$((200 + i))" >/dev/null
  hits_before="$(index_hits)"
  joined_search="$(cli search gt 200)"
  grep -q "verified=true" <<<"$joined_search" || {
    echo "slicerd smoke FAILED: search between the delta ingests not verified" >&2
    exit 1
  }
done
joined_hits=$(($(index_hits) - ${hits_before:-0}))
growth=$(($(data_bytes) - bytes_before))
if [ "$growth" -gt $((5 * 64 * 1024)) ]; then
  echo "slicerd smoke FAILED: 5 single-record ingests grew the data directory by $growth bytes" >&2
  exit 1
fi
# The prover the restored cloud built for its first search catches up
# with the five deltas instead of being rebuilt. A rebuild costs a cold
# build per search, yet its witnesses still verify, so only this counter
# shows a prover check that fires wrongly.
smoke_metrics="$(cli metrics)"
grep -q "^slicer_cloud_witnesses_generated [1-9]" <<<"$smoke_metrics" || {
  echo "slicerd smoke FAILED: no witnesses counted in the metrics scrape" >&2
  exit 1
}
if grep -E "^slicer_cloud_prover_rebuilds [1-9]" <<<"$smoke_metrics"; then
  echo "slicerd smoke FAILED: the cloud rebuilt its prover" >&2
  exit 1
fi
# An immediately repeated search is served whole from kept answers: it
# looks nothing up in the index.
hits_before="$(index_hits)"
cli search gt 200 | grep -q "verified=true" || {
  echo "slicerd smoke FAILED: repeated search not verified" >&2
  exit 1
}
if [ -z "$hits_before" ] || [ "$(index_hits)" != "$hits_before" ]; then
  echo "slicerd smoke FAILED: a repeated search looked up the index ($hits_before -> $(index_hits) hits)" >&2
  exit 1
fi
digest_before="$(cli stat | grep -o 'digest=[0-9a-f]*')"
kill -9 "$slicerd_pid"
wait "$slicerd_pid" 2>/dev/null || true
./target/release/slicerd --listen "unix://$sock" --data "$smoke_tmp/data" >/dev/null &
slicerd_pid=$!
wait_ready
digest_after="$(cli stat | grep -o 'digest=[0-9a-f]*')"
if [ -z "$digest_before" ] || [ "$digest_before" != "$digest_after" ]; then
  echo "slicerd smoke FAILED: digest diverged across kill -9 after delta commits" >&2
  echo "  before: $digest_before" >&2
  echo "  after:  $digest_after" >&2
  exit 1
fi
delta_search="$(cli search gt 200)" || {
  echo "slicerd smoke FAILED: search over delta-committed records not verified" >&2
  exit 1
}
for id in 101 102 103 104 105; do
  grep -Eq "records=\[([0-9]+,)*$id(,[0-9]+)*\]" <<<"$delta_search" || {
    echo "slicerd smoke FAILED: record $id lost across kill -9: $delta_search" >&2
    exit 1
  }
done
# The restored cloud keeps no answers, so this search walked every
# generation. The answer built from kept answers before the kill must
# name the same records in the same order, with fewer index hits.
if [ "$(records_of "$joined_search")" != "$(records_of "$delta_search")" ]; then
  echo "slicerd smoke FAILED: the joined answer differs from the restored cloud's full walk" >&2
  echo "  joined:   $joined_search" >&2
  echo "  restored: $delta_search" >&2
  exit 1
fi
cold_hits="$(index_hits)"
if [ -z "$cold_hits" ] || [ "$joined_hits" -ge "$cold_hits" ]; then
  echo "slicerd smoke FAILED: the last search between the ingests walked $joined_hits entries, a full walk $cold_hits" >&2
  exit 1
fi
cli shutdown >/dev/null
wait "$slicerd_pid"
slicerd_pid=""
echo "slicerd smoke OK"

echo "==> perfbench self-test (every benchmark workload end to end against slicerd)"
# Smoke-sized runs of each BENCHMARK.json workload over the wire, traced
# and untraced: every search is checked against a plaintext oracle and
# must verify on chain, and the daemon's digest must equal an in-process
# replay's. A wrong witness from the serving path fails here, not only
# as a benchmark regression.
python3 perfbench/run.py --self-test

echo "==> observability smoke (metrics scrape + tail + crash flight recorder)"
# Boot a daemon, drive traffic, scrape the Metrics surface and validate
# both exports (the CLI runs the in-crate RFC 8259 parser over the JSON
# and shape-checks the Prometheus text), read the log ring via tail, then
# SIGKILL the daemon mid-ingest and require a checksum-valid flight
# recorder segment on disk naming the in-flight request.
obs_tmp="$(mktemp -d)"
obs_pid=""
cleanup_obs() {
  if [ -n "$obs_pid" ]; then kill -9 "$obs_pid" 2>/dev/null || true; fi
  rm -rf "$obs_tmp"
}
trap 'cleanup_obs; cleanup_smoke; rm -rf "$bench_tmp"' EXIT
osock="$obs_tmp/slicerd.sock"
ocli() { ./target/release/slicer-cli --connect "unix://$osock" "$@"; }
owait_ready() {
  for _ in $(seq 1 200); do
    if ocli stat >/dev/null 2>&1; then return 0; fi
    sleep 0.05
  done
  echo "observability smoke FAILED: daemon never became reachable" >&2
  exit 1
}

./target/release/slicerd --listen "unix://$osock" --data "$obs_tmp/data" \
  --seed 11 --bits 8 >/dev/null 2>&1 &
obs_pid=$!
owait_ready
ocli ingest 1:10 2:20 3:30 >/dev/null
ocli search lt 25 >/dev/null
# The prover reports through the cloud's handle, so the daemon's profile
# shows witness generation under cloud.prove.
grep -q "cloud.prove;accumulator.witness" <<<"$(ocli profile)" || {
  echo "observability smoke FAILED: prover spans missing from the profile" >&2
  exit 1
}

ocli metrics | grep -q "slicer_rpc_search_ns" || {
  echo "observability smoke FAILED: search histogram missing from scrape" >&2
  exit 1
}
check_out="$(ocli metrics --check)" || {
  echo "observability smoke FAILED: metrics --check rejected an export" >&2
  echo "$check_out" >&2
  exit 1
}
grep -q "metrics-check json=ok" <<<"$check_out" || {
  echo "observability smoke FAILED: JSON export did not validate" >&2
  exit 1
}
grep -q "metrics-check prometheus=ok" <<<"$check_out" || {
  echo "observability smoke FAILED: Prometheus export did not validate" >&2
  exit 1
}
# The first ingest is the store's first commit, so it writes a base.
grep -q "metrics-check persist commits_base=1 commits_delta=0" <<<"$check_out" || {
  echo "observability smoke FAILED: persist commit counters missing from the scrape" >&2
  echo "$check_out" >&2
  exit 1
}
ocli tail 50 | grep -q '"target":"slicerd.boot"' || {
  echo "observability smoke FAILED: boot record missing from tail" >&2
  exit 1
}

# Profiling plane: the live Profile RPC's totals must reconcile with the
# metrics surface — wall root within the rpc.*.ns histogram sums, gas
# total exactly equal to the phase.*.gas counters (slicerd never
# double-counts chain spans) — and it must render an SVG flamegraph.
prof_out="$(ocli profile --check)" || {
  echo "observability smoke FAILED: profile --check rejected the profile plane" >&2
  echo "$prof_out" >&2
  exit 1
}
for marker in "profile-check wall=ok" "profile-check gas=ok"; do
  grep -q "$marker" <<<"$prof_out" || {
    echo "observability smoke FAILED: missing '$marker' in profile --check" >&2
    echo "$prof_out" >&2
    exit 1
  }
done
ocli profile --svg | grep -q "</svg>" || {
  echo "observability smoke FAILED: profile --svg did not render a document" >&2
  exit 1
}
ocli profile --gas | grep -q "daemon.request" || {
  echo "observability smoke FAILED: gas profile missing the request root" >&2
  exit 1
}

# kill -9 mid-ingest. The recorder persists an in-flight entry at request
# start (into the older of two slots, so a concurrent read always finds
# the other slot whole), so the script polls the on-disk recording and pulls the
# trigger the moment the ingest shows up mid-dispatch. A large batch
# keeps the request in flight for hundreds of milliseconds — far wider
# than the poll interval — but retry with a bigger one just in case.
in_flight_ok=""
base_id=1000
for n in 2700 8000; do
  batch=""
  for i in $(seq "$base_id" $((base_id + n))); do
    batch="$batch $i:$((i % 256))"
  done
  base_id=$((base_id + n + 1))
  # shellcheck disable=SC2086
  ocli ingest $batch >/dev/null 2>&1 &
  ingest_pid=$!
  for _ in $(seq 1 400); do
    # The decoder exits 1 when something is in flight; under pipefail
    # that would mask grep's verdict, so fold it to 0 inside the pipe.
    if { ./target/release/slicer-cli flightrec "$obs_tmp/data/flightrec.slc" 2>/dev/null || true; } \
      | grep -q "kind=ingest .*outcome=in-flight"; then
      break
    fi
    sleep 0.01
  done
  kill -9 "$obs_pid" 2>/dev/null || true
  wait "$obs_pid" 2>/dev/null || true
  wait "$ingest_pid" 2>/dev/null || true
  obs_pid=""
  # Exit 1 here means "in-flight request found" — exactly what we want.
  rec_out="$(./target/release/slicer-cli flightrec "$obs_tmp/data/flightrec.slc")" || true
  if grep -q "kind=ingest .*outcome=in-flight" <<<"$rec_out"; then
    in_flight_ok=yes
    break
  fi
  ./target/release/slicerd --listen "unix://$osock" --data "$obs_tmp/data" >/dev/null 2>&1 &
  obs_pid=$!
  owait_ready
done
if [ -z "$in_flight_ok" ]; then
  echo "observability smoke FAILED: no in-flight ingest in the flight recording" >&2
  echo "$rec_out" >&2
  exit 1
fi
# The post-mortem profile survives the kill too, and the recording is
# bounded by its request ring (64 entries), not by how much was logged.
grep -q -- "--- wall profile (folded) ---" <<<"$rec_out" || {
  echo "observability smoke FAILED: wall profile missing from the flight recording" >&2
  echo "$rec_out" >&2
  exit 1
}
rec_bytes="$(wc -c <"$obs_tmp/data/flightrec.slc")"
if [ "$rec_bytes" -ge 16384 ]; then
  echo "observability smoke FAILED: flightrec.slc is $rec_bytes B, want < 16 KiB" >&2
  exit 1
fi
echo "observability smoke OK"

echo "CI OK"
