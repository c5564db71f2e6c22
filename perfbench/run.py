#!/usr/bin/env python3
"""Builds slicerd and the perfbench driver from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --steady <name> [--runs 10] [--first-seed 1] [--seconds <s>]
    python3 perfbench/run.py --self-test

The first form prints a human-readable report and, as its last line, one
JSON object with the metrics `BENCHMARK.json` names (end-to-end ones with
`--trace 0`, per-layer ones with `--trace 1`). `--steady` runs a workload
once per seed and prints each end-to-end metric's median, quartiles and
spread next to its bound. `--self-test` runs the driver's unit tests and a
smoke-sized run of every workload, traced and untraced.

Build products go to `$CARGO_TARGET_DIR` (default `.bench_build`).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["search_uniform", "ingest_mixed"]
# Upper bound on one run after building, so a hung daemon cannot stall
# the caller; a traced run at --seconds 30 takes about 90 s.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    # Cargo resolves a relative CARGO_TARGET_DIR against its working
    # directory; resolve it against ours so the binaries are found.
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve()


def cargo(*args):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    done = subprocess.run(["cargo", *args, "--release", "--offline"], cwd=ROOT, env=env,
                          stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"cargo {' '.join(args)} failed with exit code {done.returncode}")


def build():
    for needed in ["Cargo.toml", "crates/daemon/Cargo.toml", "perfbench/Cargo.toml"]:
        if not (ROOT / needed).is_file():
            fail(f"{needed} is missing: run from a full checkout of the repository")
    cargo("build", "--quiet", "-p", "slicer-daemon", "--bin", "slicerd")
    cargo("build", "--quiet", "--manifest-path", "perfbench/Cargo.toml")
    release = target_dir() / "release"
    return release / "perfbench", release / "slicerd"


def drive(binaries, workload, seed, seconds, trace, smoke=False, echo=True):
    """Runs the driver once; returns (exit code, stdout lines)."""
    perfbench, slicerd = binaries
    workdir = target_dir() / "perfbench-runs" / f"{workload}-{os.getpid()}"
    # Relative paths keep the daemon's socket path short.
    cmd = [str(perfbench), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--slicerd", os.path.relpath(slicerd, ROOT),
           "--workdir", os.path.relpath(workdir, ROOT)]
    if smoke:
        cmd.append("--smoke")
    # The driver, its reference loop and every slicerd it starts share one
    # CPU: the host slows each CPU of this shared machine on its own, and
    # the reference loop can only track the speed of the CPU it runs on.
    cpu = max(os.sched_getaffinity(0))
    # A session of its own, so a timeout can stop the driver and every
    # slicerd it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, out.splitlines()


def result(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def steady(binaries, workload, runs, first_seed, seconds):
    spec = benchmark_spec()
    seconds = seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    for i in range(runs):
        seed = first_seed + i
        code, lines = drive(binaries, workload, seed, seconds, 0, echo=False)
        res = result(lines)
        if code != 0 or res is None or not res["correct"]:
            print("\n".join(lines[-5:]))
            fail(f"{workload} seed {seed} failed (exit {code})")
        row = []
        for m in metrics:
            value = res["metrics"][m["name"]]["value"]
            values[m["name"]].append(value)
            row.append(f"{m['name']}={value:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    print(f"\n{workload}: {runs} runs of {seconds} s, seeds {first_seed}..{first_seed + runs - 1}")
    print(f"{'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}{'bound/3':>9}")
    worst = "steady"
    for m in metrics:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        bound = m["bound"]
        if spread >= bound / 3:
            verdict = "wide" if spread <= bound else "TOO WIDE"
            if m["name"] != "setup_s":
                worst = "not steady"
        else:
            verdict = ""
        print(f"{m['name']:<24}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
              f"{bound:>8.3f}{bound / 3:>9.4f}  {verdict}")
    print(f"verdict: {worst} (spread must stay below a third of each bound; "
          "setup_s spread is not gated)")


def self_test(binaries):
    cargo("test", "--quiet", "--manifest-path", "perfbench/Cargo.toml")
    spec = benchmark_spec()
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        fail("BENCHMARK.json lists other workloads than run.py")
    for workload in WORKLOADS:
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            code, lines = drive(binaries, workload, 1, 1, trace, smoke=True, echo=False)
            res = result(lines)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()} if res else None
            if code != 0 or res is None or not res["correct"] or res["failed"] != 0:
                print("\n".join(lines))
                fail(f"smoke {workload} trace={trace} failed (exit {code})")
            if got != want:
                fail(f"smoke {workload} trace={trace} metrics {sorted(got)} != {sorted(want)}")
            print(f"smoke {workload} trace={trace}: ok, {res['attempted']} operations")
    print("self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--steady", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        self_test(build())
    elif args.steady:
        steady(build(), args.steady, args.runs, args.first_seed, args.seconds)
    elif None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    else:
        code, _ = drive(build(), args.workload, args.seed, args.seconds, args.trace)
        sys.exit(code)


if __name__ == "__main__":
    main()
