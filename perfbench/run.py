#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
                                 [--toy]

Builds the library and the two benchmark binaries from source into .bench_build/ at the
repository root (Release; the first run pays the build), runs the workload in
a fresh process -- nbbench_timed for the end-to-end metrics (--trace 0),
nbbench_traced for the per-layer metrics (--trace 1) -- checks its outputs,
prints a human-readable report, and prints as its last line one JSON object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {name: {value, unit}}}

with exactly the end_to_end (or per_layer) metrics named in BENCHMARK.json.
A per-layer metric whose layer does not run on the workload reads 0 and is
listed as such. Exit code 0 on success; 1 on a build, run or correctness
failure (no JSON line then); 2 on usage errors.

--workload all runs every workload of BENCHMARK.json in turn, each through
its own invocation (so each in a fresh process), and exits non-zero if any
of them fails.

--toy shrinks every workload to smoke-test size (perfbench/smoke_test.py).
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    # BENCHMARK.json sits at the repository root; without it (or without the
    # sources next to this directory) there is nothing to measure.
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configure (once) and build the binaries; returns their directory."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(1, deadline - time.monotonic()))
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {' '.join(step)} failed: {e}")
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build step {' '.join(step)} exited {done.returncode} (log: {log_path})")
    return BUILD


def git_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat, or None where unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return None


def run_binary(binary, args):
    work_dir = os.path.join(BUILD, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        done = subprocess.run([binary, *args, "--work-dir", os.path.relpath(work_dir)],
                              capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{os.path.basename(binary)} did not complete: {e}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{os.path.basename(binary)} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{os.path.basename(binary)} printed no report")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args()

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload == "all":
        status = 0
        for name in names:
            forwarded = [a if a != "all" else name for a in sys.argv[1:]]
            status = max(status, subprocess.run([sys.executable, __file__, *forwarded]).returncode)
        sys.exit(status)
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r} (have: {', '.join(names)})",
              file=sys.stderr)
        sys.exit(2)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        sys.exit(2)
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no repository sources at {ROOT}")

    build_dir = build()
    binary = os.path.join(build_dir, "nbbench_traced" if args.trace else "nbbench_timed")
    binary_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(seconds)]
    if args.toy:
        binary_args.append("--toy")
    ticks_before = cpu_ticks()
    report = run_binary(binary, binary_args)
    ticks_after = cpu_ticks()

    host = dict(report["host"], git_commit=git_commit())
    if host["build_type"] != "Release" or not host["ndebug"]:
        fail(f"refusing to report a {host['build_type']} build (NDEBUG={host['ndebug']})")

    correct = bool(report["correct"])
    if report["digest"]:
        with open(os.path.join(HERE, "golden.json")) as f:
            golden = json.load(f)
        pinned = golden["digests"].get(args.workload)
        if args.seed == golden["seed"] and not args.toy and pinned is not None:
            if report["digest"] != pinned:
                fail(f"deliveries digest {report['digest']} != pinned {pinned} "
                     f"for {args.workload} at seed {args.seed}")
            digest_note = f"{report['digest']} (matches the pinned digest)"
        else:
            digest_note = f"{report['digest']} (not pinned for this seed; ground truth only)"
    else:
        digest_note = "n/a"

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    measured = report["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing and not args.trace:
        fail(f"{os.path.basename(binary)} did not measure {', '.join(missing)}")
    for m in wanted:
        if m["name"] in measured and measured[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']} measured in {measured[m['name']]['unit']}, declared {m['unit']}")

    mode = "traced (per-layer)" if args.trace else "timed (end-to-end)"
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {seconds}  run: {mode}")
    print("host: " + json.dumps(host, sort_keys=True))
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        # Time the hypervisor ran someone else on this machine's CPUs: a run
        # with a large share here was measured on a contended host.
        steal = (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1])
        print(f"note: host CPU steal during the run: {steal:.1%}")
    for note in report["notes"]:
        print(f"note: {note}")
    print(f"deliveries digest: {digest_note}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"attempted: {attempted}  failed: {failed}  "
          f"failed_frac: {failed / attempted if attempted else 0.0:.6g}")
    for name, m in measured.items():
        print(f"  {name:52s} {m['value']:14.6g} {m['unit']:6s} (n={m['samples']})")
    if not args.trace:
        # The end-to-end metrics under the names the workload's users know.
        serve = args.workload == "serve_mixed"
        aliases = {"throughput_per_s": "jobs_per_s" if serve else "rounds_per_s",
                   "latency_ms_p50": "job_latency_ms_p50" if serve else "round_latency_ms_p50",
                   "latency_ms_p90": "job_latency_ms_p90" if serve else "round_latency_ms_p90"}
        for name, alias in aliases.items():
            m = measured[name]
            print(f"  {alias:52s} {m['value']:14.6g} {m['unit']:6s} (n={m['samples']})")
    if missing:
        print("per-layer metrics whose layer does not run on this workload (reported as 0): "
              + ", ".join(missing))

    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": measured[m["name"]]["value"] if m["name"] in measured
                                else 0.0, "unit": m["unit"]} for m in wanted},
    }
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
