#!/usr/bin/env python3
"""Smoke test for the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at toy size (--toy --seconds 1), once
timed and once traced, and checks the output contract: the last stdout line
is one JSON object with exactly correct/attempted/failed/metrics, the run is
correct with nothing failed, and every end_to_end (timed) or per_layer
(traced) metric is emitted with its declared unit. Traced runs must measure
every layer that runs on the workload. Finally it checks that the benchmark
refuses to run, without printing a result, in a directory holding only
BENCHMARK.json and the benchmark's own files. Exit code 0 when all pass.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SERVE_ONLY = {"serve.exec_ms_p50", "serve.overhead_ms_p50", "serve.ping_rtt_us_p50"}
CACHE = {"sim.codebook_cache.hit_rate", "sim.codebook_cache.builds"}


def expected_not_run(workload, per_layer):
    """Per-layer metrics whose layer does not run on `workload`."""
    if workload == "serve_mixed":
        return set(per_layer) - SERVE_ONLY - CACHE
    if workload == "ring64k_sharded":
        return set(SERVE_ONLY)
    return SERVE_ONLY | {"graph.partition_ms"}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_run(bench, workload, trace):
    label = f"{workload} --trace {trace}"
    done = run([os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
                "--seconds", "1", "--trace", str(trace), "--toy"])
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted={result.get('attempted')}")
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        errors.append(f"{label}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{label}: {m['name']} emitted as {got}")
    if trace:
        prefix = "per-layer metrics whose layer does not run on this workload"
        not_run = set()
        for line in lines:
            if line.startswith(prefix):
                not_run = {name.strip() for name in line.split(":", 1)[1].split(",")}
        expected = expected_not_run(workload, [m["name"] for m in wanted])
        if not_run != expected:
            errors.append(f"{label}: layers not measured {sorted(not_run)}, "
                          f"expected {sorted(expected)}")
    return errors


def check_refuses_without_sources():
    isolated = os.path.join(ROOT, ".bench_build", "smoke-isolated")
    shutil.rmtree(isolated, ignore_errors=True)
    os.makedirs(isolated)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        shutil.copytree(HERE, os.path.join(isolated, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run([os.path.join("perfbench", "run.py"), "--workload", "serve_mixed",
                    "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=isolated)
    finally:
        shutil.rmtree(isolated, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return ["the benchmark ran without the repository sources"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            found = check_run(bench, workload, trace)
            print(f"{'FAIL' if found else 'ok  '} {workload} --trace {trace}")
            errors += found
    found = check_refuses_without_sources()
    print(f"{'FAIL' if found else 'ok  '} refuses to run without the repository sources")
    errors += found
    for error in errors:
        print(f"  {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
