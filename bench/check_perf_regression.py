#!/usr/bin/env python3
"""Perf-smoke gate: compare a fresh BENCH_transport.json against the checked-in
baseline and fail on a batched-throughput regression.

CI runners and developer machines differ wildly in raw speed, so absolute
rounds/s are never compared. Instead both runs are normalized by their own
scalar n=256 batched throughput (the least SIMD- and memory-sensitive
configuration), and the regression threshold applies to the normalized
values. That catches the regressions this gate exists for — a slowdown
specific to the batched path, to large n, or to one kernel table — while
staying stable across machine generations. A perfectly uniform slowdown of
every configuration is invisible to this check by construction; that is the
price of a machine-portable gate (the absolute numbers are still archived
as artifacts for human eyes).

Configurations present in only one of the two files (e.g. no AVX-512 on the
runner) are skipped with a note. Steady-state allocation counts are an exact
gate: the zero-copy contract does not degrade gracefully.

A second, self-contained mode gates the sharded transport's scaling claims
on the E17 table, whose rows are keyed by (shards, threads): `--shard
BENCH_shard.json` checks that 4 shards at 4 threads run at least
--shard-speedup (default 2.0) times the serial (1 shard, 1 thread) rate, and
that one shard at 4 threads is no slower than at 1 thread. Both only mean
anything when the machine can actually run 4 workers, so they apply when the
recorded hardware_concurrency is >= 4; otherwise the gate just sanity-checks
that every rate is positive — same-machine self-comparison, so no baseline
file and no normalization anchor needed.

Usage: check_perf_regression.py CURRENT BASELINE [--threshold 0.30]
       check_perf_regression.py --shard BENCH_shard.json [--shard-speedup 2.0]
Exit status 0 = pass, 1 = regression or malformed input.
"""

import argparse
import json
import sys


def load_doc(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_results(doc, path):
    results = {}
    for row in doc.get("results", []):
        key = (row["n"], row["kernel"])
        results[key] = row
    if not results:
        raise ValueError(f"{path}: no results")
    return results


def cache_pressure_failures(doc):
    """Exact gate on the codebook cache block (absent in old baselines):
    byte-capacity evictions or oversize fallbacks mean the shipped workloads
    outgrew the cache budget — every affected transport construction pays a
    full rebuild, which the throughput rows only partially expose."""
    cache = doc.get("codebook_cache")
    if cache is None:
        return []
    failures = []
    for counter in ("evictions_capacity", "oversize_uncached"):
        value = cache.get(counter, 0)
        if value != 0:
            failures.append(f"codebook_cache.{counter}={value} (cache pressure; "
                            f"expected 0)")
    return failures


def reference_rate(results, path):
    # The normalization anchor. Every run includes the scalar table, and
    # n=256 fits comfortably in cache everywhere.
    row = results.get((256, "scalar"))
    if row is None:
        raise ValueError(f"{path}: missing the scalar n=256 anchor row")
    rate = float(row["batched_rounds_per_s"])
    if rate <= 0:
        raise ValueError(f"{path}: non-positive anchor throughput {rate}")
    return rate


def check_shard_scaling(path, min_speedup):
    """The BENCH_shard.json gate: rate(4 shards, 4 threads) >= min_speedup x
    rate(1, 1), and rate(1, 4) >= rate(1, 1), enforced only where 4 workers
    can actually run in parallel."""
    doc = load_doc(path)
    rates = {}
    for row in doc.get("results", []):
        key = (int(row["shards"]), int(row["threads"]))
        rate = float(row["batched_rounds_per_s"])
        if rate <= 0:
            print(f"check_perf_regression: {path}: non-positive rate at "
                  f"(shards, threads)={key}", file=sys.stderr)
            return 1
        rates[key] = rate
    for key in ((1, 1), (1, 4), (4, 4)):
        if key not in rates:
            print(f"check_perf_regression: {path}: missing (shards, threads)={key} "
                  f"row", file=sys.stderr)
            return 1

    serial = rates[(1, 1)]
    for shards, threads in sorted(rates):
        rate = rates[(shards, threads)]
        print(f"  shards={shards} threads={threads} batched {rate:10.2f} rounds/s "
              f"({rate / serial:.2f}x vs serial)")
    cores = int(doc.get("hardware_concurrency", 0))
    if cores < 4:
        print(f"check_perf_regression: hardware_concurrency={cores} < 4; "
              f"scaling thresholds not applicable, rates sane")
        return 0
    speedup = rates[(4, 4)] / serial
    one_shard = rates[(1, 4)] / serial
    failed = False
    if speedup < min_speedup:
        print(f"check_perf_regression: 4-shard speedup {speedup:.2f}x over serial "
              f"below required {min_speedup:.2f}x", file=sys.stderr)
        failed = True
    if one_shard < 1.0:
        print(f"check_perf_regression: one shard at 4 threads runs {one_shard:.2f}x "
              f"the 1-thread rate (must not be slower)", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print(f"check_perf_regression: 4-shard speedup {speedup:.2f}x over serial "
          f"(required {min_speedup:.2f}x); one shard 1->4 threads {one_shard:.2f}x "
          f"(required 1.00x)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", nargs="?",
                        help="BENCH_transport.json from this build")
    parser.add_argument("baseline", nargs="?", help="checked-in baseline JSON")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional drop in normalized batched "
                             "rounds/s (default 0.30)")
    parser.add_argument("--shard", metavar="BENCH_shard.json",
                        help="gate sharded-transport scaling instead of the "
                             "transport baseline comparison")
    parser.add_argument("--shard-speedup", type=float, default=2.0,
                        help="required (4 shards, 4 threads) / (1 shard, 1 thread) "
                             "throughput ratio when the machine has >= 4 cores "
                             "(default 2.0)")
    args = parser.parse_args()

    if args.shard is not None:
        try:
            return check_shard_scaling(args.shard, args.shard_speedup)
        except (OSError, KeyError, ValueError) as err:
            print(f"check_perf_regression: {err}", file=sys.stderr)
            return 1
    if args.current is None or args.baseline is None:
        parser.error("CURRENT and BASELINE are required without --shard")

    try:
        current_doc = load_doc(args.current)
        current = load_results(current_doc, args.current)
        baseline = load_results(load_doc(args.baseline), args.baseline)
        cur_ref = reference_rate(current, args.current)
        base_ref = reference_rate(baseline, args.baseline)
    except (OSError, KeyError, ValueError) as err:
        print(f"check_perf_regression: {err}", file=sys.stderr)
        return 1

    failures = cache_pressure_failures(current_doc)
    compared = 0
    for key in sorted(baseline):
        if key not in current:
            print(f"  skip n={key[0]} kernel={key[1]}: not measured on this machine")
            continue
        n, kernel = key
        base_row, cur_row = baseline[key], current[key]

        cur_allocs = cur_row.get("steady_state_allocs")
        if cur_allocs != base_row.get("steady_state_allocs", 0):
            failures.append(f"n={n} kernel={kernel}: steady_state_allocs="
                            f"{cur_allocs} (baseline "
                            f"{base_row.get('steady_state_allocs', 0)})")

        base_norm = float(base_row["batched_rounds_per_s"]) / base_ref
        cur_norm = float(cur_row["batched_rounds_per_s"]) / cur_ref
        compared += 1
        ratio = cur_norm / base_norm
        status = "ok"
        if ratio < 1.0 - args.threshold:
            status = "REGRESSION"
            failures.append(f"n={n} kernel={kernel}: normalized batched "
                            f"throughput {cur_norm:.3f} vs baseline "
                            f"{base_norm:.3f} ({ratio:.2f}x)")
        print(f"  n={n:5d} kernel={kernel:7s} normalized {cur_norm:6.3f} "
              f"(baseline {base_norm:6.3f}, {ratio:5.2f}x) {status}")

    if compared == 0:
        print("check_perf_regression: no overlapping configurations",
              file=sys.stderr)
        return 1
    if failures:
        print(f"\ncheck_perf_regression: {len(failures)} failure(s):",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"check_perf_regression: {compared} configurations within "
          f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
