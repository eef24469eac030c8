#!/usr/bin/env python3
"""Steadiness check for the benchmark described by BENCHMARK.json.

Runs every workload repeatedly, alternating the workload order between
rounds, each run with its own seed, and prints for every end-to-end metric
the median, the quartiles and the interquartile spread as a share of the
median, next to the metric's bound. With --trace it also makes one traced
run per workload and prints its end-to-end figures beside the untraced
medians, which shows the tracing overhead.

    python3 perfbench/steady.py                      # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads train_sharded
    python3 perfbench/steady.py --runs 10 --trace --out steady.json

Run it from the repository root. A spread is marked "ok" when it is below
a third of the bound (the margin the bounds were chosen for); setup_s is
bounded by the shift of its median between two sets of runs, not by its
spread, so its spread is printed for information.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", "1" if trace else "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        print(f"{' '.join(args)} exited {out.returncode}:\n{out.stderr[-2000:]}", flush=True)
        return None, None
    result = json.loads(lines[-1])
    traced_e2e = None
    for line in lines:
        if line.startswith("end-to-end (traced run): "):
            traced_e2e = json.loads(line.split(": ", 1)[1])
    return result, traced_e2e


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def compare(path, results, bench):
    """Shift of each median against an earlier set, in the worse direction;
    a shift beyond the metric's bound fails."""
    with open(path) as f:
        before = json.load(f)["runs"]
    print(f"\nagainst {path}: median shift in the worse direction (negative is better)")
    ok = True
    for w, runs in results.items():
        if not runs or not before.get(w):
            continue
        for m in bench["end_to_end"]:
            name, sign = m["name"], (1 if m["better"] == "lower" else -1)
            a = statistics.median(r["metrics"][name]["value"] for r in before[w])
            b = statistics.median(r["metrics"][name]["value"] for r in runs)
            shift = sign * (b - a) / a
            within = shift <= m["bound"]
            ok &= within
            print(f"{w:<14} {name:<12} {a:>11.4f} -> {b:>11.4f} {shift:>+8.2%} "
                  f"bound {m['bound']:.2f} {'ok' if within else 'WORSE'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--seconds", type=int, default=0, help="override run_seconds")
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", default="", help="write every run's result here as JSON")
    ap.add_argument("--compare", default="", help="an earlier --out file: print the shift "
                    "of each median against it")
    opts = ap.parse_args()

    with open(opts.bench) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = [w for w in workloads if w in opts.workloads.split(",")]
    seconds = opts.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    failures = 0
    for i in range(opts.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r, _ = run(bench["command"], w, opts.seed_base + i, seconds, False)
            if r is None:
                failures += 1
                continue
            results[w].append(r)
            print(f"run {i + 1}/{opts.runs} {w}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(r["metrics"].items())), flush=True)

    traced = {}
    if opts.trace:
        for w in workloads:
            layers, e2e = run(bench["command"], w, opts.seed_base, seconds, True)
            if layers is None:
                failures += 1
            else:
                traced[w] = {"end_to_end": e2e, "per_layer": layers["metrics"]}

    print()
    print(f"{'workload':<14} {'metric':<12} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>8} {'bound':>6}  verdict" + ("    traced  overhead" if opts.trace else ""))
    steady = failures == 0
    for w in workloads:
        runs = results[w]
        if len(runs) < 2:
            print(f"{w:<14} only {len(runs)} successful runs")
            steady = False
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3, s = spread(values)
            ok = s < bound / 3 if name != "setup_s" else True
            steady &= ok
            verdict = "ok" if ok else "WIDE"
            if name == "setup_s":
                verdict = "(median bound)"
            line = (f"{w:<14} {name:<12} {q2:>11.4f} {q1:>11.4f} {q3:>11.4f} "
                    f"{s:>8.2%} {bound:>6.2f}  {verdict:<14}")
            if opts.trace and traced.get(w):
                t = traced[w]["end_to_end"][name]["value"]
                line += f" {t:>10.4f} {(t - q2) / q2:>+8.1%}"
            print(line)
        print(f"{w:<14} failed share {sorted(shares)} over {len(runs)} runs, "
              f"attempted median {statistics.median(r['attempted'] for r in runs)}")
    if opts.compare:
        steady &= compare(opts.compare, results, bench)
    if failures:
        print(f"{failures} runs failed")
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump({"seconds": seconds, "runs": results, "traced": traced}, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
