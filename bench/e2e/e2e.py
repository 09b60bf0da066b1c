#!/usr/bin/env python3
"""Helpers behind bench/e2e/run.sh.

  python3 bench/e2e/e2e.py merge RESULTS.jsonl
      Prints one JSON result merging per-workload results (lines of
      {"workload": W, "result": {...}}); metric names become W.metric.

  python3 bench/e2e/e2e.py calibrate [--runs 5] [--sets 1] [--seconds S]
      Runs every workload RUNS times (seeds 1..RUNS, workloads
      interleaved), SETS times back to back, and writes the spread of
      each end-to-end metric per workload to bench/e2e/NOISE.md. The
      spread is (Q3 - Q1) / median with statistics.quantiles(values,
      n=4), the statistic the regression gate uses; a pair whose spread
      exceeds its bound in BENCHMARK.json is marked informational. With
      several sets it also compares the last set's medians with the
      first's against the bounds.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["bulk", "short_jobs", "route", "churn"]


def merge(path):
    correct, attempted, failed, metrics = True, 0, 0, {}
    for line in pathlib.Path(path).read_text().splitlines():
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            result = entry["result"]
        except (ValueError, KeyError):
            correct = False  # the run died before printing its result
            continue
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, value in result["metrics"].items():
            metrics[f"{entry['workload']}.{name}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(runs, seconds, names):
    """One set: RUNS untraced runs per workload, workloads interleaved."""
    values = {w: {m: [] for m in names} for w in WORKLOADS}
    host = {}
    for seed in range(1, runs + 1):
        for w in WORKLOADS:
            proc = subprocess.run(
                ["bash", str(HERE / "run.sh"), "--workload", w, "--seed",
                 str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                sys.exit(f"calibrate: {w} seed {seed} failed")
            result = json.loads(lines[-1])
            host = next(json.loads(line)["run"] for line in lines
                        if line.startswith('{"run"'))
            for name in names:
                values[w][name].append(result["metrics"][name]["value"])
            sys.stderr.write(f"calibrate: {w} seed {seed} done\n")
    return values, host


def table(header, rows):
    rule = "|".join(["---"] * len(header))
    return "\n".join(["| " + " | ".join(header) + " |", f"|{rule}|"]
                     + ["| " + " | ".join(r) + " |" for r in rows])


def calibrate(runs, sets, seconds):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    gates = {m["name"]: m for m in bench["end_to_end"]}
    seconds = seconds or bench["run_seconds"]
    results, host = [], {}
    for _ in range(sets):
        values, host = run_set(runs, seconds, list(gates))
        results.append(values)

    cols = [f"`{w}`" for w in WORKLOADS]
    sections, informational = [], set()
    for k, values in enumerate(results, 1):
        spreads, medians = [], []
        for name, gate in gates.items():
            cells = []
            for w in WORKLOADS:
                s = spread(values[w][name])
                if s > gate["bound"]:
                    informational.add(f"`{name}` on `{w}`")
                cells.append(f"{100 * s:.1f}%")
            spreads.append([f"`{name}`", f"{100 * gate['bound']:.0f}%"] + cells)
            medians.append([f"`{name}`"] + [
                f"{statistics.median(values[w][name]):.6g}" for w in WORKLOADS])
        title = f"Set {k}" if sets > 1 else "Runs"
        sections.append(f"## {title}: spread\n\n"
                        + table(["metric", "bound"] + cols, spreads)
                        + f"\n\n## {title}: medians\n\n"
                        + table(["metric"] + cols, medians))
    if sets > 1:
        rows, over = [], 0
        for name, gate in gates.items():
            cells = []
            for w in WORKLOADS:
                first = statistics.median(results[0][w][name])
                last = statistics.median(results[-1][w][name])
                worse = last / first - 1 if gate["better"] == "lower" \
                    else 1 - last / first
                flag = "" if worse <= gate["bound"] else " (over bound)"
                over += bool(flag)
                cells.append(f"{100 * worse:+.1f}%{flag}")
            rows.append([f"`{name}`", f"{100 * gate['bound']:.0f}%"] + cells)
        sections.append(
            f"## Set {sets} against set 1\n\nHow much worse set {sets}'s "
            "median is than set 1's (negative: better). The gate allows up "
            f"to the bound; {over} pair(s) exceed it.\n\n"
            + table(["metric", "bound"] + cols, rows))

    plural = f"{sets} back-to-back sets of " if sets > 1 else ""
    text = f"""# Noise calibration

Written by `python3 bench/e2e/e2e.py calibrate --runs {runs} --sets {sets}`
(`bash bench/e2e/run.sh --calibrate` runs one set of 5): {plural}{runs}
untraced runs of each workload (seeds 1..{runs}, workloads interleaved),
{seconds:g} s each, on {host.get('cpu', 'unknown')} with
{host.get('nproc', '?')} CPUs (governor {host.get('governor', 'unknown')},
batch backend {host.get('batch_backend', '?')}, vector JIT
{host.get('jit_batch_backend', '?')}).

Spread is (Q3 - Q1) / median over a set's runs, from Python's
`statistics.quantiles(values, n=4)`: the statistic the regression gate
applies. A (metric, workload) pair whose spread exceeds the metric's
bound in BENCHMARK.json is informational: it cannot gate a change.
`setup_s` is gated on its median only.

Informational pairs: {"; ".join(sorted(informational)) or "none"}.

""" + "\n\n".join(sections) + "\n"
    (HERE / "NOISE.md").write_text(text)
    print(text)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    m = sub.add_parser("merge")
    m.add_argument("results")
    c = sub.add_parser("calibrate")
    c.add_argument("--runs", type=int, default=5)
    c.add_argument("--sets", type=int, default=1)
    c.add_argument("--seconds", type=float, default=0)
    args = parser.parse_args()
    if args.cmd == "merge":
        return merge(args.results)
    calibrate(args.runs, args.sets, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
