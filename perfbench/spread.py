"""Steadiness check: run the benchmark over several seeds and report spreads.

    python3 perfbench/spread.py --seeds 0-9

Runs ``run.py`` exactly as the benchmark command is run, with ``--trace 0``,
round-robin over the workloads of BENCHMARK.json for each seed (so a slow spell of the machine hits all
workloads alike), and prints, per workload and end-to-end metric, the
median and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. A spread
at or above a third of the metric's bound is flagged. The raw results are
kept in ``.perfbench/spread-<first seed>-<last seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]

    runs = {w: [] for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            started = perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            took = perf_counter() - started
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs[workload].append({"seed": seed, "seconds": took, "result": result,
                                   "info": json.loads(lines[-2])["info"]})
            print(f"{workload} seed {seed}: {took:.1f} s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload, rows in runs.items():
        print(f"\n{workload}: {len(rows)} runs, longest {max(r['seconds'] for r in rows):.1f} s")
        for name in rows[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in rows]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds[name]
            worst = max(worst, spread / bound)
            flag = "  <-- at or above a third of the bound" if spread >= bound / 3 else ""
            print(f"  {name:32s} median {median:12.5g}  spread {spread:7.2%}"
                  f"  bound {bound}{flag}")
    out = ROOT / ".perfbench" / f"spread-{args.seeds[0]}-{args.seeds[-1]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    print(f"\nworst spread / bound: {worst:.2f}; raw results in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
