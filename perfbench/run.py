"""Benchmark of the hintikka reproduction.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs repetitions of one workload, each in a fresh interpreter
(``child.py``), until ``--seconds`` have passed, then prints one info line
and, as the last line, the result:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones (medians over repetitions); with
``--trace 1`` traced and untraced repetitions alternate and the metrics are
the per-layer ones from the traced repetitions.

    python3 perfbench/run.py --self-test     # small sizes, checks the benchmark itself
    python3 perfbench/run.py --record        # rewrite expected.json (deliberate only)

Workloads, metrics and their reasons are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import Sampler
from tracer import unit_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("addition", "closure-paths", "spectrum", "census")
SETUP_SAMPLES = 21      # set-up is short and noisy: top up with set-up-only children
CHILD_TIMEOUT_S = 150
RECORDED_SEEDS = range(50)
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def spawn(workload, seed, mode, shared, size="full", spans_out=None, corrupt=False,
          recheck=False):
    """One child; returns its result line plus its spawn time and the load
    average around it."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--mode", mode, "--shared", str(shared)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    if recheck:
        cmd.append("--recheck")
    if corrupt:
        cmd.append("--corrupt-expected")
    load_before = os.getloadavg()
    spawned = perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], stdout=subprocess.PIPE,
                              text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} {mode} repetition timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode} repetition exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["spawned"] = spawned
    result["load"] = [load_before, os.getloadavg()]
    return result


def tail(samples):
    """(value, percentile, sample count): the highest percentile with at
    least 10 samples beyond it; the maximum below 20 samples, where that
    percentile would fall under the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def measure(workload, seed, seconds, trace, size="full", corrupt=False):
    """Repetitions for ``seconds``; returns (result line, info)."""
    shared = WORK / "shared" / str(os.getpid())
    shared.mkdir(parents=True, exist_ok=True)
    modes = ("trace", "measure") if trace else ("measure",)
    reps = {mode: [] for mode in modes}
    children = []

    def child(mode, **kwargs):
        children.append(spawn(workload, seed, mode, shared, size, corrupt=corrupt, **kwargs))
        return children[-1]

    # each CPU drifts on its own: the children and the speed sampler share one
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        with Sampler() as speed:
            # inputs made once per run; this child also compiles the bytecode
            spawn(workload, seed, "shared", shared, size)
            # the once-per-run recheck is not measuring, so it does not use up --seconds
            started = perf_counter()
            while (perf_counter() - started - sum(r["check_s"] for r in children) < seconds
                   or any(not done for done in reps.values())):
                mode = modes[len(children) % len(modes)]
                spans = None
                if mode == "trace":
                    spans = WORK / f"spans-{workload}-{seed}-{len(reps[mode])}.jsonl"
                reps[mode].append(child(mode, spans_out=spans, recheck=not children))
            if not trace:
                while len(children) < SETUP_SAMPLES:
                    child("setup")
    finally:
        shutil.rmtree(shared, ignore_errors=True)

    measured = reps["measure"]
    everything = [r for runs in reps.values() for r in runs]
    errors = sorted({e for r in everything for e in r["errors"]})
    if len({json.dumps(r["hashes"], sort_keys=True) for r in everything}) != 1:
        errors.append("outputs differ between repetitions (or with tracing on and off)")
    if len({json.dumps(r["growth"], sort_keys=True) for r in everything}) != 1:
        errors.append("interner growth differs between repetitions")
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)

    def setup_s(r):
        return speed.calibrate(r["start"] - r["spawned"], r["spawned"], r["start"])

    def wall_s(r):
        return speed.calibrate(r["end"] - r["start"], r["start"], r["end"])

    info = {
        "workload": workload, "seed": seed, "size": size, "trace": int(trace),
        "repetitions": {mode: len(runs) for mode, runs in reps.items()},
        "pinned": all(r["pinned"] for r in everything),
        "hashes": everything[0]["hashes"],
        "interner_growth": everything[0]["growth"],
        "fail_ratio": failed / attempted,
        "load_avg": [r["load"] for r in everything],
        "raw_setup_s": [r["start"] - r["spawned"] for r in children],
        "raw_wall_s": {mode: [r["end"] - r["start"] for r in runs]
                       for mode, runs in reps.items()},
        "reference_unit_s": {
            "setup": [speed.unit_s(r["spawned"], r["start"]) for r in children],
            **{mode: [speed.unit_s(r["start"], r["end"]) for r in runs]
               for mode, runs in reps.items()}},
    }
    if trace:
        metrics = layer_metrics(reps["trace"], errors)
        overhead = (statistics.median(map(wall_s, reps["trace"]))
                    / statistics.median(map(wall_s, measured)))
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    else:
        values = {
            "setup_s": statistics.median(map(setup_s, children)),
            "wall_s": statistics.median(map(wall_s, measured)),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in measured),
        }
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in values.items()}
        if measured[0]["items_ms"] is not None:
            # per-instance latency: median over repetitions of the same stream
            items = [statistics.median(col)
                     for col in zip(*(r["items_ms"] for r in measured))]
            tail_ms, tail_pct, tail_n = tail(items)
            info["item_ms"] = {"p50": statistics.median(items), "tail": tail_ms,
                               "tail_percentile": tail_pct, "samples": tail_n}
    info["errors"] = errors
    result = {"correct": not errors and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, info


def layer_metrics(traced, errors):
    """Per-layer metrics: medians over the traced repetitions, whose counts
    must agree exactly."""
    names = list(traced[0]["layers"])
    counts = {name for name in names if unit_of(name) in ("count", "bytes")}
    for name in counts:
        if len({r["layers"][name] for r in traced}) != 1:
            errors.append(f"per-layer count {name} differs between traced repetitions")
    return {name: {"value": statistics.median(r["layers"][name] for r in traced),
                   "unit": unit_of(name)} for name in names}


def metadata():
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": src_lines}


def self_test():
    """Small sizes: every metric named with its unit, counts repeat exactly,
    and a corrupted expected hash counts as a failure."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
            runs = [measure(workload, 0, 0, trace, "small")[0] for _ in range(2)]
            for result in runs:
                if not result["correct"]:
                    problems.append(f"{workload} trace={trace}: not correct")
                for metric in bench[declared]:
                    got = result["metrics"].get(metric["name"])
                    if got is None or got["unit"] != metric["unit"]:
                        problems.append(f"{workload}: metric {metric['name']} missing "
                                        f"or not in {metric['unit']}")
            if trace:
                for name, got in runs[0]["metrics"].items():
                    if got["unit"] in ("count", "bytes") and got != runs[1]["metrics"][name]:
                        problems.append(f"{workload}: count {name} differs between runs")
        bad = measure(workload, 0, 0, 0, "small", corrupt=True)[0]
        if bad["correct"] or bad["failed"] == 0:
            problems.append(f"{workload}: a corrupted expected hash was not a failure")
    for problem in problems:
        print("FAIL", problem)
    print("self-test", "ok" if not problems else f"FAILED ({len(problems)})")
    return 0 if not problems else 1


def record():
    """Write the output hashes of the current code to expected.json."""
    table = {}
    shared = WORK / "shared" / str(os.getpid())
    for workload in WORKLOADS:
        for size in ("full", "small"):
            seeds = RECORDED_SEEDS if workload == "addition" else (0,)
            per_seed = {}
            shared.mkdir(parents=True, exist_ok=True)
            spawn(workload, 0, "shared", shared, size)
            for seed in seeds:
                rep = spawn(workload, seed, "measure", shared, size, recheck=True)
                if rep["errors"] or rep["failed"]:
                    raise ChildFailed(f"{workload} {size} seed {seed}: {rep['errors']}")
                per_seed[str(seed)] = rep["hashes"]
            table.setdefault(workload, {})[size] = (
                per_seed if workload == "addition" else per_seed["0"])
            shutil.rmtree(shared)
    (BENCH / "expected.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hintikka" / "__init__.py").is_file():
        print(f"no hintikka sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.record:
            return record()
        if args.workload is None:
            ap.error("--workload is required")
        result, info = measure(args.workload, args.seed, args.seconds, args.trace)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    info.update(metadata())
    line = json.dumps({"info": info})
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
