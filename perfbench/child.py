"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON line with its measurements. Modes:
``measure`` (tracing off), ``trace`` (the per-layer wrappers are installed
for the timed window), ``setup`` (set-up only, for ``setup_s``) and
``shared`` (makes, once per run, the inputs every repetition reads).

``setup_s`` runs from the parent's spawn call to the first timed call into
``hintikka``: interpreter start, ``import hintikka`` and making the inputs.
``wall_s`` runs from there to the end of the workload's output. Both
windows are reported with their ``perf_counter`` ends, so that ``run.py``
can calibrate them with the speed samples of ``speed.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"


def interner_sizes(theory):
    """Sizes of the default interner, which does every workload's work: an
    empty ``Interner()`` is falsy, so ``interner or default_interner()``
    replaces a fresh one with the global one."""
    interner = theory.default_interner()
    return {"interned": len(interner), "theory_memo": len(interner.theory_memo),
            "transfer_memo": len(interner.transfer_memo)}


def module_caches(composition):
    return {name: len(getattr(composition, name)) for name in ("_TABLE_CACHE", "_CONFIG_CACHE")
            if isinstance(getattr(composition, name, None), dict)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--mode", choices=("measure", "trace", "setup", "shared"),
                    default="measure")
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--shared", required=True, help="directory of the run's shared inputs")
    ap.add_argument("--spans-out")
    ap.add_argument("--recheck", action="store_true",
                    help="also make the costly output checks")
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="self-test: compare against a wrong recorded hash")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hintikka
    if not Path(hintikka.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"hintikka imported from {hintikka.__file__}, not {src}")
    from hintikka import composition, theory
    sys.path.insert(0, str(BENCH))
    import workloads

    errors = []
    at_start = interner_sizes(theory)
    if any(at_start.values()) or any(module_caches(composition).values()):
        errors.append(f"not a cold start: {at_start} {module_caches(composition)}")

    wl = workloads.WORKLOADS[args.workload]
    shared = Path(args.shared)
    if args.mode == "shared":
        if wl.share is not None:
            wl.share(args.size, shared)
        print(json.dumps({}))
        return 0
    workdir = WORK / "work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = wl.prepare(args.seed, args.size, workdir, shared)
        if args.mode == "setup":
            print(json.dumps({"start": perf_counter()}))
            return 0

        tracer = None
        if args.mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        before = interner_sizes(theory)
        start = perf_counter()
        output = wl.run(inputs, tracer)
        end = perf_counter()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after = interner_sizes(theory)
        if tracer is not None:
            tracer.uninstall()

        growth = {key: after[key] - before[key] for key in after}
        if wl.grows_interner and growth["interned"] <= 0:
            errors.append("the default interner did not grow: counters read the wrong interner")

        expected = load_expected(args, wl)
        checked = wl.check(inputs, output, expected, args.recheck)
        check_s = perf_counter() - end
        # a repetition that was not a cold start fails as a whole
        failed = checked.attempted if errors else checked.failed
        errors.extend(checked.errors)
        result = {
            "start": start,
            "end": end,
            "check_s": check_s,
            "rss_mb": rss_mb,
            "attempted": checked.attempted,
            "failed": failed,
            "hashes": checked.hashes,
            "pinned": expected is not None,
            "growth": growth,
            "items_ms": checked.items_ms,
            "errors": errors,
        }
        if tracer is not None:
            result["layers"] = tracer.metrics(growth, checked.stdout_bytes)
            if args.spans_out:
                tracer.write(args.spans_out)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def load_expected(args, wl):
    """Recorded output hashes for these inputs, or None if none are recorded."""
    path = BENCH / "expected.json"
    if not path.exists():
        return None
    table = json.loads(path.read_text(encoding="utf-8")).get(args.workload, {}).get(args.size)
    if table is not None and wl.uses_seed:
        table = table.get(str(args.seed))
    if table is not None and args.corrupt_expected:
        table = {name: "0" * 64 for name in table}
    return table


if __name__ == "__main__":
    sys.exit(main())
