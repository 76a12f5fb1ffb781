"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions of each ``hintikka`` layer
at every module binding that calls them with wrappers that record a span
(name, start, end, parent, trace id, tag). The program itself is not
edited. Self time is a span's duration minus the time its child spans
cover, so ``composition.transfer_s`` excludes the interning done inside a
transfer. Spans stay in memory until ``write`` at the end of the run.

A binding that no longer exists is skipped and every metric that depends
on it is reported as absent, never as 0.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

# (span name, attribute, modules holding a binding that callers use)
FUNCTIONS = (
    ("theory.compute_theory", "compute_theory", ("theory", "closure", "cli")),
    ("composition.transfer", "transfer", ("composition", "closure", "cli")),
    ("composition.glue", "glue", ("composition", "closure", "cli")),
    ("closure.close", "close", ("closure", "cli")),
    ("closure.write_facts", "write_facts", ("closure", "cli")),
    ("closure.parse_facts", "parse_facts", ("closure", "cli")),
    ("spectra.induce", "induce_system_from_facts", ("spectra", "cli")),
    ("spectra.spectrum", "spectrum_from_facts", ("spectra", "cli")),
    ("numbersets.reach", "reach", ("numbersets", "spectra", "cli")),
    ("numbersets.find_period", "find_period", ("numbersets", "spectra", "cli")),
    ("cli.run", "run", ("cli",)),
)


class Reading:
    """What a traced run recorded, as the metric table reads it."""

    def __init__(self, times, calls, counts, totals, growth, stdout_bytes):
        self.times, self._calls = times, calls    # (name, tag) -> self time; name -> spans
        self.counts, self.totals = counts, totals
        self.growth, self.stdout_bytes = growth, stdout_bytes

    def time(self, name, tag=None):
        if tag is None:
            return sum((v for (n, _), v in self.times.items() if n == name), 0.0)
        return self.times.get((name, tag), 0.0)

    def calls(self, name):
        return self._calls.get(name, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def _time(name, tag=None):
    return (name,), lambda r: r.time(name, tag)


def _calls(name):
    return (name,), lambda r: r.calls(name)


def _count(name):
    return (name,), lambda r: r.counts.get(name, 0)


def _total(key, span):
    return (span,), lambda r: r.totals.get(key, 0)


# per-layer metric -> (the spans or counters it is derived from, its value)
METRICS = {
    "structures.enumerate_s": _time("structures.enumerate"),
    "structures.enumerated": _calls("structures.enumerate"),
    "diagrams.engines": _calls("diagrams.engine_init"),
    "diagrams.engine_init_s": _time("diagrams.engine_init"),
    "diagrams.th0_calls": _count("diagrams.th0_local"),
    "theory.compute_theory_s": _time("theory.compute_theory"),
    "theory.compute_theory_calls": _calls("theory.compute_theory"),
    "theory.memo_hits": (("theory.compute_theory",), lambda r: (
        r.calls("theory.compute_theory") - r.growth["theory_memo"])),
    "theory.intern_s": _time("theory.intern"),
    "theory.intern_calls": _calls("theory.intern"),
    "theory.interned": ((), lambda r: r.growth["interned"]),
    "theory.interned_ratio": (("theory.intern",), lambda r: _ratio(
        r.growth["interned"], r.calls("theory.intern"))),
    "composition.transfer_s": _time("composition.transfer"),
    "composition.transfer_calls": _calls("composition.transfer"),
    "composition.transfer_memo_new": ((), lambda r: r.growth["transfer_memo"]),
    # memo hits over lookups of the transfer recursion
    "composition.transfer_hit_ratio": (("composition._transfer_id",), lambda r: _ratio(
        r.counts["composition._transfer_id"] - r.growth["transfer_memo"],
        r.counts["composition._transfer_id"])),
    "composition.transfer_union_s": _time("composition.transfer", "union"),
    "composition.transfer_table_s": _time("composition.transfer", "table"),
    "composition.glue_s": _time("composition.glue"),
    "closure.close_s": _time("closure.close"),
    "closure.sweeps": _total("closure.sweeps", "closure.close"),
    "closure.facts": _total("closure.facts", "closure.close"),
    "closure.reachable": _total("closure.reachable", "closure.close"),
    "closure.write_facts_s": _time("closure.write_facts"),
    "closure.facts_bytes": _total("closure.facts_bytes", "closure.write_facts"),
    "closure.parse_facts_s": _time("closure.parse_facts"),
    "spectra.induce_s": _time("spectra.induce"),
    "spectra.induce_calls": _calls("spectra.induce"),
    "spectra.spectrum_s": _time("spectra.spectrum"),
    "numbersets.reach_s": _time("numbersets.reach"),
    "numbersets.reach_calls": _calls("numbersets.reach"),
    "numbersets.find_period_s": _time("numbersets.find_period"),
    "numbersets.find_period_calls": _calls("numbersets.find_period"),
    "cli.run_s": _time("cli.run"),
    "cli.stdout_bytes": (("cli.run",), lambda r: r.stdout_bytes if r.calls("cli.run") else 0),
}

UNITS = {"_s": "s", "_bytes": "bytes", "_ratio": "ratio"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, trace id, tag]
        self.stack = []
        self.trace_id = 0
        self.counts = {}         # counter name -> calls
        self.totals = {}         # closure.sweeps and friends, from return values
        self.installed = set()   # span and counter names that found a binding
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _open(self, name, tag=None):
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
               self.trace_id, tag]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self.stack.pop()

    def spanned(self, name, fn, tag_of=None, on_result=None):
        def wrapper(*args, **kwargs):
            rec = self._open(name, tag_of(*args, **kwargs) if tag_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if on_result is not None:
                on_result(result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def spanned_generator(self, name, fn):
        """One span per ``next()``: the generator's own time, not its consumer's."""
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                rec = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    rec[5] = "end"
                    return
                finally:
                    self._close(rec)
                yield item
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, make, name):
        original = getattr(owner, attr, None)
        if original is None:
            return
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))
        self.installed.add(name)

    def install(self):
        mods = {m: _module(m) for m in ("structures", "theory", "composition",
                                        "closure", "spectra", "numbersets", "cli")}
        special = {
            "composition.transfer": dict(tag_of=_transfer_kind),
            "closure.close": dict(on_result=self._close_result),
            "closure.write_facts": dict(on_result=self._facts_result),
        }
        for name, attr, holders in FUNCTIONS:
            extra = special.get(name, {})
            for mod in holders:
                self._patch(mods[mod], attr,
                            lambda fn, n=name, e=extra: self.spanned(n, fn, **e), name)
        self._patch(mods["structures"], "enumerate_structures",
                    lambda fn: self.spanned_generator("structures.enumerate", fn),
                    "structures.enumerate")
        interner = getattr(mods["theory"], "Interner", None)
        for method in ("intern_depth0", "intern_node"):
            self._patch(interner, method,
                        lambda fn: self.spanned("theory.intern", fn), "theory.intern")
        engine = getattr(mods["theory"], "DiagramEngine", None)
        if engine is not None:
            self._patch(engine, "__init__",
                        lambda fn: self.spanned("diagrams.engine_init", fn),
                        "diagrams.engine_init")
            self._patch(engine, "th0_local",
                        lambda fn: self.counted("diagrams.th0_local", fn),
                        "diagrams.th0_local")
        # memo lookups of the transfer recursion, for the hit ratio
        self._patch(mods["composition"], "_transfer_id",
                    lambda fn: self.counted("composition._transfer_id", fn),
                    "composition._transfer_id")

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _close_result(self, state):
        totals = self.totals
        totals["closure.sweeps"] = totals.get("closure.sweeps", 0) + state.iterations
        totals["closure.facts"] = totals.get("closure.facts", 0) + len(state.facts)
        totals["closure.reachable"] = (totals.get("closure.reachable", 0)
                                       + len(state.reachable()))

    def _facts_result(self, text):
        self.totals["closure.facts_bytes"] = (self.totals.get("closure.facts_bytes", 0)
                                              + len(text.encode("utf-8")))

    # -- results -----------------------------------------------------------

    def self_times(self):
        """(name, tag) -> summed self time, and name -> span count."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        times, calls = {}, {}
        for idx, (name, start, end, _, _, tag) in enumerate(spans):
            key = (name, tag)
            times[key] = times.get(key, 0.0) + (end - start - covered[idx])
            if tag != "end":
                calls[name] = calls.get(name, 0) + 1
        return times, calls

    def metrics(self, growth, stdout_bytes):
        """Every per-layer metric whose bindings were found.

        ``growth`` holds the growth of the working interner during the run:
        ``interned`` (theories), ``theory_memo`` and ``transfer_memo``.
        """
        reading = Reading(*self.self_times(), self.counts, self.totals, growth, stdout_bytes)
        return {name: value(reading) for name, (deps, value) in METRICS.items()
                if all(dep in self.installed for dep in deps)}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _module(name):
    try:
        return importlib.import_module(f"hintikka.{name}")
    except ImportError:
        return None


def _transfer_kind(t1, t2, scheme, *args, **kwargs):
    return "table" if scheme.tables else "union"
