"""The machine's speed, sampled from a sibling process.

    python3 perfbench/speed.py      # prints "ready", samples until stdin closes,
                                    # then prints the samples as one JSON list

The machine's speed drifts in phases, and each CPU drifts on its own (see
NOTES.md, "Calibrated times"). A sibling process on the children's CPU
times ``reference_unit`` every SAMPLE_EVERY_S for the whole run; a window of
a repetition is then calibrated by the mean unit time of the samples taken
inside it. The sibling has its own heap, so the program's memory and
garbage collection do not reach the unit. Each sample runs the unit twice
and times the second run only: the first brings the unit's code and data
back into the CPU caches that the program shares with it, so what the
program left there does not move the timed run.
"""

from __future__ import annotations

import gc
import json
import select
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SAMPLE_EVERY_S = 0.02
# Calibrated seconds are seconds on a machine that runs reference_unit in
# this time: about the quiet speed of a 2-vCPU cloud VM on Python 3.11.
REFERENCE_UNIT_S = 0.0002


def reference_unit():
    """A fixed slice of pure-Python work like the program's own (tuples,
    dicts, repr, sorting), about 0.2 ms."""
    seen = {}
    for i in range(150):
        key = (i % 17, i % 5, (i * 7) % 13)
        seen[key] = seen.get(key, 0) + 1
        repr(key)
    return sorted(seen.items())


def sample_until_eof():
    gc.disable()
    samples = []
    print("ready", flush=True)
    while True:
        reference_unit()            # warms the caches; untimed
        t0 = perf_counter()
        reference_unit()
        samples.append((t0, perf_counter() - t0))
        if select.select([sys.stdin], [], [], SAMPLE_EVERY_S)[0]:
            break               # stdin closed: the run is over
    json.dump(samples, sys.stdout)


class Sampler:
    """The sibling, seen from ``run.py``: ``with Sampler() as speed: ...``,
    then ``speed.calibrate(seconds, start, end)`` for each window.
    ``perf_counter`` is the system-wide monotonic clock, so the sibling's
    timestamps and the children's compare directly."""

    def __init__(self):
        self.samples = []

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.__exit__(None, None, None)
            raise RuntimeError("the speed sampler did not start")
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self.proc.communicate(timeout=30)
            self.samples = json.loads(out) if out else []
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def unit_s(self, start, end):
        """Mean unit time of the samples taken in [start, end]; the nearest
        sample for a window shorter than the interval."""
        inside = [dt for t, dt in self.samples if start <= t <= end]
        if not inside:
            inside = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return sum(inside) / len(inside)

    def calibrate(self, seconds, start, end):
        return seconds * REFERENCE_UNIT_S / self.unit_s(start, end)


if __name__ == "__main__":
    sample_until_eof()
