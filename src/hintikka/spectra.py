"""Spectra of reachable theories: closure output -> quadruple system ->
per-theory size sets with periodicity certificates, plus the gap auditor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .closure import ClosureState
from .config import DEFAULT, Config
from .errors import HintikkaError
from .numbersets import (
    PeriodicityCertificate,
    QuadrupleSystem,
    find_period,
    reach,
    witness_tree,
)


def induce_system(state: ClosureState):
    """The system of a closure state, built from its digest-level base
    sizes and facts: every reachable theory is a base theory or the result
    of a fact, so the labels are its reachable theories."""
    base = {t.digest: set(sizes) for t, sizes in state.base_sizes.items()}
    facts = [(f.t1.digest, f.t2.digest, f.scheme_id, f.t.digest, f.j) for f in state.facts]
    return induce_system_from_facts(base, facts)


def induce_system_from_facts(base, facts):
    """One label per theory digest (sorted), one rule per composition fact,
    base sets from base model sizes; ``base`` and ``facts`` are as
    ``closure.parse_facts`` returns them."""
    digests = set(base)
    for t1, t2, _, t, _ in facts:
        digests.update((t1, t2, t))
    digests = tuple(sorted(digests))
    label = {d: i for i, d in enumerate(digests)}
    rules = {(label[t1], label[t2], label[t], j) for t1, t2, _, t, j in facts}
    base_sets = [set() for _ in digests]
    for d, sizes in base.items():
        base_sets[label[d]].update(sizes)
    sys = QuadrupleSystem(len(digests), tuple(sorted(rules)),
                          tuple(frozenset(b) for b in base_sets))
    return sys, digests


@dataclass(frozen=True)
class SpectrumReport:
    digest: str
    bound: int
    sizes: tuple
    certificate: PeriodicityCertificate = None
    witness_trees: dict = field(default=None, compare=False)

    def describe(self) -> str:
        head = (f"spectrum t={self.digest} bound={self.bound} "
                f"sizes={','.join(map(str, self.sizes)) or '-'}")
        if self.certificate is None:
            return head + "\ninconclusive"
        return head + "\n" + self.certificate.describe()


def spectrum(state: ClosureState, digest: str, bound: int,
             config: Config = DEFAULT, with_witnesses: bool = False,
             induced=None) -> SpectrumReport:
    """Sizes realized by a reachable theory, with a periodicity certificate
    scanned beyond the bound; finite spectra are reported as such instead of
    being given an artificial period. ``induced`` is ``induce_system(state)``
    when the caller already has it, as for ``spectrum_from_facts``."""
    sys, digests = induced or induce_system(state)
    return _spectrum_of_digest(sys, digests, digest, bound, config, with_witnesses)


def spectrum_from_facts(base, facts, digest: str, bound: int,
                        config: Config = DEFAULT, induced=None) -> SpectrumReport:
    """Spectrum of one digest of a parsed facts file. ``induced`` is the
    ``(system, digests)`` pair of ``induce_system_from_facts(base, facts)``
    when the caller already has it: reports for many digests then share
    one system, and so one saturation per limit."""
    sys, digests = induced or induce_system_from_facts(base, facts)
    return _spectrum_of_digest(sys, digests, digest, bound, config)


def _spectrum_of_digest(sys, digests, digest, bound, config, with_witnesses=False):
    if digest not in digests:
        raise HintikkaError(f"unknown theory digest {digest}")
    label = digests.index(digest)
    scan = max(config.spectrum_scan, bound, 2 * config.spectrum_window)
    sizes = reach(sys, bound).values(label)
    cert = find_period(sys, label, scan, config.spectrum_window, config)
    witnesses = None
    if with_witnesses:
        witnesses = {
            size: witness_tree(sys, label, size, bound)
            for size in sizes
        }
    return SpectrumReport(digest, bound, sizes, cert, witnesses)


def class_spectrum(state: ClosureState, bound: int) -> tuple:
    """Union of the per-theory spectra: every size realized by the class."""
    sys, _ = induce_system(state)
    return reach(sys, bound).values(*range(sys.m))


def sentence_spectrum(state: ClosureState, phi, bound: int,
                      config: Config = DEFAULT) -> tuple:
    """Sp(phi): union of Sp_t over reachable theories whose witness satisfies
    phi. Requires the closure depth to decide phi (fragment check)."""
    from .closure import replay_witness
    from .oracle import eval_formula, fragment_depth

    reachable = sorted(state.reachable(), key=lambda t: t.intern_id)
    r = max([1] + [a for _, a in reachable[0].vocab_key]) + 1
    d = fragment_depth(phi, r)
    if d is None:
        raise HintikkaError("sentence is outside the fragment decided by theories")
    if d > state.depth:
        raise HintikkaError(
            f"sentence needs depth {d} but the closure was computed at depth {state.depth}")
    sys, digests = induce_system(state)
    labels = [digests.index(t.digest) for t in reachable
              if eval_formula(replay_witness(state, t), phi, config=config)]
    return reach(sys, bound).values(*labels)


# ---------------------------------------------------------------------------
# Gap auditor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapAuditResult:
    ratio: Fraction
    threshold: int
    violations: tuple            # successive pairs (n1, n2) with n2 >= ratio*n1
    least_passing_threshold: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return (f"gaps ratio={self.ratio} threshold={self.threshold} "
                    f"violations=0 least_passing_threshold={self.least_passing_threshold}")
        pairs = " ".join(f"({a},{b})" for a, b in self.violations)
        return (f"gaps ratio={self.ratio} threshold={self.threshold} "
                f"violations={len(self.violations)} pairs={pairs} "
                f"least_passing_threshold={self.least_passing_threshold}")


def audit_gaps(sizes, ratio, threshold: int = 0) -> GapAuditResult:
    """Report successive members n1 < n2 with n1 > threshold and
    n2 >= ratio * n1; arithmetic is exact (Fraction)."""
    try:
        ratio = Fraction(str(ratio))
    except (ValueError, ZeroDivisionError):
        raise HintikkaError(f"gap ratio must be a number, got {ratio!r}") from None
    if ratio <= 1:
        raise HintikkaError("gap ratio must exceed 1")
    ordered = sorted(set(int(s) for s in sizes))
    all_violations = [
        (n1, n2) for n1, n2 in zip(ordered, ordered[1:]) if n2 >= ratio * n1
    ]
    violations = tuple((n1, n2) for n1, n2 in all_violations if n1 > threshold)
    least = max((n1 for n1, _ in all_violations), default=0)
    return GapAuditResult(ratio, threshold, violations, least)
