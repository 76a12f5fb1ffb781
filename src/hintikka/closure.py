"""Fixpoint closure of base theories under scheme transfers.

Starting from the theories of small base models (per result-constant count),
repeatedly apply every scheme to every reachable pair until nothing new
appears. Every evaluated derivation is recorded as a CompositionFact; the
facts plus base sizes are the complete input for spectrum computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .composition import distinct_consts, glue, transfer
from .config import DEFAULT, Config
from .errors import HintikkaError
from .lineformat import LineReader
from .structures import Structure
from .theory import Interner, Theory, compute_theory, default_interner


@dataclass(frozen=True)
class CompositionFact:
    """One derivation t = F(t1, t2, scheme), with size deficit j."""

    t1: int
    t2: int
    scheme_id: str
    t: int
    j: int


@dataclass
class ClosureState:
    per_k: dict                 # k -> frozenset of theory ids
    facts: tuple                # sorted CompositionFacts
    base_sizes: dict            # theory id -> tuple of sizes
    base_witness: dict          # theory id -> Structure
    schemes: dict               # scheme_id -> Scheme
    depth: int
    iterations: int
    status: str                 # "converged" | "not-converged"
    interner: Interner = field(repr=False, default=None)

    def reachable(self) -> frozenset:
        out = set()
        for ids in self.per_k.values():
            out |= ids
        return frozenset(out)

    def digest_of(self, tid: int) -> str:
        return self.interner.rec(tid).digest


def close(base, schemes, depth: int, max_iter: int = 64,
          interner: Interner = None) -> ClosureState:
    """Iterate T_k <- T_k + {transfer(t1, t2, s)} to the fixpoint.

    ``base`` maps a constant count k to an iterable of (Theory, size) or
    (Theory, size, witness Structure) entries. Stops at the first fully
    stationary sweep, or reports "not-converged" after max_iter sweeps.
    Theories whose constants are not pairwise distinct stay reachable but
    are never used as gluing inputs (the scheme size law needs distinctness).
    """
    if max_iter < 1:
        raise HintikkaError("max_iter must be >= 1")
    interner = default_interner() if interner is None else interner
    scheme_map = {s.scheme_id: s for s in schemes}

    per_k = {}
    base_sizes = {}
    base_witness = {}
    for k, entries in base.items():
        ids = set()
        for entry in entries:
            theory, size = entry[0], entry[1]
            witness = entry[2] if len(entry) > 2 else None
            tid = theory.intern_id
            if theory.k != k:
                raise HintikkaError(f"base theory with k={theory.k} filed under k={k}")
            ids.add(tid)
            base_sizes.setdefault(tid, set()).add(size)
            if witness is not None and tid not in base_witness:
                base_witness[tid] = witness
        per_k[k] = ids

    facts = {}
    fresh = {k: set(ids) for k, ids in per_k.items()}
    iterations = 0
    status = "not-converged"

    for _ in range(max_iter):
        iterations += 1
        new_by_k = {}
        added_fact = False
        for sid in sorted(scheme_map):
            s = scheme_map[sid]
            t1_all = sorted(per_k.get(s.k1, ()))
            t2_all = sorted(per_k.get(s.k2, ()))
            t1_new = sorted(fresh.get(s.k1, ()))
            t2_new = sorted(fresh.get(s.k2, ()))
            pairs = set()
            for a in t1_new:
                for b in t2_all:
                    pairs.add((a, b))
            for a in t1_all:
                for b in t2_new:
                    pairs.add((a, b))
            for a, b in sorted(pairs):
                if (a, b, sid) in facts:
                    continue
                if not (distinct_consts(interner, interner.rec(a))
                        and distinct_consts(interner, interner.rec(b))):
                    continue
                t = transfer(Theory(interner, a), Theory(interner, b), s, interner)
                facts[(a, b, sid)] = CompositionFact(a, b, sid, t.intern_id, s.j)
                added_fact = True
                if t.intern_id not in per_k.setdefault(s.k, set()):
                    new_by_k.setdefault(s.k, set()).add(t.intern_id)
        grew = False
        for k, new_ids in new_by_k.items():
            if new_ids:
                per_k[k] |= new_ids
                grew = True
        fresh = new_by_k
        if not grew and not added_fact:
            status = "converged"
            break

    return ClosureState(
        per_k={k: frozenset(ids) for k, ids in per_k.items()},
        facts=tuple(sorted(facts.values(),
                           key=lambda f: (f.t1, f.t2, f.scheme_id))),
        base_sizes={tid: tuple(sorted(s)) for tid, s in base_sizes.items()},
        base_witness=base_witness,
        schemes=scheme_map,
        depth=depth,
        iterations=iterations,
        status=status,
        interner=interner,
    )


def minimal_derivations(state: ClosureState):
    """Per theory, the smallest witness size and the fact (or None) that
    attains it; ties broken by fact order."""
    best = {}
    for tid, sizes in state.base_sizes.items():
        best[tid] = (min(sizes), None)
    changed = True
    while changed:
        changed = False
        for fact in state.facts:
            if fact.t1 not in best or fact.t2 not in best:
                continue
            size = best[fact.t1][0] + best[fact.t2][0] - fact.j
            cur = best.get(fact.t)
            if cur is None or size < cur[0]:
                best[fact.t] = (size, fact)
                changed = True
    return best


def replay_witness(state: ClosureState, tid: int) -> Structure:
    """Build an explicit structure realizing a reachable theory by replaying
    its minimal derivation."""
    derivations = minimal_derivations(state)

    def build(t):
        if t not in derivations:
            raise HintikkaError(f"theory {t} not reachable")
        _, fact = derivations[t]
        if fact is None:
            witness = state.base_witness.get(t)
            if witness is None:
                raise HintikkaError(f"no base witness stored for theory {t}")
            return witness
        scheme = state.schemes[fact.scheme_id]
        return glue(build(fact.t1), build(fact.t2), scheme)

    return build(tid)


def validate_replay(state: ClosureState, config: Config = DEFAULT) -> dict:
    """Check compute_theory(replay_witness(t)) == t for every reachable theory."""
    results = {}
    for tid in sorted(state.reachable()):
        witness = replay_witness(state, tid)
        got = compute_theory(witness, state.depth, state.interner, config)
        results[tid] = (got.intern_id == tid, witness.size)
    return results


# ---------------------------------------------------------------------------
# Facts / base files: the complete interface to the spectra engine
# ---------------------------------------------------------------------------

def write_facts(state: ClosureState) -> str:
    lines = []
    for k in sorted(state.per_k):
        for tid in sorted(state.per_k[k], key=lambda t: state.digest_of(t)):
            for size in state.base_sizes.get(tid, ()):
                lines.append(f"base t={state.digest_of(tid)} size={size} k={k}")
    for fact in state.facts:
        lines.append(
            f"fact t1={state.digest_of(fact.t1)} t2={state.digest_of(fact.t2)} "
            f"scheme={fact.scheme_id} t={state.digest_of(fact.t)} j={fact.j}"
        )
    return "\n".join(lines) + "\n"


def parse_facts(text: str):
    """Parse base/fact lines into (base: digest -> sizes, facts list); a
    base line's ``k`` is optional."""
    base = {}
    facts = []
    reader = LineReader(text, keywords=("base", "fact"))
    for kind, *items in reader:
        if kind == "base":
            fields = reader.fields(items, ("t", "size"), "base field", ("k",))
            base.setdefault(fields["t"], set()).add(reader.integer(fields["size"], "size"))
            if "k" in fields:
                reader.integer(fields["k"], "k")
        else:
            fields = reader.fields(items, ("t1", "t2", "scheme", "t", "j"), "fact field")
            facts.append((fields["t1"], fields["t2"], fields["scheme"], fields["t"],
                          reader.integer(fields["j"], "j")))
    return base, facts
