"""Fixpoint closure of base theories under scheme transfers.

Starting from the theories of small base models (per result-constant count),
repeatedly apply every scheme to every reachable pair until nothing new
appears. Every evaluated derivation is recorded as a CompositionFact; the
facts plus base sizes are the complete input for spectrum computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .composition import distinct_consts, glue, transfer
from .config import DEFAULT, Config
from .errors import HintikkaError
from .lineformat import LineReader
from .structures import Structure
from .theory import Theory, compute_theory


@dataclass(frozen=True)
class CompositionFact:
    """One derivation t = F(t1, t2, scheme), with size deficit j."""

    t1: Theory
    t2: Theory
    scheme_id: str
    t: Theory
    j: int


@dataclass
class ClosureState:
    per_k: dict                 # k -> frozenset of theories
    facts: tuple                # CompositionFacts, by intern ids of t1, t2, then scheme
    base_sizes: dict            # theory -> tuple of sizes
    base_witness: dict          # theory -> Structure
    schemes: dict               # scheme_id -> Scheme
    depth: int
    iterations: int
    status: str                 # "converged" | "not-converged"

    def reachable(self) -> frozenset:
        return frozenset().union(*self.per_k.values())


def close(base, schemes, depth: int, max_iter: int = 64) -> ClosureState:
    """Iterate T_k <- T_k + {transfer(t1, t2, s)} to the fixpoint.

    ``base`` maps a constant count k to an iterable of (Theory, size) or
    (Theory, size, witness Structure) entries, every theory from one
    interner. Stops at the first sweep that adds no fact, or reports
    "not-converged" after max_iter sweeps. Pairs are transferred in the
    order of their intern ids, so the same base interns the same ids.
    Theories whose constants are not pairwise distinct stay reachable but
    are never used as gluing inputs (the scheme size law needs distinctness).
    """
    if max_iter < 1:
        raise HintikkaError("max_iter must be >= 1")
    scheme_map = {s.scheme_id: s for s in schemes}

    per_k, base_sizes, base_witness, interner = {}, {}, {}, None
    for k, entries in base.items():
        theories = per_k[k] = set()
        for theory, size, *witness in entries:
            if interner is None:
                interner = theory.interner
            elif theory.interner is not interner:
                raise HintikkaError(f"base theory {theory.digest} filed under k={k} "
                                    "comes from another interner than the first")
            if theory.k != k:
                raise HintikkaError(f"base theory with k={theory.k} filed under k={k}")
            theories.add(theory)
            base_sizes.setdefault(theory, set()).add(size)
            if witness and witness[0] is not None:
                base_witness.setdefault(theory, witness[0])

    facts = []
    fresh = per_k               # the first sweep pairs base with base
    status = "not-converged"
    for iterations in range(1, max_iter + 1):
        known = len(facts)
        new_by_k = {}
        for sid in sorted(scheme_map):
            s = scheme_map[sid]
            # new x all, then all x new: every pair holds a theory first
            # reached in the sweep before, so none was transferred yet
            pairs = {(a, b) for a in fresh.get(s.k1, ()) for b in per_k.get(s.k2, ())}
            pairs.update((a, b) for a in per_k.get(s.k1, ()) for b in fresh.get(s.k2, ()))
            for t1, t2 in sorted(pairs, key=lambda p: (p[0].intern_id, p[1].intern_id)):
                if not (distinct_consts(t1) and distinct_consts(t2)):
                    continue
                t = transfer(t1, t2, s)
                facts.append(CompositionFact(t1, t2, sid, t, s.j))
                if t not in per_k.setdefault(s.k, set()):
                    new_by_k.setdefault(s.k, set()).add(t)
        for k, new in new_by_k.items():
            per_k[k] |= new
        fresh = new_by_k
        if len(facts) == known:
            status = "converged"
            break

    facts.sort(key=lambda f: (f.t1.intern_id, f.t2.intern_id, f.scheme_id))
    return ClosureState(
        per_k={k: frozenset(ts) for k, ts in per_k.items()},
        facts=tuple(facts),
        base_sizes={t: tuple(sorted(s)) for t, s in base_sizes.items()},
        base_witness=base_witness,
        schemes=scheme_map,
        depth=depth,
        iterations=iterations,
        status=status,
    )


def minimal_derivations(state: ClosureState):
    """Per theory, the smallest witness size and the fact (or None) that
    attains it; ties broken by fact order."""
    best = {t: (min(sizes), None) for t, sizes in state.base_sizes.items()}
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


def replay_witness(state: ClosureState, theory: Theory) -> Structure:
    """Build an explicit structure realizing a reachable theory by replaying
    its minimal derivation."""
    derivations = minimal_derivations(state)

    def build(t):
        if t not in derivations:
            raise HintikkaError(f"theory {t.digest} not reachable")
        _, fact = derivations[t]
        if fact is None:
            witness = state.base_witness.get(t)
            if witness is None:
                raise HintikkaError(f"no base witness stored for theory {t.digest}")
            return witness
        scheme = state.schemes[fact.scheme_id]
        return glue(build(fact.t1), build(fact.t2), scheme)

    return build(theory)


def validate_replay(state: ClosureState, config: Config = DEFAULT) -> dict:
    """Check compute_theory(replay_witness(t)) is t for every reachable
    theory, in intern order."""
    results = {}
    for t in sorted(state.reachable(), key=lambda t: t.intern_id):
        witness = replay_witness(state, t)
        got = compute_theory(witness, state.depth, t.interner, config)
        results[t] = (got is t, witness.size)
    return results


# ---------------------------------------------------------------------------
# Facts / base files: the complete interface to the spectra engine
# ---------------------------------------------------------------------------

def write_facts(state: ClosureState) -> str:
    lines = []
    for k in sorted(state.per_k):
        for t in sorted(state.per_k[k], key=lambda t: t.digest):
            for size in state.base_sizes.get(t, ()):
                lines.append(f"base t={t.digest} size={size} k={k}")
    for f in state.facts:
        lines.append(f"fact t1={f.t1.digest} t2={f.t2.digest} "
                     f"scheme={f.scheme_id} t={f.t.digest} j={f.j}")
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
