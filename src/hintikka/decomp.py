"""Weak decomposability checking and the small-equivalent-model search.

A (k, m)-split covers the universe with two parts of size >= m overlapping
in at most k elements, every relation tuple lying wholly inside one part and
the parts' relations jointly covering the original. The search enumerates
separators of size <= k: outside the separator, tuple-connected components
must go wholly to one side, so a split exists exactly when the component
sizes admit a two-sided subset sum. The naive all-splits enumeration is kept
as an oracle and the two must agree exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .config import DEFAULT, Config
from .errors import HintikkaError
from .structures import Structure
from .theory import Interner, compute_theory


@dataclass(frozen=True)
class Split:
    a1: frozenset
    a2: frozenset
    assign: tuple      # per predicate, frozenset of tuples in part 1; rest part 2

    def part_relations(self, m: Structure):
        rel1, rel2 = [], []
        for idx, rel in enumerate(m.relations):
            ones = self.assign[idx]
            rel1.append(frozenset(ones))
            rel2.append(frozenset(rel - ones))
        return tuple(rel1), tuple(rel2)


def validate_split(m: Structure, split: Split, k: int, min_size: int):
    """Literal check of every clause; None when valid, else a description."""
    universe = frozenset(range(m.size))
    if split.a1 | split.a2 != universe:
        return "parts do not cover the universe"
    if len(split.a1 & split.a2) > k:
        return f"overlap {len(split.a1 & split.a2)} exceeds {k}"
    if len(split.a1) < min_size or len(split.a2) < min_size:
        return f"part smaller than {min_size}"
    rel1, rel2 = split.part_relations(m)
    for idx, rel in enumerate(m.relations):
        if rel1[idx] | rel2[idx] != rel:
            return "part relations do not cover the original"
        for t in rel1[idx]:
            if not set(t) <= split.a1:
                return f"tuple {t} assigned to part 1 but not inside it"
        for t in rel2[idx]:
            if not set(t) <= split.a2:
                return f"tuple {t} assigned to part 2 but not inside it"
    return None


def _components(m: Structure, separator: frozenset):
    """Union-find components of universe minus separator, where each
    relation tuple not fully inside the separator links its outside part."""
    parent = list(range(m.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for rel in m.relations:
        for t in rel:
            outside = [e for e in set(t) if e not in separator]
            for a, b in zip(outside, outside[1:]):
                union(a, b)
    comps = {}
    for e in range(m.size):
        if e in separator:
            continue
        comps.setdefault(find(e), []).append(e)
    return [sorted(c) for _, c in sorted(comps.items())]


def decompose(m: Structure, k: int, min_size: int, config: Config = DEFAULT):
    """A valid (k, min_size)-split, or None. Exhaustive and exact.

    Separators are scanned in canonical order (size, then lexicographic);
    within one separator, components are split by subset-sum reachability.
    Tuples fully inside the overlap go to part 1 by convention.
    """
    if k < 0 or min_size < 0:
        raise HintikkaError("k and m must be natural numbers")
    config.check("decomp_size", m.size, config.decomp_size_max)
    config.check("decomp_k", k, config.decomp_k_max)

    universe = list(range(m.size))
    for sep_size in range(0, k + 1):
        for sep in itertools.combinations(universe, sep_size):
            separator = frozenset(sep)
            comps = _components(m, separator)
            sizes = [len(c) for c in comps]
            need = min_size - len(separator)
            total = sum(sizes)
            # reachable subset sums with a parent pointer for reconstruction
            reachable = {0: None}
            for idx, s in enumerate(sizes):
                additions = {}
                for acc in reachable:
                    if acc + s not in reachable and acc + s not in additions:
                        additions[acc + s] = (acc, idx)
                reachable.update(additions)
            choice = None
            for acc in sorted(reachable):
                if acc >= need and total - acc >= need:
                    choice = acc
                    break
            if choice is None:
                continue
            picked = set()
            acc = choice
            while reachable[acc] is not None:
                prev, idx = reachable[acc]
                picked.add(idx)
                acc = prev
            a1 = set(separator)
            for idx in picked:
                a1.update(comps[idx])
            a2 = set(separator)
            for idx, comp in enumerate(comps):
                if idx not in picked:
                    a2.update(comp)
            a1, a2 = frozenset(a1), frozenset(a2)
            assign = tuple(
                frozenset(t for t in rel if set(t) <= a1)
                for rel in m.relations
            )
            split = Split(a1, a2, assign)
            problem = validate_split(m, split, k, min_size)
            if problem is not None:
                raise HintikkaError(f"internal: constructed split invalid: {problem}")
            return split
    return None


def naive_decomposable(m: Structure, k: int, min_size: int) -> bool:
    """Oracle: enumerate every assignment of elements to part1/part2/both."""
    for assignment in itertools.product((1, 2, 3), repeat=m.size):
        a1 = {e for e, a in enumerate(assignment) if a & 1}
        a2 = {e for e, a in enumerate(assignment) if a & 2}
        if len(a1) < min_size or len(a2) < min_size:
            continue
        if len(a1 & a2) > k:
            continue
        if all(set(t) <= a1 or set(t) <= a2 for rel in m.relations for t in rel):
            return True
    return False


@dataclass(frozen=True)
class ProfileRow:
    size: int
    decomposable: bool
    split: Split


def decomposability_profile(structures, k: int, min_size: int,
                            config: Config = DEFAULT) -> tuple:
    rows = []
    for m in structures:
        split = decompose(m, k, min_size, config)
        rows.append(ProfileRow(m.size, split is not None, split))
    return tuple(rows)


def find_small_equivalent(m: Structure, depth: int, size_max: int,
                          interner: Interner, config: Config = DEFAULT):
    """Some structure with k < size <= size_max and the same depth-d theory,
    by exhaustive enumeration; None if no candidate exists within the bound."""
    from .structures import enumerate_representatives

    if size_max < 0:
        raise HintikkaError("size bound must be a natural number")
    target = compute_theory(m, depth, interner, config)
    k = m.vocab.num_consts
    for size in range(k + 1, size_max + 1):
        for cand in enumerate_representatives(m.vocab, size, config):
            if compute_theory(cand, depth, interner, config) is target:
                return cand
    return None
