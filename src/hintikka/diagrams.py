"""Canonical quantifier-free diagrams: the one module that builds them.

``qf_core`` turns a tuple of elements of a structure into the equality
type, relation atoms and class representatives of its diagram; Th^0
(``DiagramEngine``) and glue's pattern part types are read from it.
``complete_diagrams`` enumerates every syntactically complete diagram of an
equality type; the formal theory space and the pattern space are built
from it. The transfer kernel joins base diagrams as packed atom bits,
which ``unpack_diagram`` reads back, and appends lifted columns (``unpack_bits``).

A diagram is a plain nested tuple (v, eq, rel, sets):

  v     number of variable slots; slots v.. are constant slots
  eq    class index per slot, numbered by first occurrence
  rel   per predicate (vocabulary order), a flat bool tuple indexed by
        class-index tuples in lexicographic order
  sets  per set column, a bool tuple indexed by class

Completeness: every atomic formula over the slot terms has a value; equal
terms share a class, so atoms are stored once per class tuple. Reindexing
operations need the predicate arities, which diagrams do not carry.

Theories refer to diagrams by id: ``theory.Interner`` gives each diagram an
int id on first sight and keeps its tuple once. There is one id space:
``DiagramEngine`` returns the interner's ids, and depth-0 payloads, intern
keys and the transfer kernel's memos hold them. Diagrams are sorted as
tuples only for digests, when one is first read: once per batch of new
depth-0 theories, over the union of their diagrams.
"""

from __future__ import annotations

import itertools

from .structures import Structure


def canonical_eq(classes_by_slot) -> tuple:
    """Renumber arbitrary class labels by first occurrence."""
    seen = {}
    out = []
    for c in classes_by_slot:
        if c not in seen:
            seen[c] = len(seen)
        out.append(seen[c])
    return tuple(out)


def partitions(n: int):
    """All canonical first-occurrence partitions of n slots."""
    if n == 0:
        yield ()
        return
    def rec(prefix, used):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for c in range(used + 1):
            yield from rec(prefix + [c], max(used, c + 1))
    yield from rec([], 0)


def rel_index(class_tuple, nclasses: int) -> int:
    idx = 0
    for c in class_tuple:
        idx = idx * nclasses + c
    return idx


def qf_core(m: Structure, elements) -> tuple:
    """(eq, rel, reps) of a tuple of elements of m: its diagram without the
    set columns, and the element representing each class, by first
    occurrence. Set columns are read from ``reps``."""
    eq = canonical_eq(elements)
    reps = tuple(dict.fromkeys(elements))
    nclasses = len(reps)
    rel = tuple(
        tuple(
            tuple(reps[c] for c in ct) in tuples
            for ct in itertools.product(range(nclasses), repeat=arity)
        )
        for (_, arity), tuples in zip(m.vocab.predicates, m.relations)
    )
    return eq, rel, reps


def diagram_bits(n: int, arities, m: int) -> int:
    """Atom count of a complete diagram with n classes: relation atoms plus
    set-column atoms."""
    return sum(n ** a for a in arities) + n * m


def complete_diagrams(v: int, eq, arities, m: int):
    """Every complete diagram with v variable slots and equality type eq,
    relation atoms varying slowest, then set columns. This order decides
    pattern order and formal-space interning."""
    n = max(eq) + 1 if eq else 0
    rel_spaces = [list(itertools.product((False, True), repeat=n ** a)) for a in arities]
    set_space = list(itertools.product((False, True), repeat=n))
    for rel in itertools.product(*rel_spaces):
        for sets in itertools.product(set_space, repeat=m):
            yield (v, eq, rel, sets)


def unpack_diagram(v: int, eq, sig, arities) -> tuple:
    """The diagram whose atoms are the bits of ``sig``: one int per
    predicate, then one per set column, bit e for the e-th atom."""
    n = max(eq) + 1 if eq else 0
    rel = tuple(unpack_bits(bits, n ** a) for bits, a in zip(sig, arities))
    sets = tuple(unpack_bits(bits, n) for bits in sig[len(arities):])
    return (v, eq, rel, sets)


def subdiagram(diag, slots, arities, new_v=None) -> tuple:
    """Diagram over an arbitrary slot list of ``diag``.

    The first ``new_v`` positions of ``slots`` become variable slots (all of
    them by default). ``arities`` are the predicate arities, in diagram order.
    """
    v, eq, rel, sets = diag
    if new_v is None:
        new_v = len(slots)
    old_classes = [eq[s] for s in slots]
    new_eq = canonical_eq(old_classes)
    n_new = max(new_eq) + 1 if new_eq else 0
    rep_old = [None] * n_new
    for pos, nc in enumerate(new_eq):
        if rep_old[nc] is None:
            rep_old[nc] = old_classes[pos]
    n_old = max(eq) + 1 if eq else 0
    new_rel = tuple(
        tuple(
            atoms[rel_index(tuple(rep_old[c] for c in ct), n_old)]
            for ct in itertools.product(range(n_new), repeat=arity)
        )
        for atoms, arity in zip(rel, arities)
    )
    new_sets = tuple(tuple(col[rep_old[c]] for c in range(n_new)) for col in sets)
    return (new_v, new_eq, new_rel, new_sets)


class DiagramEngine:
    """Th^0 of one structure under extra set columns, as ids of the
    interner it is given. Each r-tuple (followed by the constants) is a row,
    and the constants alone are one more row, with v = 0. A row's diagram is
    its set-independent shape (v, eq, rel) plus the packed class bits of
    every set column (bitmasks over the universe); each distinct (shape,
    set bits) key is interned once per engine.
    """

    def __init__(self, m: Structure, r: int, interner):
        self.m = m
        self.interner = interner
        base_masks = tuple(sum(1 << e for e in s) for s in m.sets)
        shapes = {}                 # (v, eq, rel) -> shape index
        self._rows = []             # per row: (shape index, base set bits, reps)
        tuples = [(r, elems + m.consts)
                  for elems in itertools.product(range(m.size), repeat=r)]
        for v, elems in tuples + [(0, m.consts)]:
            eq, rel, reps = qf_core(m, elems)
            sid = shapes.setdefault((v, eq, rel), len(shapes))
            self._rows.append((sid, tuple(_pack(mask, reps) for mask in base_masks), reps))
        self._shapes = list(shapes)
        self._ids = {}              # (shape index, set bits) -> diagram id
        self._subset_table = None

    def _subset_rows(self):
        """Per row, the packed class bits of every subset mask; feasible
        only for small universes (None otherwise). Built on the first call
        with extra set columns, since a depth-0 theory reads none of it."""
        nmasks = 2 ** self.m.size
        if self._subset_table is None and nmasks <= 4096:
            self._subset_table = [[_pack(u, reps) for u in range(nmasks)]
                                  for _, _, reps in self._rows]
        return self._subset_table

    def th0_local(self, extra_masks: tuple):
        """The ids of the realized r-diagrams and the id of the constant
        diagram, under the given extra set columns."""
        ids = self._ids
        table = self._subset_rows() if extra_masks else None
        out = []
        for idx, (sid, base, reps) in enumerate(self._rows):
            if table is not None:
                row = table[idx]
                key = (sid, base + tuple(row[u] for u in extra_masks))
            else:
                key = (sid, base + tuple(_pack(u, reps) for u in extra_masks))
            did = ids.get(key)
            if did is None:
                v, eq, rel = self._shapes[sid]
                n = max(eq) + 1 if eq else 0
                did = ids[key] = self.interner.diagram_id(
                    (v, eq, rel, tuple(unpack_bits(bits, n) for bits in key[1])))
            out.append(did)
        cid = out.pop()
        return frozenset(out), cid


def _pack(mask: int, reps) -> int:
    sig = 0
    for i, e in enumerate(reps):
        sig |= ((mask >> e) & 1) << i
    return sig


def unpack_bits(sig: int, width: int) -> tuple:
    """The low ``width`` bits of ``sig`` as bools, bit i first."""
    return tuple(sig >> i & 1 == 1 for i in range(width))
