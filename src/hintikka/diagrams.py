"""Canonical quantifier-free diagrams: the one module that builds them.

``qf_core`` turns a tuple of elements of a structure into the equality
type, relation atoms and class representatives of its diagram; Th^0
(``DiagramEngine``) and glue's pattern part types are read from it.
``complete_diagrams`` enumerates every syntactically complete diagram of an
equality type; the formal theory space and the pattern space are built
from it. ``unpack_diagram`` reads a diagram from packed atom bits, as the
transfer kernel computes them.

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
int id on first sight and keeps its tuple once, and depth-0 payloads,
intern keys and the transfer kernel's memos hold ids. Only a new theory
sorts its diagrams as tuples, for its digest.
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
    rel = tuple(_unpack(bits, n ** a) for bits, a in zip(sig, arities))
    sets = tuple(_unpack(bits, n) for bits in sig[len(arities):])
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


def vars_distinct_nonconst(diag) -> bool:
    """True when every variable slot is a singleton class distinct from constants."""
    v, eq, _, _ = diag
    return len(set(eq[:v])) == v and not (set(eq[:v]) & set(eq[v:]))


class DiagramEngine:
    """Precomputes the set-independent part of every r-tuple diagram of a
    structure so that Th^0 under varying set expansions is cheap.

    Set columns are passed as bitmasks over the universe.
    """

    def __init__(self, m: Structure, r: int):
        self.m = m
        self.r = r
        self.base_masks = tuple(_mask(s) for s in m.sets)
        self.cores = [qf_core(m, elems + m.consts)     # (eq, rel, reps) per r-tuple
                      for elems in itertools.product(range(m.size), repeat=r)]
        self.const_core = qf_core(m, m.consts)

    # -- packed fast path (used by compute_theory's subset recursion) -------

    def _prepare_packed(self):
        """Per core, its shape id and the class-membership bits of the
        structure's own set columns packed into one int each."""
        shapes = {}
        core_shape = []
        base_sig = []
        for eq, rel, reps in self.cores:
            shape = (eq, rel)
            sid = shapes.setdefault(shape, len(shapes))
            core_shape.append(sid)
            base_sig.append(tuple(_pack(mask, reps) for mask in self.base_masks))
        self._shapes = {v: k for k, v in shapes.items()}
        self._core_shape = core_shape
        self._core_reps = [reps for _, _, reps in self.cores]
        self._base_sig = base_sig
        self._const_base = tuple(_pack(mask, self.const_core[2]) for mask in self.base_masks)
        self._rows = None
        self._local = {}
        self._local_list = []

    def _subset_rows(self):
        """Per core, then for the constant core, the packed class bits of
        every subset mask; feasible only for small universes (None
        otherwise). Built on the first call with extra set columns, since a
        depth-0 theory reads none of it."""
        nmasks = 2 ** self.m.size
        if self._rows is None and nmasks <= 4096:
            self._rows = [[_pack(u, reps) for u in range(nmasks)]
                          for reps in self._core_reps + [self.const_core[2]]]
        return self._rows

    def th0_local(self, extra_masks: tuple):
        """Realized r-diagrams and the constant diagram under the given extra
        set columns, as engine-local ids (cheap to hash).

        Use resolve_local to convert them back into canonical diagram tuples
        when interning.
        """
        if not hasattr(self, "_core_shape"):
            self._prepare_packed()
        local = self._local
        local_list = self._local_list
        realized = set()
        add = realized.add
        rows = self._subset_rows() if extra_masks else None
        for idx, sid in enumerate(self._core_shape):
            if rows is not None:
                row = rows[idx]
                sig = tuple(row[u] for u in extra_masks)
            else:
                reps = self._core_reps[idx]
                sig = tuple(_pack(u, reps) for u in extra_masks)
            key = (sid, self._base_sig[idx] + sig)
            lid = local.get(key)
            if lid is None:
                lid = len(local_list)
                local[key] = lid
                local_list.append(key)
            add(lid)
        if rows is not None:
            csig = tuple(rows[-1][u] for u in extra_masks)
        else:
            csig = tuple(_pack(u, self.const_core[2]) for u in extra_masks)
        const_key = ("c", self._const_base + csig)
        cid = local.get(const_key)
        if cid is None:
            cid = len(local_list)
            local[const_key] = cid
            local_list.append(const_key)
        return frozenset(realized), cid

    def resolve_local(self, lid: int):
        key = self._local_list[lid]
        if key[0] == "c":
            eq0, rel0, reps0 = self.const_core
            return (0, eq0, rel0, tuple(_unpack(sig, len(reps0)) for sig in key[1]))
        eq, rel = self._shapes[key[0]]
        nclasses = max(eq) + 1 if eq else 0
        return (self.r, eq, rel, tuple(_unpack(sig, nclasses) for sig in key[1]))


def _pack(mask: int, reps) -> int:
    sig = 0
    for i, e in enumerate(reps):
        sig |= ((mask >> e) & 1) << i
    return sig


def _unpack(sig: int, width: int) -> tuple:
    return tuple(sig >> i & 1 == 1 for i in range(width))


def _mask(elems) -> int:
    mask = 0
    for e in elems:
        mask |= 1 << e
    return mask
