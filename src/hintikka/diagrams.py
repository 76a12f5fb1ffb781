"""Canonical quantifier-free diagrams: the one module that builds them.

``qf_core`` turns a tuple of elements of a structure into the equality
type, relation atoms and class representatives of its diagram; Th^0
(``DiagramEngine``) and glue's pattern part types are read from it.
``complete_diagrams`` enumerates every syntactically complete diagram of an
equality type; the formal theory space and the pattern space are built
from it.

A diagram is a shape (v, eq, rel) and a set word:

  v     number of variable slots; slots v.. are constant slots
  eq    class index per slot, numbered by first occurrence (n classes)
  rel   per predicate (vocabulary order), a flat bool tuple indexed by
        class-index tuples in lexicographic order
  word  the m set columns: column j, class c at bit j * n + c, under a
        sentinel bit at m * max(n, 1) that fixes m, also when n = 0

Completeness: every atomic formula over the slot terms has a value; equal
terms share a class, so atoms are stored once per class tuple. Reindexing
operations need the predicate arities, which diagrams do not carry.

``theory.Interner`` keeps each shape once under a shape id; a diagram's key
is ``shape id | word << SHAPE_BITS``, and its id, the interner's id of that
key, is the one name that Th^0, payloads and the transfer kernel use. The
bool form (v, eq, rel, sets), a bool tuple per set column indexed by class,
is built only to sort or print diagrams: digests, patterns, payloads.
"""

from __future__ import annotations

import itertools

from .structures import Structure

# a diagram key: the shape id in the low SHAPE_BITS bits, the set word above
SHAPE_BITS = 32
SHAPE_MASK = (1 << SHAPE_BITS) - 1


def canonical_eq(classes_by_slot) -> tuple:
    """Renumber arbitrary class labels (a sequence) by first occurrence."""
    first = {c: i for i, c in enumerate(dict.fromkeys(classes_by_slot))}
    return tuple(map(first.__getitem__, classes_by_slot))


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


def nclasses(eq) -> int:
    return max(eq) + 1 if eq else 0


def set_word(bits: int, m: int, n: int) -> int:
    """The set word of m columns over n classes: bits under their sentinel."""
    return bits | 1 << m * (n or 1)


def column_count(word: int, n: int) -> int:
    """m of a set word over n classes."""
    return (word.bit_length() - 1) // (n or 1)


def qf_core(m: Structure, elements) -> tuple:
    """(eq, rel, reps) of a tuple of elements of m: its diagram without the
    set columns, and the element representing each class, by first
    occurrence. Set columns are read from ``reps``."""
    reps = tuple(dict.fromkeys(elements))
    eq = tuple(map({e: c for c, e in enumerate(reps)}.__getitem__, elements))
    rel = tuple(tuple(map(tuples.__contains__, itertools.product(reps, repeat=arity)))
                for (_, arity), tuples in zip(m.vocab.predicates, m.relations))
    return eq, rel, reps


def diagram_bits(n: int, arities, m: int) -> int:
    """Atom count of a complete diagram with n classes: relation atoms plus
    set-column atoms."""
    return sum(n ** a for a in arities) + n * m


def complete_diagrams(v: int, eq, arities, m: int):
    """Every complete diagram with v variable slots and equality type eq, in
    bool form, relation atoms varying slowest, then set columns. This order
    decides pattern order and formal-space interning."""
    n = nclasses(eq)
    rel_spaces = [list(itertools.product((False, True), repeat=n ** a)) for a in arities]
    set_space = list(itertools.product((False, True), repeat=n))
    for rel in itertools.product(*rel_spaces):
        for sets in itertools.product(set_space, repeat=m):
            yield (v, eq, rel, sets)


def unpack_rel(masks, n: int, arities) -> tuple:
    """rel over n classes whose atoms of each predicate are the bits of one
    int, bit e for the e-th class tuple."""
    return tuple(unpack_bits(bits, n ** a) for bits, a in zip(masks, arities))


def subdiagram(interner, did: int, slots, arities, new_v=None) -> int:
    """The id of the diagram over an arbitrary slot list of diagram ``did``.

    The first ``new_v`` positions of ``slots`` become variable slots (all of
    them by default). ``arities`` are the predicate arities, in diagram order.
    """
    _, eq, rel, word = interner.split(did)
    old_classes = [eq[s] for s in slots]
    reps = tuple(dict.fromkeys(old_classes))        # old class of each new class
    n_old, n = nclasses(eq), len(reps)
    new_rel = tuple(tuple(atoms[rel_index(ct, n_old)]
                          for ct in itertools.product(reps, repeat=arity))
                    for atoms, arity in zip(rel, arities))
    m = column_count(word, n_old)
    bits = sum((word >> j * n_old + c & 1) << j * n + i
               for j in range(m) for i, c in enumerate(reps))
    sid = interner.shape_id(len(slots) if new_v is None else new_v,
                            canonical_eq(old_classes), new_rel)
    return interner.key_id(sid | set_word(bits, m, n) << SHAPE_BITS)


class DiagramEngine:
    """Th^0 of one structure under extra set columns, as ids of the
    interner it is given. Each r-tuple (followed by the constants) is a row,
    and the constants alone are one more row, with v = 0. A row keeps its
    shape id, class count, base set bits and class representatives; a call
    adds the class bits of each extra column (bitmasks over the universe)
    and hands the row's key to the interner.
    """

    def __init__(self, m: Structure, r: int, interner):
        self.m = m
        self.interner = interner
        base_masks = tuple(sum(1 << e for e in s) for s in m.sets)
        self._rows = []             # per row: (shape id, class count, base set bits, reps)
        tuples = [(r, elems + m.consts)
                  for elems in itertools.product(range(m.size), repeat=r)]
        for v, elems in tuples + [(0, m.consts)]:
            eq, rel, reps = qf_core(m, elems)
            n = len(reps)
            bits = sum(_pack(mask, reps) << j * n for j, mask in enumerate(base_masks))
            self._rows.append((interner.shape_id(v, eq, rel), n, bits, reps))
        self._subset_table = None

    def _subset_rows(self):
        """Per row, the packed class bits of every subset mask; feasible
        only for small universes (None otherwise). Built on the first call
        with two or more extra set columns, the first to read entries twice."""
        nmasks = 2 ** self.m.size
        if self._subset_table is None and nmasks <= 4096:
            self._subset_table = [[_pack(u, reps) for u in range(nmasks)]
                                  for _, _, _, reps in self._rows]
        return self._subset_table

    def th0_local(self, extra_masks: tuple):
        """The ids of the realized r-diagrams and the id of the constant
        diagram, under the given extra set columns."""
        key_id = self.interner.key_id
        table = self._subset_rows() if len(extra_masks) > 1 else None
        base_m = len(self.m.sets)
        m = base_m + len(extra_masks)
        out = []
        for idx, (sid, n, bits, reps) in enumerate(self._rows):
            shift = base_m * n
            for u in extra_masks:
                bits |= (_pack(u, reps) if table is None else table[idx][u]) << shift
                shift += n
            out.append(key_id(sid | set_word(bits, m, n) << SHAPE_BITS))
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
