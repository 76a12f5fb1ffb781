"""Canonical quantifier-free diagrams: the one module that builds them.

``qf_core`` turns a tuple of elements of a structure into the equality
type, relation words and class representatives of its diagram; Th^0
(``DiagramEngine``) and glue's pattern part types are read from it.
``complete_diagrams`` enumerates every syntactically complete diagram of an
equality type; the formal theory space and the pattern space are built
from it.

A diagram is a shape (v, eq, rel) and a set word:

  v     number of variable slots; slots v.. are constant slots
  eq    class index per slot, numbered by first occurrence (n classes)
  rel   per predicate (vocabulary order), one int: bit e is the atom of
        the e-th class tuple in lexicographic order, under a sentinel bit
        at n ** arity that fixes the atom count without the arity
  word  the m set columns: column j, class c at bit j * n + c, under a
        sentinel bit at m * max(n, 1) that fixes m, also when n = 0

Completeness: every atomic formula over the slot terms has a value; equal
terms share a class, so atoms are stored once per class tuple. Reindexing
operations need the predicate arities, which diagrams do not carry.

``theory.Interner`` keeps each shape once under a shape id; a diagram's key
is ``shape id | word << SHAPE_BITS``, and its id, the interner's id of that
key, is the one name that Th^0, payloads and the transfer kernel use. The
bool form (v, eq, rel, sets), a bool tuple per relation word and set
column, is built only to sort or print diagrams: digests, patterns, payloads.
"""

from __future__ import annotations

import itertools

from .structures import Structure

# a diagram key: the shape id in the low SHAPE_BITS bits, the set word above
SHAPE_BITS = 32
SHAPE_MASK = (1 << SHAPE_BITS) - 1
_DIGITS = bytes.maketrans(b"\0\1", b"01")       # bytes of bools to binary digits


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


def bits_word(bools) -> int:
    """The word of a sequence of bools listed from its highest bit down to
    bit 0, under a sentinel bit at its length."""
    return int(b"1" + bytes(bools).translate(_DIGITS), 2)


def gather(word: int, reads) -> int:
    """The word of the bits of ``word`` at positions ``reads`` (highest bit
    first) under a sentinel bit; a position above the word's sentinel reads
    a 0."""
    out = 1
    for pos in reads:
        out = out << 1 | word >> pos & 1
    return out


def qf_core(m: Structure, elements) -> tuple:
    """(eq, rel, reps) of a tuple of elements of m: its diagram without the
    set columns, and the element representing each class, by first
    occurrence. Set columns are read from ``reps``."""
    reps = tuple(dict.fromkeys(elements))
    eq = tuple(map({e: c for c, e in enumerate(reps)}.__getitem__, elements))
    # class tuples over reversed reps come highest atom first
    rel = tuple(bits_word(map(tuples.__contains__, itertools.product(reps[::-1], repeat=a)))
                for (_, a), tuples in zip(m.vocab.predicates, m.relations))
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


def unpack_rel(rel) -> tuple:
    """The bool form of relation words: per word, its bits under its
    sentinel as bools, bit 0 first."""
    return tuple(tuple(map("1".__eq__, format(word, "b")[:0:-1])) for word in rel)


def subdiagram(interner, did: int, slots, arities, new_v=None) -> int:
    """The id of the diagram over an arbitrary slot list of diagram ``did``.

    The first ``new_v`` positions of ``slots`` become variable slots (all of
    them by default). ``arities`` are the predicate arities, in diagram order.
    """
    _, eq, rel, word = interner.split(did)
    old_classes = [eq[s] for s in slots]
    reps = tuple(dict.fromkeys(old_classes))        # old class of each new class
    n_old, n = nclasses(eq), len(reps)
    new_rel = []
    for atoms, arity in zip(rel, arities):
        reads = [0]         # old atom index per new class tuple, highest first
        for _ in range(arity):
            reads = [i * n_old + c for i in reads for c in reps[::-1]]
        new_rel.append(gather(atoms, reads))
    m = column_count(word, n_old)
    bits = sum((word >> j * n_old + c & 1) << j * n + i
               for j in range(m) for i, c in enumerate(reps))
    sid = interner.shape_id(len(slots) if new_v is None else new_v,
                            canonical_eq(old_classes), tuple(new_rel))
    return interner.key_id(sid | set_word(bits, m, n) << SHAPE_BITS)


class DiagramEngine:
    """Th^0 of one structure under extra set columns, as ids of the
    interner it is given. Each r-tuple (followed by the constants) is a row,
    and the constants alone are one more row, with v = 0. Rows are grouped
    by class representatives, which fix the relation words and set bits: a
    group keeps its representatives, base set bits and its rows' shape ids;
    a call adds the class bits of each extra column (bitmasks over the
    universe) once per group and hands the rows' keys to the interner. The
    constant row is the last row of group ``_const``.
    """

    def __init__(self, m: Structure, r: int, interner):
        self.m = m
        self.interner = interner
        shape_id = interner.shape_id
        base_masks = tuple(sum(1 << e for e in s) for s in m.sets)
        groups = {}                 # reps -> (rel words, shape ids)
        rows = [(r, elems + m.consts) for elems in itertools.product(range(m.size), repeat=r)]
        for v, elements in rows + [(0, m.consts)]:
            reps = tuple(dict.fromkeys(elements))
            group = groups.get(reps)
            if group is None:
                group = groups[reps] = (qf_core(m, reps)[1], [])
            rel, sids = group
            sids.append(shape_id(v, tuple(map(reps.index, elements)), rel))
        self._groups = [(reps, sum(_pack(mask, reps) << j * len(reps)
                                   for j, mask in enumerate(base_masks)), sids)
                        for reps, (_, sids) in groups.items()]
        self._const = list(groups).index(tuple(dict.fromkeys(m.consts)))
        self._subset_table = None

    def _subset_rows(self):
        """Per group, the packed class bits of every subset mask; feasible
        only for small universes (None otherwise). Built on the first call
        with two or more extra set columns, the first to read entries twice."""
        nmasks = 2 ** self.m.size
        if self._subset_table is None and nmasks <= 4096:
            self._subset_table = [[_pack(u, reps) for u in range(nmasks)]
                                  for reps, _, _ in self._groups]
        return self._subset_table

    def th0_local(self, extra_masks: tuple):
        """The ids of the realized r-diagrams and the id of the constant
        diagram, under the given extra set columns."""
        table = self._subset_rows() if len(extra_masks) > 1 else None
        base_m = len(self.m.sets)
        m = base_m + len(extra_masks)
        keys = []
        for idx, (reps, bits, sids) in enumerate(self._groups):
            n = len(reps)
            shift = base_m * n
            for u in extra_masks:
                bits |= (_pack(u, reps) if table is None else table[idx][u]) << shift
                shift += n
            word = set_word(bits, m, n) << SHAPE_BITS
            keys += map(word.__or__, sids)
            if idx == self._const:
                const_key = keys.pop()
        key_id = self.interner.key_id
        cid = key_id(const_key)
        return frozenset(map(key_id, keys)), cid


def _pack(mask: int, reps) -> int:
    sig = 0
    for i, e in enumerate(reps):
        sig |= ((mask >> e) & 1) << i
    return sig


def unpack_bits(sig: int, width: int) -> tuple:
    """The low ``width`` bits of ``sig`` as bools, bit i first."""
    return tuple(sig >> i & 1 == 1 for i in range(width))
