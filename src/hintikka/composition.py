"""Gluing schemes, the glue operation on structures, and the transfer
function on theories (the addition theorem).

A scheme amalgamates two structures over identified constants: constants may
be identified across parts, kept or dropped (dropped elements leave the
universe entirely), and every relation is redefined by a total truth table
over tuple patterns. A pattern records the equalities among positions, each
position's origin (non-constant of part 1 or 2, or a kept constant), and the
quantifier-free type of the part-projected subtuple in its own part. Tables
may therefore redefine relations even inside one part, clique-width style.

The transfer function computes the theory of the glued structure from the
parts' theories alone; glue is the oracle it is tested against. Its depth-0
kernel is one loop for every table kind: the parts' atoms are joined by OR,
which is the union table, and a tabled predicate then reads its entries from
its table. Its memos live on the Interner.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from operator import or_

from .config import DEFAULT, Config
from .diagrams import (SHAPE_BITS, canonical_eq, column_count, complete_diagrams, diagram_bits,
                       gather, nclasses, partitions, qf_core, rel_index, set_word, subdiagram,
                       unpack_rel)
from .errors import BudgetError, HintikkaError, ParseError, SignatureError
from .lineformat import LineReader
from .structures import Structure, Vocabulary
from .theory import Interner, Theory

REF_SHARED = "s"
REF_P1 = "1"
REF_P2 = "2"
IN_P1 = ("n1", REF_SHARED, REF_P1)      # origins of elements that part 1 has
IN_P2 = ("n2", REF_SHARED, REF_P2)


def _ref_str(ref) -> str:
    if ref[0] == REF_SHARED:
        return f"1.{ref[1]}"          # canonical name of an identified pair
    return f"{ref[0]}.{ref[1]}"


@dataclass(frozen=True)
class Scheme:
    """Gluing recipe: identification, keep/drop flags, result constants, and
    per-predicate pattern tables.

    ``tables`` maps predicate names (including set predicates "P<j>") to
    specs: ("union",), ("const", bool), ("map", default, overrides) with
    default in {"union", False, True}, or ("random", seed). Predicates
    without an entry use plain union. Tables cover the vocabulary's
    predicates and set columns only: the set columns introduced by theory
    depth are never tabled, and a table naming no column of the parts is
    ignored, by glue and transfer alike.
    """

    k1: int
    k2: int
    k: int
    ident: tuple = ()
    keep1: tuple = None
    keep2: tuple = None
    result_refs: tuple = ()
    tables: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "ident", tuple(sorted((int(i), int(j)) for i, j in self.ident)))
        keep1 = tuple(self.keep1) if self.keep1 is not None else (True,) * self.k1
        keep2 = tuple(self.keep2) if self.keep2 is not None else (True,) * self.k2
        object.__setattr__(self, "keep1", keep1)
        object.__setattr__(self, "keep2", keep2)
        object.__setattr__(self, "result_refs", tuple(self.result_refs))
        object.__setattr__(self, "tables", tuple(sorted(self.tables)))
        if len(keep1) != self.k1 or len(keep2) != self.k2:
            raise SignatureError("keep flags do not match constant counts")
        lhs = [i for i, _ in self.ident]
        rhs = [j for _, j in self.ident]
        if len(set(lhs)) != len(lhs) or len(set(rhs)) != len(rhs):
            raise SignatureError("identification is not a partial matching")
        if any(not (0 <= i < self.k1 and 0 <= j < self.k2) for i, j in self.ident):
            raise SignatureError("identification index out of range")
        for i, j in self.ident:
            if keep1[i] != keep2[j]:
                raise SignatureError("identified pair must be kept or dropped jointly")
        kept = set(self.kept_refs())
        if len(self.result_refs) != self.k:
            raise SignatureError("result constant count does not match k")
        if len(set(self.result_refs)) != self.k:
            raise SignatureError("result constants must be distinct references")
        if any(ref not in kept for ref in self.result_refs):
            raise SignatureError("result constant references a dropped constant")

    def matched1(self):
        return {i: j for i, j in self.ident}

    def matched2(self):
        return {j: i for i, j in self.ident}

    def entities(self):
        """Constant entities: identified pairs and unmatched constants."""
        m1, m2 = self.matched1(), self.matched2()
        ents = [((REF_SHARED, i, j), self.keep1[i]) for i, j in self.ident]
        ents += [((REF_P1, i), self.keep1[i]) for i in range(self.k1) if i not in m1]
        ents += [((REF_P2, j), self.keep2[j]) for j in range(self.k2) if j not in m2]
        return ents

    def kept_refs(self):
        return tuple(ref for ref, kept in self.entities() if kept)

    @property
    def j(self) -> int:
        """Size deficit: identified pairs plus dropped constant entities."""
        dropped = sum(1 for _, kept in self.entities() if not kept)
        return len(self.ident) + dropped

    @property
    def scheme_id(self) -> str:
        cached = getattr(self, "_scheme_id", None)
        if cached is None:
            payload = (self.k1, self.k2, self.k, self.ident, self.keep1,
                       self.keep2, self.result_refs, self.tables)
            cached = hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]
            object.__setattr__(self, "_scheme_id", cached)
        return cached

    def table_spec(self, pred_name: str):
        for name, spec in self.tables:
            if name == pred_name:
                return spec
        return ("union",)


def plain_union_scheme(k1=0, k2=0, k=0, ident=(), keep1=None, keep2=None,
                       result_refs=()) -> Scheme:
    """R^M = R^{M1} union R^{M2}; mixed tuples are never related."""
    return Scheme(k1, k2, k, ident, keep1, keep2, result_refs)


def disjoint_union_scheme() -> Scheme:
    return plain_union_scheme()


def table_names(preds, m: int) -> list:
    """Names a scheme can table: the predicates, then the set columns
    P0..P{m-1}. This order is the order of patterns and overrides."""
    return [name for name, _ in preds] + [f"P{j}" for j in range(m)]


def _set_column(name: str):
    """j for a set-column name "P<j>", None for a predicate name."""
    return int(name[1:]) if name.startswith("P") and name[1:].isdigit() else None


def random_table_scheme(vocab: Vocabulary, k1, k2, k, seed, ident=(),
                        keep1=None, keep2=None, result_refs=()) -> Scheme:
    """Total tables decided by a PRF of the canonical pattern string."""
    names = table_names(vocab.predicates, vocab.num_sets)
    tables = tuple((n, ("random", seed + idx)) for idx, n in enumerate(names))
    return Scheme(k1, k2, k, ident, keep1, keep2, result_refs, tables)


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

def pattern_key(pattern) -> str:
    pred, eq, origins, p1, p2 = pattern

    def _diag(d):
        v, deq, rel, sets = d
        rels = ",".join("".join("1" if b else "0" for b in r) for r in rel)
        ss = ",".join("".join("1" if b else "0" for b in s) for s in sets)
        return f"{','.join(map(str, deq))}|{rels}|{ss}"

    orig = ";".join(":".join(map(str, o)) for o in origins)
    return (f"{pred} eq={','.join(map(str, eq))} orig={orig} "
            f"p1=[{_diag(p1)}] p2=[{_diag(p2)}]")


def _table_value(scheme: Scheme, pred_name: str, pattern, union_value) -> bool:
    """Table entry of a pattern; ``pattern`` is a thunk, only called by the
    table kinds that read it."""
    spec = scheme.table_spec(pred_name)
    kind = spec[0]
    if kind == "union":
        return union_value
    if kind == "const":
        return spec[1]
    key = pattern_key(pattern())
    if kind == "map":
        overrides = dict(spec[2])
        if key in overrides:
            return overrides[key]
        return union_value if spec[1] == "union" else bool(spec[1])
    if kind == "random":
        digest = hashlib.sha256(f"{spec[1]}|{key}".encode("utf-8")).digest()
        return digest[0] & 1 == 1
    raise HintikkaError(f"unknown table spec {spec!r}")


# ---------------------------------------------------------------------------
# Glue
# ---------------------------------------------------------------------------

def glue(m1: Structure, m2: Structure, scheme: Scheme) -> Structure:
    """Amalgamate two structures along the scheme.

    The parts are treated as disjoint except for identified constants; each
    part's constants must be pairwise distinct for the size law to hold.
    """
    if m1.vocab.predicates != m2.vocab.predicates or m1.vocab.num_sets != m2.vocab.num_sets:
        raise SignatureError("parts have different vocabularies")
    if m1.vocab.num_consts != scheme.k1 or m2.vocab.num_consts != scheme.k2:
        raise SignatureError("constant counts do not match scheme")
    if len(set(m1.consts)) != scheme.k1 or len(set(m2.consts)) != scheme.k2:
        raise SignatureError("part constants must be pairwise distinct")

    preds = m1.vocab.predicates
    msets = m1.vocab.num_sets
    c1set, c2set = set(m1.consts), set(m2.consts)

    # element -> (part1 element or None, part2 element or None, ref or None)
    elems = []
    for e in range(m1.size):
        if e not in c1set:
            elems.append((e, None, None))
    for e in range(m2.size):
        if e not in c2set:
            elems.append((None, e, None))
    for ref, kept in scheme.entities():
        if not kept:
            continue
        if ref[0] == REF_SHARED:
            elems.append((m1.consts[ref[1]], m2.consts[ref[2]], ref))
        elif ref[0] == REF_P1:
            elems.append((m1.consts[ref[1]], None, ref))
        else:
            elems.append((None, m2.consts[ref[1]], ref))

    size = len(elems)
    if size != m1.size + m2.size - scheme.j:
        raise HintikkaError("internal: size law violated")

    part_types = {}     # (side, part elements) -> the part's diagram in bool form

    def pattern_of(pred_name, tuple_idx):
        class_elem = [elems[i] for i in dict.fromkeys(tuple_idx)]    # by first occurrence
        origins = []
        for e1, _, ref in class_elem:
            if ref is not None:
                origins.append(ref)
            elif e1 is not None:
                origins.append(("n1",))
            else:
                origins.append(("n2",))
        parts = []
        for side, m in enumerate((m1, m2)):
            part = tuple(e[side] for e in class_elem if e[side] is not None)
            part_type = part_types.get((side, part))
            if part_type is None:
                part_eq, part_rel, reps = qf_core(m, part)
                part_type = part_types[(side, part)] = (
                    len(part), part_eq, unpack_rel(part_rel),
                    tuple(tuple(e in col for e in reps) for col in m.sets))
            parts.append(part_type)
        return (pred_name, canonical_eq(tuple_idx), tuple(origins), *parts)

    def tuple_value(pred_name, rel1, rel2, tuple_idx):
        infos = [elems[i] for i in tuple_idx]
        in1 = all(e1 is not None for e1, _, _ in infos)
        in2 = all(e2 is not None for _, e2, _ in infos)
        union = False
        if in1 and tuple(e1 for e1, _, _ in infos) in rel1:
            union = True
        if not union and in2 and tuple(e2 for _, e2, _ in infos) in rel2:
            union = True
        return _table_value(scheme, pred_name, lambda: pattern_of(pred_name, tuple_idx), union)

    relations = []
    for (pname, arity), rel1, rel2 in zip(preds, m1.relations, m2.relations):
        rel = frozenset(
            t for t in itertools.product(range(size), repeat=arity)
            if tuple_value(pname, rel1, rel2, t)
        )
        relations.append(rel)

    sets = []
    for jcol in range(msets):
        s1, s2 = m1.sets[jcol], m2.sets[jcol]
        sets.append(frozenset(
            e for e in range(size)
            if tuple_value(f"P{jcol}", {(x,) for x in s1}, {(x,) for x in s2}, (e,))
        ))

    ref_to_new = {ref: idx for idx, (_, _, ref) in enumerate(elems) if ref is not None}
    consts = tuple(ref_to_new[ref] for ref in scheme.result_refs)
    vocab = Vocabulary(preds, scheme.k, msets)
    return Structure(vocab, size, tuple(relations), consts, tuple(sets))


# ---------------------------------------------------------------------------
# Transfer (the addition theorem)
# ---------------------------------------------------------------------------

def transfer(t1: Theory, t2: Theory, scheme: Scheme, interner: Interner = None) -> Theory:
    """F^n(t1, t2, s): the theory of any glue of representatives."""
    interner = t1.interner if interner is None else interner
    if t1.interner is not t2.interner or t1.interner is not interner:
        raise SignatureError("theories come from different interners")
    if t1.vocab_key != t2.vocab_key or t1.depth != t2.depth or t1.m != t2.m:
        raise SignatureError("theories have different signatures")
    if t1.k != scheme.k1 or t2.k != scheme.k2:
        raise SignatureError("constant counts do not match scheme")
    return interner.rec(_transfer_id(t1.intern_id, t2.intern_id, scheme, interner, 0))


def _transfer_id(i1: int, i2: int, scheme: Scheme, interner: Interner, lift: int) -> int:
    # lift counts the trailing set columns added by depth recursion; tables
    # never see them (the glued structure's relations predate those columns)
    memo_key = (i1, i2, scheme.scheme_id, lift)
    cached = interner.transfer_memo.get(memo_key)
    if cached is not None:
        return cached
    t1, t2 = interner.rec(i1), interner.rec(i2)
    _require_distinct_consts(t1)
    _require_distinct_consts(t2)
    if t1.depth == 0:
        result = _transfer_base(t1, t2, scheme, interner, lift)
    else:
        newest = t1.m  # children carry one extra set column
        ents = scheme.entities()
        children = set()
        for c1 in t1.children():
            for c2 in t2.children():
                if _compatible(c1, c2, scheme, newest, ents):
                    children.add(_transfer_id(c1.intern_id, c2.intern_id, scheme, interner,
                                              lift + 1))
        result = interner.intern_node(t1.depth, t1.vocab_key, t1.m, scheme.k, children)
    interner.transfer_memo[memo_key] = result
    return result


def distinct_consts(t: Theory) -> bool:
    """Whether a theory's constants are pairwise distinct: its constant
    diagram has one class per constant."""
    return t.const_id is not None and len(set(t.interner.split(t.const_id)[1])) == t.k


def _require_distinct_consts(t: Theory):
    if t.const_id is None:
        raise SignatureError("theory carries no constant diagram")
    if not distinct_consts(t):
        raise SignatureError(
            "transfer requires pairwise-distinct constants in each part")


def _compatible(t1: Theory, t2: Theory, scheme: Scheme, newest: int, ents) -> bool:
    """Set assignments on the parts combine into one on the glue exactly when
    identified constants agree on the newest column and dropped constants
    avoid it; ``ents`` is ``scheme.entities()``. A part's constants are
    pairwise distinct, so constant i is class i of its constant diagram:
    bit newest * k + i of the set word."""
    col1 = t1.interner.split(t1.const_id)[3] >> newest * scheme.k1
    col2 = t2.interner.split(t2.const_id)[3] >> newest * scheme.k2
    for ref, kept in ents:
        v1 = ref[0] != REF_P2 and col1 >> ref[1] & 1
        v2 = ref[0] != REF_P1 and col2 >> ref[-1] & 1
        if (v1 != v2 if kept else v1 or v2) and (ref[0] == REF_SHARED or not kept):
            return False
    return True


def _transfer_base(t1: Theory, t2: Theory, scheme: Scheme, interner: Interner,
                   lift: int) -> int:
    """Depth-0 transfer, one loop for every table kind and lift. Per
    sequence of result classes, each part's side table lists the pack ids
    of its distinct packed sides; the memo's join table maps a pair of pack
    ids to the result diagram ids, one per equality type of the result
    variables, and only a pair seen for the first time is joined. A memo
    is skipped where a part has no side, and its sides are packed where
    both parts first have one.

    The loop extends one list with each visited pair's result ids, repeats
    and all, and the list is deduplicated once, as a set, where it is
    interned: a ``set.update`` per pair visit costs more than the repeats
    do. Every result diagram restricts to the glue's constant diagram, so
    the first id in the list gives it."""
    preds = t1.vocab_key
    arities = tuple(a for _, a in preds)
    base_m = t1.m - lift
    r = max([1] + list(arities)) + 1
    ckey = (scheme.scheme_id, preds, r, base_m)
    memos = interner.config_memos.get(ckey)
    if memos is None:
        memos = interner.config_memos[ckey] = _scheme_configs(scheme, r)
    tables = (_side_table(interner, t1, 0, ckey, memos, r, arities, lift),
              _side_table(interner, t2, 1, ckey, memos, r, arities, lift))

    realized = []
    for memo, xs, ys in zip(memos, *tables):
        if not (xs and ys):
            # skip a memo that a part has no side for; else pack what is
            # still unpacked, with the recipe built at the memo's first join
            if xs == () or ys == ():
                continue
            if memo.parts is None:
                _config_recipe(interner, scheme, memo, preds, base_m)
            if xs is None:
                xs = _pack_entry(interner, tables[0], memo, 0, arities, lift)
            if ys is None:
                ys = _pack_entry(interner, tables[1], memo, 1, arities, lift)
        joins = memo.joins
        for x in xs:
            row = joins.get(x)
            if row is None:
                row = joins[x] = {}
            for y in ys:
                dids = row.get(y)
                if dids is None:
                    dids = row[y] = _join(interner, scheme, memo, x, y, r, arities)
                realized.extend(dids)

    if realized:
        # every realized diagram restricts to the glue's constant diagram
        const_diag = subdiagram(interner, realized[0], list(range(r, r + scheme.k)),
                                arities, new_v=0)
    else:
        # an empty glue: only possible with k = 0
        const_diag = interner.diagram_id(
            (0, (), tuple(() for _ in preds), tuple(() for _ in range(t1.m))))
    return interner.intern_depth0(preds, t1.m, scheme.k, set(realized), const_diag)


# Pack ids and projection keys: a base id in the low 32 bits, lifted bits
# above it under a sentinel bit that marks the lift (alone at lift 0).
_LIFT0 = 1 << 32
_BASE = _LIFT0 - 1


class _PartMemo:
    """One part's recipe and packs, kept once per interner for the config
    memos of every scheme whose side has this recipe: the arities, the
    part's constant and variable counts, ``dslot`` (each result class's
    slot in the part's projections, None where the part lacks it) and
    ``sub_slots`` (per tabled predicate and entry, the slots of the part's
    classes in it). ``atom_reads`` reads each entry's atom from a
    projection's relation word (``diagrams.gather``), a 0 where the part
    lacks one of the entry's classes. A pack reads only these and its
    projection, so equal recipes give equal packs and pack ids: ``pack_of``
    maps a projection key to its pack id, ``pack_ids`` gives each distinct
    base pack a base id, and ``packs`` lists them by base id; a pack id adds
    lifted column j as class bits j * len(dslot) + c above its base id."""

    __slots__ = ("dslot", "sub_slots", "atom_reads", "pack_of", "pack_ids", "packs")

    def __init__(self, arities, nslots: int, dslot, sub_slots):
        self.dslot, self.sub_slots = dslot, sub_slots
        self.atom_reads = tuple(tuple(nslots ** a + 1 if None in slots
                                      else rel_index(slots, nslots)
                                      for slots in itertools.product(dslot[::-1], repeat=a))
                                for a in arities)
        self.pack_of, self.pack_ids, self.packs = {}, {}, []


class _ConfigMemo:
    """The kernel's memo for one sequence of result classes (the origin of
    each class) of one scheme config key, at every lift.

    ``index`` is its place among its config key's memos and side table
    entries, ``nvars`` each part's variable count, and ``res_eqs`` the
    equality types over the r + k result slots that have these classes.
    The recipe waits for the memo's first join: ``tabled`` lists the
    tabled predicates with a pattern skeleton per entry, and ``parts``
    holds the two ``_PartMemo``s. ``joins`` maps a side-1 pack id to a
    dict from side-2 pack id to the result diagram ids, one per entry of
    ``res_eqs``."""

    __slots__ = ("index", "class_origin", "nvars", "res_eqs", "tabled", "parts", "joins")

    def __init__(self, index: int, class_origin):
        self.index, self.class_origin = index, class_origin
        self.nvars = (class_origin.count(("n1",)), class_origin.count(("n2",)))
        self.res_eqs, self.tabled, self.parts, self.joins = [], None, None, {}


class _SideTable(list):
    """One part's side table for one config key: per memo, () where the
    part has no projection with the memo's variable count, None where it
    has some that no partner has needed packed yet, else the pack ids of
    its distinct packed projections. ``keys`` lists the part's projection
    keys per variable count."""

    __slots__ = ("keys",)


def _join(interner: Interner, scheme: Scheme, memo: _ConfigMemo, x: int, y: int,
          r: int, arities) -> tuple:
    """The result diagram ids of the packs x and y. Base packs are joined
    once: OR their masks, replace each tabled predicate's mask by its table
    values, one shape per equality type, with the predicates' masks as its
    relation words. A lifted join ORs into each result of its base packs'
    join the OR of the two sides' lifted bits, which are the result's
    trailing set columns under their sentinel."""
    lifted = (x | y) >> 32
    if lifted != 1:
        bx, by = x & _BASE | _LIFT0, y & _BASE | _LIFT0
        row = memo.joins.setdefault(bx, {})
        base = row.get(by)
        if base is None:
            base = row[by] = _join(interner, scheme, memo, bx, by, r, arities)
        return tuple(interner.extend(d, lifted) for d in base)
    part1, part2 = memo.parts
    masks1, subs1 = part1.packs[x & _BASE]
    masks2, subs2 = part2.packs[y & _BASE]
    sig = list(map(or_, masks1, masks2))
    for t, (pos, name, skeletons) in enumerate(memo.tabled):
        sig[pos] = _table_mask(interner, scheme, name, skeletons, subs1[t], subs2[t], sig[pos])
    n, rel, cols = len(memo.class_origin), tuple(sig[:len(arities)]), sig[len(arities):]
    word = set_word(sum(bits << j * n for j, bits in enumerate(cols)), len(cols), n)
    return tuple(interner.key_id(interner.shape_id(r, eq, rel) | word << SHAPE_BITS)
                 for eq in memo.res_eqs)


def _side_table(interner: Interner, t: Theory, side: int, ckey, memos,
                r: int, arities, lift: int) -> _SideTable:
    """The side table of one part for one config key, from the keys of its
    realized prefix projections, with every entry still unpacked. A table
    depends only on (theory, config key, side), so it is built once, and
    the theory's table on the other side lends it its keys."""
    key = (t.intern_id, ckey, side)
    table = interner.side_tables.get(key)
    if table is None:
        other = interner.side_tables.get((t.intern_id, ckey, 1 - side))
        if other is not None:
            keys = other.keys
        else:
            keys = [_prefix_keys(interner, t.const_id, arities, lift)]
            keys += [{} for _ in range(r)]
            for d in t.ids:
                for v, p in enumerate(_prefix_keys(interner, d, arities, lift), 1):
                    if p >= 0:
                        keys[v][p] = None
            keys = tuple(map(tuple, keys))
        table = interner.side_tables[key] = _SideTable(
            None if keys[memo.nvars[side]] else () for memo in memos)
        table.keys = keys
    return table


def _pack_entry(interner: Interner, table: _SideTable, memo: _ConfigMemo, side: int,
                arities, lift: int) -> tuple:
    """Pack the memo's entry of one side table. Memos that share a part
    memo read each pack id from its ``pack_of``, so a projection is packed
    once per part memo."""
    part, keys = memo.parts[side], table.keys[memo.nvars[side]]
    ids = list(map(part.pack_of.get, keys))
    if None in ids:
        ids = [x or _pack_id(interner, part, p, arities, lift) for x, p in zip(ids, keys)]
    xs = table[memo.index] = tuple(dict.fromkeys(ids))
    return xs


def _pack_id(interner: Interner, part: _PartMemo, p: int, arities, lift: int) -> int:
    """The pack id of projection key p, memoized per part memo. A base
    projection is packed and its distinct packs get base ids; a lifted one
    adds to its base projection's id its lifted slot bits as class bits."""
    pack_of = part.pack_of
    x = pack_of.get(p)
    if x is None and lift:
        dslot = part.dslot
        width = ((p >> 32).bit_length() - 1) // lift - 1
        bits = sum((p >> 32 + j * width + slot & 1) << j * len(dslot) + c
                   for j in range(lift) for c, slot in enumerate(dslot) if slot is not None)
        x = pack_of[p] = (_pack_id(interner, part, p & _BASE | _LIFT0, arities, 0)
                          & _BASE | (bits | 1 << lift * len(dslot)) << 32)
    elif x is None:
        packed = _pack_side(interner, p & _BASE, part, arities)
        packs = part.packs
        x = part.pack_ids.setdefault(packed, len(packs))
        if x == len(packs):
            packs.append(packed)
        x = pack_of[p] = x | _LIFT0
    return x


def _prefix_keys(interner: Interner, did: int, arities, lift: int) -> tuple:
    """Per v in 1..n for a diagram ``did`` with n variable slots (v = 0 if
    n = 0), the key of its projection to its first v variables and its
    constants, or -1 where those are not pairwise distinct and non-constant;
    memoized per (diagram, lift). A key is the id of the projection's base
    diagram (all but the last ``lift`` set columns) and above it, for s
    slots, bit j * s + slot of lifted column j under a sentinel bit at
    lift * (s + 1), read from the diagram without building the projection."""
    cache = interner.diagram_projections
    keys = cache.get((did, lift))
    if keys is None:
        v, eq, _, word = interner.split(did)
        consts = list(range(v, len(eq)))
        if lift:
            n = nclasses(eq)
            base_m = column_count(word, n) - lift
            lifted = word >> base_m * n
            keys = []
            for nv, p in enumerate(_prefix_keys(interner, interner.restrict(did, base_m),
                                                arities, 0), min(v, 1)):
                slots = list(range(nv)) + consts
                bits = sum((lifted >> j * n + eq[s] & 1) << j * len(slots) + pos
                           for j in range(lift) for pos, s in enumerate(slots))
                keys.append(p if p < 0 else
                            p & _BASE | (bits | 1 << lift * (len(slots) + 1)) << 32)
        else:
            # the first ``top`` variables are pairwise distinct and non-constant
            top = next((nv for nv in range(v) if eq[nv] in eq[:nv] or eq[nv] in eq[v:]), v)
            keys = [(did if nv == v else subdiagram(
                interner, did, list(range(nv)) + consts, arities, new_v=nv)) | _LIFT0
                    for nv in range(min(v, 1), top + 1)] + [-1] * (v - top)
        keys = cache[(did, lift)] = tuple(keys)
    return keys


def _scheme_configs(scheme: Scheme, r: int):
    """One ``_ConfigMemo`` per sequence of result classes of the r result
    variables and the k result constants.

    A configuration is a partition of the variables into b blocks plus an
    origin per block (``_block_origins``). Its classes are the blocks, then
    the result constants that no block names, in result order; its
    equality type is the partition followed by each constant's class. All
    that packs and joins read, the recipe, follows from the class origins
    alone, so every configuration with the same class origins shares one
    memo and adds its equality type to the memo's ``res_eqs``. The recipe
    itself waits for the memo's first join (``_config_recipe``).
    """
    kept, refs = scheme.kept_refs(), scheme.result_refs
    by_blocks = {}
    for eq_vars in partitions(r):
        by_blocks.setdefault(max(eq_vars) + 1, []).append(eq_vars)
    memos = {}
    for nblocks, eqs in by_blocks.items():
        for origins in _block_origins(nblocks, kept):
            class_origin = origins + tuple(ref for ref in refs if ref not in origins)
            memo = memos.get(class_origin)
            if memo is None:
                memo = memos[class_origin] = _ConfigMemo(len(memos), class_origin)
            const_eq = tuple(class_origin.index(ref) for ref in refs)
            memo.res_eqs.extend(eq + const_eq for eq in eqs)
    return tuple(memos.values())


def _config_recipe(interner: Interner, scheme: Scheme, memo: _ConfigMemo, preds,
                   base_m: int):
    """Build a memo's recipe: the tabled predicates with a pattern skeleton
    per entry, and per part its ``_PartMemo``, which the interner shares
    with every memo whose side has the same recipe. An entry lists each
    class as its origin and its slot per part, so equal entries share one
    skeleton (``interner.pattern_skeletons``).

    Entries of a predicate are its class tuples in atom order; entries of a
    set column are the classes. Tables cover the vocabulary's predicates and
    its first base_m set columns only; the set columns added by theory depth
    stay union, as in glue.
    """
    arities = tuple(a for _, a in preds)
    names = table_names(preds, base_m)
    tabled_pos = [pos for pos, name in enumerate(names)
                  if scheme.table_spec(name)[0] != "union"]
    dslots = (_class_slots(memo.class_origin, 0), _class_slots(memo.class_origin, 1))
    chars = tuple(zip(memo.class_origin, *dslots))
    pool = interner.pattern_skeletons
    # per tabled predicate: its entries' patterns, then their slots per part
    skeletons = [tuple(zip(*(_pattern_skeleton(ct, pool) for ct in itertools.product(
        chars, repeat=(arities + (1,) * base_m)[pos])))) for pos in tabled_pos]
    memo.tabled = tuple((pos, names[pos], patterns)
                        for pos, (patterns, _, _) in zip(tabled_pos, skeletons))
    parts = []
    for side, (dslot, kc, v) in enumerate(zip(dslots, (scheme.k1, scheme.k2), memo.nvars)):
        subs = tuple(slots[1 + side] for slots in skeletons)
        key = (arities, kc, v, dslot, subs)
        part = interner.part_memos.get(key)
        if part is None:
            part = interner.part_memos[key] = _PartMemo(arities, v + kc, dslot, subs)
        parts.append(part)
    memo.parts = tuple(parts)


def _class_slots(class_origin, side: int):
    """Per class, its slot in the projections of part ``side``: the part's
    fresh elements in class order, then v + the part's constant index, where
    v counts the fresh elements; None for a class the part does not have."""
    own = (IN_P1, IN_P2)[side]
    v = class_origin.count((own[0],))
    fresh = itertools.count()
    return tuple(None if o[0] not in own
                 else next(fresh) if o[0] == own[0]
                 else v + o[1 + side] if o[0] == REF_SHARED
                 else v + o[1]
                 for o in class_origin)


def _pattern_skeleton(ct, pool: dict):
    """Config-constant part of an entry's pattern, one copy per ``pool``:
    its (equalities, origins), then per part the projection slots feeding
    its sub-diagram."""
    skeleton = pool.get(ct)
    if skeleton is None:
        classes = tuple(dict.fromkeys(ct))
        skeleton = pool[ct] = ((canonical_eq(ct), tuple(ch[0] for ch in classes)),
                               *(tuple(ch[side] for ch in classes if ch[side] is not None)
                                 for side in (1, 2)))
    return skeleton


def _block_origins(nblocks, kept_refs):
    """Assign each block an origin: fresh part-1/2 element or a kept
    constant, constants injectively."""
    options = [("n1",), ("n2",)] + list(kept_refs)
    for combo in itertools.product(options, repeat=nblocks):
        refs = [o for o in combo if o[0] not in ("n1", "n2")]
        if len(refs) != len(set(refs)):
            continue
        yield combo


def _pack_side(interner: Interner, did: int, part: _PartMemo, arities):
    """One part's share of a config, from a base projection: per predicate
    and set column a bitmask of the entries the part makes true (bit e for
    entry e; a predicate's under a sentinel bit at its entry count, as in a
    relation word), and per tabled predicate the id of the part-projected
    sub-diagram of each entry. Projections have pairwise-distinct slots, so
    their atoms are indexed by slot tuples directly."""
    _, eq, rel, word = interner.split(did)
    n = len(eq)
    masks = list(map(gather, rel, part.atom_reads))
    masks += [sum(1 << c for c, slot in enumerate(part.dslot)
                  if slot is not None and word >> j * n + slot & 1)
              for j in range(column_count(word, n))]
    subs = tuple(tuple(_sub_diagram(interner, did, slots, arities) for slots in entry_slots)
                 for entry_slots in part.sub_slots)
    return tuple(masks), subs


def _sub_diagram(interner: Interner, did: int, slots, arities) -> int:
    """A pattern's part type: the id of the diagram of the slots of a base
    projection."""
    out = interner.sub_diagrams.get((did, slots))
    if out is None:
        out = interner.sub_diagrams[(did, slots)] = subdiagram(interner, did, list(slots),
                                                               arities)
    return out


def _table_mask(interner: Interner, scheme: Scheme, name, skeletons, subs1, subs2,
                union: int) -> int:
    """A tabled predicate's entries under its table, as a bitmask that
    keeps the union mask's bits above the entries (a sentinel); values are
    memoized per pattern and union bit."""
    memo = interner.table_values
    sid = scheme.scheme_id
    mask = union >> len(skeletons) << len(skeletons)
    for e, ((peq, porig), sub1, sub2) in enumerate(zip(skeletons, subs1, subs2)):
        bit = union >> e & 1
        key = (sid, name, peq, porig, sub1, sub2, bit)
        value = memo.get(key)
        if value is None:
            value = memo[key] = _table_value(
                scheme, name, lambda: (name, peq, porig, interner.diagram(sub1),
                                       interner.diagram(sub2)), bit == 1)
        mask |= value << e
    return mask


# ---------------------------------------------------------------------------
# Pattern enumeration and scheme enumeration
# ---------------------------------------------------------------------------

def _pattern_shapes(vocab: Vocabulary, scheme: Scheme, pred_name: str):
    """(eq, origins, c1, c2) per pattern shape of one predicate under the
    scheme's identification/keep configuration: c1 and c2 are the variable
    counts of the two part types."""
    names = table_names(vocab.predicates, vocab.num_sets)
    if pred_name not in names:
        raise HintikkaError(f"no table {pred_name!r} in this vocabulary; "
                            f"tables: {', '.join(names) or 'none'}")
    arity = dict(vocab.predicates).get(pred_name, 1)     # a set column is unary
    kept = scheme.kept_refs()
    for eq in partitions(arity):
        for origins in _block_origins(nclasses(eq), kept):
            c1 = sum(1 for o in origins if o[0] in IN_P1)
            c2 = sum(1 for o in origins if o[0] in IN_P2)
            yield eq, tuple(origins), c1, c2


def enumerate_patterns(vocab: Vocabulary, scheme: Scheme, pred_name: str):
    """All formally possible tuple patterns for one predicate under the
    scheme's identification/keep configuration."""
    arities = tuple(a for _, a in vocab.predicates)
    m = vocab.num_sets
    for eq, origins, c1, c2 in _pattern_shapes(vocab, scheme, pred_name):
        for p1 in complete_diagrams(c1, tuple(range(c1)), arities, m):
            for p2 in complete_diagrams(c2, tuple(range(c2)), arities, m):
                yield (pred_name, eq, origins, p1, p2)


def count_patterns(vocab: Vocabulary, scheme: Scheme, pred_name: str) -> int:
    arities = tuple(a for _, a in vocab.predicates)
    m = vocab.num_sets
    return sum(2 ** (diagram_bits(c1, arities, m) + diagram_bits(c2, arities, m))
               for _, _, c1, c2 in _pattern_shapes(vocab, scheme, pred_name))


def pattern_union_value(pattern, vocab: Vocabulary) -> bool:
    """The plain-union membership the pattern implies: the atom is true in
    a part that has every element of the tuple."""
    pred, eq, origins, p1, p2 = pattern
    set_idx = _set_column(pred)
    if set_idx is None:
        pred_idx = [n for n, _ in vocab.predicates].index(pred)
    for part, own in ((p1, IN_P1), (p2, IN_P2)):
        slot = {}
        for c, o in enumerate(origins):
            if o[0] in own:
                slot[c] = len(slot)
        if not all(c in slot for c in eq):
            continue
        ct = tuple(slot[c] for c in eq)
        if set_idx is None:
            value = part[2][pred_idx][rel_index(ct, max(len(slot), 1))]
        else:
            value = part[3][set_idx][ct[0]]
        if value:
            return True
    return False


def table_extension(scheme: Scheme, vocab: Vocabulary) -> dict:
    """The scheme's tables as explicit pattern-key -> value maps."""
    out = {}
    for name in table_names(vocab.predicates, vocab.num_sets):
        values = {}
        for pattern in enumerate_patterns(vocab, scheme, name):
            union = pattern_union_value(pattern, vocab)
            values[pattern_key(pattern)] = _table_value(scheme, name,
                                                        lambda p=pattern: p, union)
        out[name] = values
    return out


def _iter_configs(k1: int, k2: int, k: int):
    """(ident, keep1, keep2, result_refs) combinations, canonically ordered."""
    for t in range(0, min(k1, k2) + 1):
        for left in itertools.combinations(range(k1), t):
            for right in itertools.permutations(range(k2), t):
                ident = tuple(sorted(zip(left, right)))
                probe = Scheme(k1, k2, 0, ident)
                ents = probe.entities()
                for flags in itertools.product((True, False), repeat=len(ents)):
                    keep1 = [True] * k1
                    keep2 = [True] * k2
                    for (ref, _), kept in zip(ents, flags):
                        if ref[0] == REF_SHARED:
                            keep1[ref[1]] = keep2[ref[2]] = kept
                        elif ref[0] == REF_P1:
                            keep1[ref[1]] = kept
                        else:
                            keep2[ref[1]] = kept
                    flagged = Scheme(k1, k2, 0, ident, tuple(keep1), tuple(keep2))
                    for result in itertools.permutations(flagged.kept_refs(), k):
                        yield ident, tuple(keep1), tuple(keep2), tuple(result)


def count_schemes(vocab: Vocabulary, k1: int, k2: int, k: int) -> int:
    names = table_names(vocab.predicates, vocab.num_sets)
    total = 0
    for ident, keep1, keep2, result in _iter_configs(k1, k2, k):
        probe = Scheme(k1, k2, k, ident, keep1, keep2, result)
        bits = sum(count_patterns(vocab, probe, n) for n in names)
        if bits > 64:
            return 2 ** bits  # certainly over any realistic budget
        total += 2 ** bits
    return total


def enumerate_schemes(vocab: Vocabulary, k1: int, k2: int, k: int,
                      k_star: int, budget: int = None,
                      config: Config = DEFAULT):
    """Every scheme at the given constant signature: all identifications,
    keep flags, result selections, and total relation tables. Refuses when
    the count exceeds the budget (tables are exponential in the pattern
    space); callers then fall back to explicit scheme files."""
    budget = config.scheme_budget if budget is None else budget
    if budget < 0:
        raise HintikkaError(f"scheme budget must be a natural number, got {budget}")
    if k_star < 0:
        raise SignatureError(f"k*={k_star} is not a natural number")
    for v, label in ((k1, "k1"), (k2, "k2"), (k, "k")):
        if v < 0:
            raise SignatureError(f"{label}={v} is not a natural number")
        if v > k_star:
            raise SignatureError(f"{label}={v} exceeds k*={k_star}")
    total = count_schemes(vocab, k1, k2, k)
    if total > budget:
        raise BudgetError("scheme_budget", total, budget)

    names = table_names(vocab.predicates, vocab.num_sets)
    out = []
    for ident, keep1, keep2, result in _iter_configs(k1, k2, k):
        probe = Scheme(k1, k2, k, ident, keep1, keep2, result)
        pattern_keys = {
            n: [pattern_key(p) for p in enumerate_patterns(vocab, probe, n)]
            for n in names
        }
        flat = [(n, key) for n in names for key in pattern_keys[n]]
        for bits in itertools.product((False, True), repeat=len(flat)):
            overrides = {}
            for (n, key), val in zip(flat, bits):
                overrides.setdefault(n, []).append((key, val))
            tables = tuple(
                (n, ("map", False, tuple(sorted(overrides.get(n, ())))))
                for n in names
            )
            out.append(Scheme(k1, k2, k, ident, keep1, keep2, result, tables))
    return tuple(out)


# ---------------------------------------------------------------------------
# Scheme files
# ---------------------------------------------------------------------------

def serialize_scheme(scheme: Scheme) -> str:
    lines = [f"scheme k1={scheme.k1} k2={scheme.k2} k={scheme.k}"]
    if scheme.ident:
        lines.append("ident " + " ".join(f"{i}~{j}" for i, j in scheme.ident))
    drop1 = [str(i) for i in range(scheme.k1) if not scheme.keep1[i]]
    drop2 = [str(j) for j in range(scheme.k2) if not scheme.keep2[j]]
    if drop1:
        lines.append("drop1 " + " ".join(drop1))
    if drop2:
        lines.append("drop2 " + " ".join(drop2))
    if scheme.result_refs:
        parts = []
        for c, ref in enumerate(scheme.result_refs):
            parts.append(f"{c}={_ref_str(ref)}")
        lines.append("result " + " ".join(parts))
    for name, spec in scheme.tables:
        if spec[0] == "union":
            lines.append(f"table {name} default=union")
        elif spec[0] == "const":
            lines.append(f"table {name} default={'true' if spec[1] else 'false'}")
        elif spec[0] == "random":
            lines.append(f"table {name} random={spec[1]}")
        else:
            default = spec[1] if spec[1] == "union" else ("true" if spec[1] else "false")
            lines.append(f"table {name} default={default}")
            for key, val in spec[2]:
                lines.append(f'table {name} pattern "{key}" = {1 if val else 0}')
    return "\n".join(lines) + "\n"


def parse_scheme(text: str) -> Scheme:
    reader = LineReader(text, ("scheme",), ("ident", "drop1", "drop2", "result", "table"))
    ident = []
    drops = {"drop1": set(), "drop2": set()}
    result = {}
    defaults = {}
    randoms = {}
    overrides = {}
    modes = {}      # table name -> whether its lines are random=
    with reader:
        header = reader.fields(reader.header("scheme"), ("k1", "k2", "k"), "header field")
        k1, k2, k = (reader.integer(header[key], key) for key in ("k1", "k2", "k"))
        for kw, *args in reader:
            if kw == "ident":
                for item in args:
                    i, j = item.split("~")
                    i = reader.integer(i, "identified constant of part 1", 0, k1 - 1)
                    j = reader.integer(j, "identified constant of part 2", 0, k2 - 1)
                    reader.once(("1", i), f"identified constant 1.{i}")
                    reader.once(("2", j), f"identified constant 2.{j}")
                    ident.append((i, j))
            elif kw in drops:
                count = k1 if kw == "drop1" else k2
                drops[kw].update(reader.integer(x, "dropped constant", 0, count - 1)
                                 for x in args)
            elif kw == "result":
                for item in args:
                    c, ref = item.split("=")
                    c = reader.integer(c, "result constant", 0, k - 1)
                    reader.once(("result", c), f"result constant {c}")
                    part, idx = ref.split(".")
                    if part not in ("1", "2"):
                        raise reader.error("result reference must be 1.<i> or 2.<j>")
                    count = k1 if part == "1" else k2
                    result[c] = (part, reader.integer(idx, "result reference", 0, count - 1))
            else:
                name = args[0]
                if args[1] == "pattern":
                    kind, key, value = "pattern", f"pattern {args[2]}", "".join(args[3:])
                else:
                    kind, _, value = "".join(args[1:]).partition("=")
                    key = kind + "="
                if modes.setdefault(name, kind == "random") != (kind == "random"):
                    raise reader.error(f"table {name}: random= mixed with default= or "
                                       f"pattern lines")
                reader.once((name, key), f"table {name} {key}")
                if kind == "pattern" and args[2][0] == '"' and value in ("=0", "=1"):
                    overrides.setdefault(name, []).append((args[2][1:-1], value == "=1"))
                elif kind == "random":
                    randoms[name] = int(value)
                elif kind == "default":
                    defaults[name] = {"union": "union", "true": True, "false": False}[value]
                else:
                    raise reader.error("expected 'table <P> default=union|true|false', "
                                       "'random=<seed>' or 'pattern \"<key>\" = 0|1'")
    drop1, drop2 = drops["drop1"], drops["drop2"]
    matched1, matched2 = dict(ident), {j: i for i, j in ident}
    # identified pairs are dropped jointly if either side is dropped
    keep1 = tuple(i not in drop1 and matched1.get(i) not in drop2 for i in range(k1))
    keep2 = tuple(j not in drop2 and matched2.get(j) not in drop1 for j in range(k2))
    if len(result) != k:
        raise ParseError(f"expected {k} result constants, got {len(result)}")
    refs = []
    for part, idx in (result[c] for c in range(k)):
        if part == "1":
            refs.append((REF_SHARED, idx, matched1[idx]) if idx in matched1 else (REF_P1, idx))
        else:
            refs.append((REF_SHARED, matched2[idx], idx) if idx in matched2 else (REF_P2, idx))
    tables = []
    for name in sorted(modes):
        default, over = defaults.get(name, "union"), tuple(sorted(overrides.get(name, ())))
        if name in randoms:
            tables.append((name, ("random", randoms[name])))
        elif over:
            tables.append((name, ("map", default, over)))
        else:
            tables.append((name, ("union",) if default == "union" else ("const", default)))
    try:
        return Scheme(k1, k2, k, tuple(ident), keep1, keep2, tuple(refs), tuple(tables))
    except SignatureError as exc:
        raise ParseError(str(exc))

