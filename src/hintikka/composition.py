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
from dataclasses import dataclass, field
from operator import or_

from .config import DEFAULT, Config
from .diagrams import (
    canonical_eq,
    complete_diagrams,
    diagram_bits,
    partitions,
    qf_core,
    rel_index,
    subdiagram,
    unpack_diagram,
    vars_distinct_nonconst,
)
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
    name: str = field(default="", compare=False)

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
                       result_refs=(), name="plain-union") -> Scheme:
    """R^M = R^{M1} union R^{M2}; mixed tuples are never related."""
    return Scheme(k1, k2, k, ident, keep1, keep2, result_refs, (), name)


def disjoint_union_scheme() -> Scheme:
    return plain_union_scheme(name="disjoint-union")


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
    return Scheme(k1, k2, k, ident, keep1, keep2, result_refs, tables,
                  name=f"random-{seed}")


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
            part = [e[side] for e in class_elem if e[side] is not None]
            part_eq, part_rel, reps = qf_core(m, part)
            part_sets = tuple(tuple(e in col for e in reps) for col in m.sets)
            parts.append((len(part), part_eq, part_rel, part_sets))
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
    tid = _transfer_id(t1.intern_id, t2.intern_id, scheme, interner, 0)
    return Theory(interner, tid)


def _transfer_id(i1: int, i2: int, scheme: Scheme, interner: Interner, lift: int) -> int:
    # lift counts the trailing set columns added by depth recursion; tables
    # never see them (the glued structure's relations predate those columns)
    memo_key = (i1, i2, scheme.scheme_id, lift)
    cached = interner.transfer_memo.get(memo_key)
    if cached is not None:
        return cached
    r1, r2 = interner.rec(i1), interner.rec(i2)
    _require_distinct_consts(r1)
    _require_distinct_consts(r2)
    if r1.depth == 0:
        result = _transfer_base(i1, i2, r1, r2, scheme, interner, lift)
    else:
        newest = r1.m  # children carry one extra set column
        children = set()
        for c1 in r1.payload:
            for c2 in r2.payload:
                if _compatible(interner.rec(c1), interner.rec(c2), scheme, newest):
                    children.add(_transfer_id(c1, c2, scheme, interner, lift + 1))
        result = interner.intern_node(r1.depth, r1.vocab_key, r1.m, scheme.k, children)
    interner.transfer_memo[memo_key] = result
    return result


def _require_distinct_consts(rec):
    cd = rec.const_diag
    if cd is None:
        raise SignatureError("theory carries no constant diagram")
    eq = cd[1]
    if len(set(eq)) != len(eq):
        raise SignatureError(
            "transfer requires pairwise-distinct constants in each part")


def _compatible(rec1, rec2, scheme: Scheme, newest: int) -> bool:
    """Set assignments on the parts combine into one on the glue exactly when
    identified constants agree on the newest column and dropped constants
    avoid it."""
    cd1, cd2 = rec1.const_diag, rec2.const_diag
    col1 = cd1[3][newest]
    col2 = cd2[3][newest]
    eq1, eq2 = cd1[1], cd2[1]
    for ref, kept in scheme.entities():
        if ref[0] == REF_SHARED:
            v1 = col1[eq1[ref[1]]]
            v2 = col2[eq2[ref[2]]]
            if kept and v1 != v2:
                return False
            if not kept and (v1 or v2):
                return False
        elif ref[0] == REF_P1:
            if not kept and col1[eq1[ref[1]]]:
                return False
        else:
            if not kept and col2[eq2[ref[1]]]:
                return False
    return True


def _transfer_base(i1: int, i2: int, r1, r2, scheme: Scheme,
                   interner: Interner, lift: int) -> int:
    """Depth-0 transfer, one loop for every table kind. Per configuration of
    the result variables, each part's side table lists the pack ids of its
    distinct packed sides; the configuration's join table maps a pair of
    pack ids to the result diagram id, and only a pair seen for the first
    time is joined (``_join``)."""
    preds = r1.vocab_key
    arities = tuple(a for _, a in preds)
    m = r1.m
    base_m = m - lift
    r = max([1] + list(arities)) + 1
    ckey = (scheme.scheme_id, preds, r, base_m)
    memos = interner.config_memos.get(ckey)
    if memos is None:
        memos = interner.config_memos[ckey] = _scheme_configs(scheme, preds, r, base_m)
    tables = (_side_table(interner, i1, r1, 0, ckey, memos, r, arities, base_m),
              _side_table(interner, i2, r2, 1, ckey, memos, r, arities, base_m))

    realized = set()
    for memo, xs, ys in zip(memos, *tables):
        joins = memo.joins
        for x in xs:
            row = joins[x]
            for y in ys:
                did = row.get(y)
                if did is None:
                    did = row[y] = _join(interner, scheme, memo, x, y, r, arities)
                realized.add(did)

    if realized:
        # every realized diagram restricts to the glue's constant diagram
        const_diag = subdiagram(interner.diagram(min(realized)),
                                list(range(r, r + scheme.k)), arities, new_v=0)
    else:
        # glue of empty parts: only possible with k = 0
        const_diag = (0, (), tuple(() for _ in preds), tuple(() for _ in range(m)))
    return interner.intern_depth0(preds, m, scheme.k, realized, const_diag)


class _ConfigMemo:
    """The kernel's memo for one configuration of one scheme config key.

    Per side: ``pack_of`` maps a projection's diagram id to its pack id,
    ``pack_ids`` gives each distinct packed side one id, and ``packs`` lists
    the packed sides by id. ``joins`` holds, per side-1 pack id, a dict from
    side-2 pack id to the result diagram id."""

    __slots__ = ("res_eq", "parts", "tabled", "pack_of", "pack_ids", "packs", "joins")

    def __init__(self, res_eq, parts, tabled):
        self.res_eq, self.parts, self.tabled = res_eq, parts, tabled
        self.pack_of, self.pack_ids, self.packs = ({}, {}), ({}, {}), ([], [])
        self.joins = []


def _join(interner: Interner, scheme: Scheme, memo: _ConfigMemo, x: int, y: int,
          r: int, arities) -> int:
    """The result diagram id of the packed sides x and y: OR their masks,
    replace each tabled predicate's mask by its table values, unpack."""
    masks1, subs1 = memo.packs[0][x]
    masks2, subs2 = memo.packs[1][y]
    sig = list(map(or_, masks1, masks2))
    for t, (pos, name, skeletons) in enumerate(memo.tabled):
        sig[pos] = _table_mask(interner, scheme, name, skeletons, subs1[t], subs2[t], sig[pos])
    return interner.diagram_id(unpack_diagram(r, memo.res_eq, sig, arities))


def _side_table(interner: Interner, tid: int, rec, side: int, ckey, memos,
                r: int, arities, base_m: int):
    """Per config, the pack ids of one part's distinct packed sides. A table
    depends only on (theory, config key, side), so it is built once; a pack
    depends only on (config, side, projection), so theories that share a
    projection share its pack id, and projections that pack alike share
    one id."""
    key = (tid, ckey, side)
    table = interner.side_tables.get(key)
    if table is None:
        projections = _projections(interner, rec, r, arities)
        table = []
        for memo in memos:
            part = memo.parts[side]
            pack_of, pack_ids, packs = memo.pack_of[side], memo.pack_ids[side], memo.packs[side]
            ids = {}
            for d in projections[part[0]]:
                x = pack_of.get(d)
                if x is None:
                    packed = _pack_side(interner, d, part, arities, base_m)
                    x = pack_ids.get(packed)
                    if x is None:
                        x = pack_ids[packed] = len(packs)
                        packs.append(packed)
                        if side == 0:
                            memo.joins.append({})
                    pack_of[d] = x
                ids[x] = None
            table.append(tuple(ids))
        table = interner.side_tables[key] = tuple(table)
    return table


def _projections(interner: Interner, rec, r: int, arities):
    """Realized prefix projections of a depth-0 theory by variable count, as
    diagram ids, variables pairwise distinct and non-constant; per-diagram
    projection results are shared across theories. A realized diagram has
    r variable slots, so its r-variable projection is itself."""
    dcache = interner.diagram_projections
    const_slots = list(range(r, r + rec.k))
    out = {0: (interner.diagram_id(rec.const_diag),),
           r: tuple(d for d in rec.payload if vars_distinct_nonconst(interner.diagram(d)))}
    for v in range(1, r):
        seen = {}
        for d in rec.payload:
            dkey = (d, v)       # d fixes r and the constant count
            p = dcache.get(dkey)
            if p is None:
                proj = subdiagram(interner.diagram(d), list(range(v)) + const_slots,
                                  arities, new_v=v)
                p = dcache[dkey] = (interner.diagram_id(proj)
                                    if vars_distinct_nonconst(proj) else -1)
            if p >= 0:
                seen[p] = None
        out[v] = tuple(seen)
    return out


def _scheme_configs(scheme: Scheme, preds, r: int, base_m: int):
    """One ``_ConfigMemo`` per (partition, block-origin) configuration of
    the r result variables: the result equality type, per part the recipe
    that packs a projection, and the tabled predicates with a pattern
    skeleton per entry. Configurations with equal class origins and slots
    share one recipe.

    Entries of a predicate are its class tuples in atom order; entries of a
    set column are the classes. Tables cover the vocabulary's predicates and
    its first base_m set columns only; the set columns added by theory depth
    stay union, as in glue.
    """
    arities = tuple(a for _, a in preds)
    names = table_names(preds, base_m)
    tabled_pos = [pos for pos, name in enumerate(names)
                  if scheme.table_spec(name)[0] != "union"]
    kept = scheme.kept_refs()
    configs = []
    recipes = {}
    pool = {}       # one copy of each skeleton pattern
    for eq_vars in partitions(r):
        nblocks = max(eq_vars) + 1 if eq_vars else 0
        for origins_blocks in _block_origins(nblocks, kept):
            res_eq, class_origin, dslots, nvars = _build_config(
                eq_vars, origins_blocks, scheme, r)
            recipe = recipes.get((class_origin, dslots))
            if recipe is None:
                recipe = recipes[class_origin, dslots] = _config_recipe(
                    scheme, arities, names, tabled_pos, base_m, class_origin, dslots, nvars, pool)
            configs.append(_ConfigMemo(res_eq, *recipe))
    return tuple(configs)


def _config_recipe(scheme: Scheme, arities, names, tabled_pos, base_m: int,
                   class_origin, dslots, nvars, pool: dict):
    """Per part the recipe that packs a projection, and the tabled
    predicates with a pattern skeleton per entry: all that a configuration
    reads of its class origins and slots."""
    nclasses = len(class_origin)
    entries = [tuple(itertools.product(range(nclasses), repeat=a)) for a in arities]
    entries += [tuple((c,) for c in range(nclasses))] * base_m
    skeletons = {pos: tuple(_pattern_skeleton(ct, class_origin, dslots, pool)
                            for ct in entries[pos]) for pos in tabled_pos}
    tabled = tuple((pos, names[pos], tuple(pattern for pattern, _ in skeletons[pos]))
                   for pos in tabled_pos)
    parts = []
    for side, (v, dslot, kc) in enumerate(zip(nvars, dslots, (scheme.k1, scheme.k2))):
        atom_idx = tuple(
            tuple(rel_index(tuple(dslot[c] for c in ct), v + kc)
                  if all(dslot[c] is not None for c in ct) else None
                  for ct in cts)
            for cts in entries[:len(arities)])
        sub_slots = tuple(tuple(slots[side] for _, slots in skeletons[pos])
                          for pos in tabled_pos)
        parts.append((v, atom_idx, dslot, sub_slots))
    return tuple(parts), tabled


def _pattern_skeleton(ct, class_origin, dslots, pool: dict):
    """Config-constant part of an entry's pattern: its (equalities, origins),
    one copy per ``pool``, and per part the projection slots feeding its
    sub-diagram."""
    peq = canonical_eq(ct)
    pcls = []
    for pos, c in enumerate(peq):
        if c == len(pcls):
            pcls.append(ct[pos])
    porig = tuple(class_origin[c] for c in pcls)
    slots = tuple(tuple(dslot[c] for c in pcls if dslot[c] is not None) for dslot in dslots)
    pattern = (peq, porig)
    return pool.setdefault(pattern, pattern), slots


def _block_origins(nblocks, kept_refs):
    """Assign each block an origin: fresh part-1/2 element or a kept
    constant, constants injectively."""
    options = [("n1",), ("n2",)] + list(kept_refs)
    for combo in itertools.product(options, repeat=nblocks):
        refs = [o for o in combo if o[0] not in ("n1", "n2")]
        if len(refs) != len(set(refs)):
            continue
        yield combo


def _build_config(eq_vars, origins_blocks, scheme, r):
    """Resolve a variable partition plus block origins into result-diagram
    bookkeeping: eq over r+k slots, per-class origin, per part the per-class
    slot indices into its projections, and per part the variable count."""
    entities = []
    for s in range(r):
        block = eq_vars[s]
        orig = origins_blocks[block]
        entities.append(orig if orig[0] not in ("n1", "n2") else ("b", block, orig[0]))
    for ref in scheme.result_refs:
        entities.append(ref)
    res_eq = canonical_eq(entities)
    nclasses = max(res_eq) + 1 if res_eq else 0
    class_entity = [None] * nclasses
    for pos, cls in enumerate(res_eq):
        if class_entity[cls] is None:
            class_entity[cls] = entities[pos]

    # variable slots of the part projections, in block order
    v1_blocks = [b for b in range(len(origins_blocks)) if origins_blocks[b] == ("n1",)]
    v2_blocks = [b for b in range(len(origins_blocks)) if origins_blocks[b] == ("n2",)]
    v1, v2 = len(v1_blocks), len(v2_blocks)

    class_origin = []
    d1slot = []
    d2slot = []
    for cls in range(nclasses):
        ent = class_entity[cls]
        if ent[0] == "b":
            block, partname = ent[1], ent[2]
            if partname == "n1":
                class_origin.append(("n1",))
                d1slot.append(v1_blocks.index(block))
                d2slot.append(None)
            else:
                class_origin.append(("n2",))
                d1slot.append(None)
                d2slot.append(v2_blocks.index(block))
        elif ent[0] == REF_SHARED:
            class_origin.append(ent)
            d1slot.append(v1 + ent[1])
            d2slot.append(v2 + ent[2])
        elif ent[0] == REF_P1:
            class_origin.append(ent)
            d1slot.append(v1 + ent[1])
            d2slot.append(None)
        else:
            class_origin.append(ent)
            d1slot.append(None)
            d2slot.append(v2 + ent[1])
    return res_eq, tuple(class_origin), (tuple(d1slot), tuple(d2slot)), (v1, v2)


def _pack_side(interner: Interner, did: int, part, arities, base_m: int):
    """One part's share of a config: per predicate and set column a bitmask
    of the entries the part makes true (bit e for entry e), and per tabled
    predicate the id of the part-projected sub-diagram of each entry.

    Projections have pairwise-distinct slots, so their atoms are indexed by
    slot tuples directly."""
    _, atom_idx, dslot, sub_slots = part
    diag = interner.diagram(did)
    masks = [sum(1 << e for e, idx in enumerate(idxs) if idx is not None and atoms[idx])
             for idxs, atoms in zip(atom_idx, diag[2])]
    masks += [sum(1 << c for c, slot in enumerate(dslot) if slot is not None and col[slot])
              for col in diag[3]]
    subs = tuple(tuple(_sub_diagram(interner, did, slots, base_m, arities)
                       for slots in entry_slots)
                 for entry_slots in sub_slots)
    return tuple(masks), subs


def _sub_diagram(interner: Interner, did: int, slots, base_m: int, arities) -> int:
    """A pattern's part type, as a diagram id: the diagram of the slots
    without the set columns added by theory depth."""
    key = (did, slots, base_m)
    out = interner.sub_diagrams.get(key)
    if out is None:
        v, eq, rel, sets = subdiagram(interner.diagram(did), list(slots), arities)
        out = interner.sub_diagrams[key] = interner.diagram_id((v, eq, rel, sets[:base_m]))
    return out


def _table_mask(interner: Interner, scheme: Scheme, name, skeletons, subs1, subs2,
                union: int) -> int:
    """A tabled predicate's entries under its table, as a bitmask; values
    are memoized per pattern and union bit."""
    memo = interner.table_values
    sid = scheme.scheme_id
    mask = 0
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
    arity = 1 if _set_column(pred_name) is not None else dict(vocab.predicates)[pred_name]
    kept = scheme.kept_refs()
    for eq in partitions(arity):
        nclasses = max(eq) + 1 if eq else 0
        for origins in _block_origins(nclasses, kept):
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

