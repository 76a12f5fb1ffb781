"""Gluing schemes and the addition theorem.

The defining property: transfer after computing part theories equals the
theory of glue, exactly, for every tested scheme and depth. The direct
computation on the glued structure is the oracle throughout.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import k2_graph, mutated, rand_structure, triangle
from hintikka import composition
from hintikka.composition import (
    REF_P1,
    REF_P2,
    REF_SHARED,
    Scheme,
    _BASE,
    _LIFT0,
    _block_origins,
    _config_recipe,
    _scheme_configs,
    count_patterns,
    count_schemes,
    disjoint_union_scheme,
    enumerate_patterns,
    enumerate_schemes,
    glue,
    parse_scheme,
    pattern_key,
    pattern_union_value,
    plain_union_scheme,
    random_table_scheme,
    serialize_scheme,
    table_extension,
    transfer,
)
from hintikka.diagrams import canonical_eq, partitions
from hintikka.errors import BudgetError, ParseError, SignatureError
from hintikka.structures import Structure, Vocabulary, path_graph
from hintikka.theory import Interner, compute_theory

GRAPHS = Vocabulary((("E", 2),))

GLUE_POINT = plain_union_scheme(1, 1, 1, ident=((0, 0),),
                                result_refs=(("s", 0, 0),))
CHAIN = plain_union_scheme(2, 2, 2, ident=((1, 0),),
                           result_refs=(("1", 0), ("2", 1)))


def _scheme_samples(rng, vocab, k1, k2, seed):
    idents = ((0, 0),) if (k1 and k2 and rng.random() < 0.6) else ()
    keep1, keep2 = [True] * k1, [True] * k2
    ents = Scheme(k1, k2, 0, idents).entities()
    if ents and rng.random() < 0.4:
        ref = rng.choice([ref for ref, _ in ents])
        if ref[0] == "s":
            keep1[ref[1]] = keep2[ref[2]] = False
        elif ref[0] == "1":
            keep1[ref[1]] = False
        else:
            keep2[ref[1]] = False
    kept = Scheme(k1, k2, 0, idents, tuple(keep1), tuple(keep2)).kept_refs()
    k = rng.randint(0, min(2, len(kept)))
    result = tuple(rng.sample(list(kept), k))
    shape = (k1, k2, k, idents, tuple(keep1), tuple(keep2), result)
    if rng.random() < 0.5:
        sampled = plain_union_scheme(*shape)
    else:
        sampled = random_table_scheme(vocab, *shape[:3], seed, *shape[3:])
    return sampled, _mixed_kind_scheme(vocab, shape, seed)


def _mixed_kind_scheme(vocab, shape, seed):
    """One table of each kind on the sampled constants: E by PRF, S constant
    true, P0 every other entry of a PRF table as overrides on a union default.
    A name outside the vocabulary is ignored, so over E alone the P0 table
    must not touch the set column that theory depth adds."""
    prf = random_table_scheme(vocab, *shape[:3], seed + 500, *shape[3:])
    overrides = tuple(sorted(table_extension(prf, vocab).get("P0", {}).items()))[::2]
    tables = (("E", ("random", seed)), ("S", ("const", True)),
              ("P0", ("map", "union", overrides)))
    return Scheme(*shape, tables)


def test_glue_k2_on_point_gives_p3(interner):
    left = k2_graph(1, (1,))
    right = k2_graph(1, (0,))
    g = glue(left, right, GLUE_POINT)
    assert g.size == 3
    assert compute_theory(g, 0, interner).digest == \
        compute_theory(path_graph(3, 1, (1,)), 0, interner).digest


def test_glue_neutral_element(interner):
    v1 = Vocabulary((("E", 2),), 1)
    point = Structure(v1, 1, (frozenset(),), (0,))
    m1 = rand_structure(v1, 4, random.Random(2))
    g = glue(m1, point, GLUE_POINT)
    assert g.size == m1.size
    for n in (0, 1, 2):
        assert compute_theory(g, n, interner).digest == compute_theory(m1, n, interner).digest


def test_glue_bowtie():
    t1 = triangle(1, (0,))
    t2 = triangle(1, (0,))
    g = glue(t1, t2, GLUE_POINT)
    assert g.size == 5
    assert len(g.rel("E")) // 2 == 6


def test_glue_size_law():
    rng = random.Random(4)
    v = Vocabulary((("E", 2),), 2)
    for trial in range(30):
        m1 = rand_structure(v, rng.randint(2, 5), rng)
        m2 = rand_structure(v, rng.randint(2, 5), rng)
        for s in _scheme_samples(rng, v, 2, 2, 900 + trial):
            assert glue(m1, m2, s).size == m1.size + m2.size - s.j


def test_glue_rejects_repeated_constants():
    v = Vocabulary((("E", 2),), 2)
    bad = Structure(v, 2, (frozenset(),), (0, 0))
    good = Structure(v, 2, (frozenset(),), (0, 1))
    s = plain_union_scheme(2, 2, 0)
    with pytest.raises(SignatureError):
        glue(bad, good, s)


def test_plain_union_clause():
    # union table: within-part tuples copy the part, mixed tuples are false
    rng = random.Random(6)
    for _ in range(10):
        m1 = rand_structure(GRAPHS, rng.randint(1, 4), rng)
        m2 = rand_structure(GRAPHS, rng.randint(1, 4), rng)
        g = glue(m1, m2, disjoint_union_scheme())
        n1 = m1.size
        expected = set(m1.rel("E")) | {(a + n1, b + n1) for a, b in m2.rel("E")}
        assert g.rel("E") == frozenset(expected)


def test_transfer_matches_direct_random(interner):
    rng = random.Random(13)
    checked = 0
    for preds, nsets in (((("E", 2),), 0), ((("S", 1), ("E", 2)), 1)):
        for trial in range(10):
            k1, k2 = rng.randint(0, 2), rng.randint(0, 2)
            v1 = Vocabulary(preds, k1, nsets)
            v2 = Vocabulary(preds, k2, nsets)
            m1 = rand_structure(v1, rng.randint(max(1, k1), 3), rng)
            m2 = rand_structure(v2, rng.randint(max(1, k2), 3), rng)
            for s in _scheme_samples(rng, v1, k1, k2, 40 + trial):
                g = glue(m1, m2, s)
                for n in (0, 1):
                    lhs = transfer(compute_theory(m1, n, interner),
                                   compute_theory(m2, n, interner), s, interner)
                    rhs = compute_theory(g, n, interner)
                    assert lhs.intern_id == rhs.intern_id
                    checked += 1
    assert checked == 80


def test_transfer_leaves_depth_columns_union(interner):
    # a table on P0 over a vocabulary without sets names no column of the
    # parts; at depth 1, P0 is the column theory depth adds, which glue
    # never sees, so transfer must keep it union as well
    s = parse_scheme("scheme k1=0 k2=0 k=0\ntable P0 default=true\n")
    m1, m2 = path_graph(2), path_graph(3)
    for n in (0, 1):
        lhs = transfer(compute_theory(m1, n, interner),
                       compute_theory(m2, n, interner), s, interner)
        assert lhs.intern_id == compute_theory(glue(m1, m2, s), n, interner).intern_id


def test_transfer_to_an_empty_glue():
    # no diagram is realized when the glue is empty: both parts empty, or
    # every element a dropped constant; its constant diagram has no class
    interner = Interner()
    v1 = Vocabulary((("S", 1), ("E", 2)), 1, 1)
    point = Structure(v1, 1, (frozenset(), frozenset()), (0,), (frozenset({0}),))
    empty = Structure(Vocabulary((("S", 1), ("E", 2)), 0, 1), 0)
    dropped = plain_union_scheme(1, 1, 0, keep1=(False,), keep2=(False,))
    for m1, m2, s in ((point, point, dropped), (empty, empty, disjoint_union_scheme())):
        for n in (0, 1, 2):
            lhs = transfer(compute_theory(m1, n, interner),
                           compute_theory(m2, n, interner), s, interner)
            assert lhs.intern_id == compute_theory(glue(m1, m2, s), n, interner).intern_id


def test_transfer_vocabularies_share_interner():
    # the same scheme over two orders of the same arities: the kernel's
    # memos must keep the vocabularies apart
    interner = Interner()
    s = disjoint_union_scheme()
    rng = random.Random(1)
    for preds in ((("S", 1), ("E", 2)), (("E", 2), ("S", 1))):
        v = Vocabulary(preds)
        for _ in range(6):
            m1, m2 = rand_structure(v, 2, rng), rand_structure(v, 2, rng)
            lhs = transfer(compute_theory(m1, 0, interner),
                           compute_theory(m2, 0, interner), s, interner)
            assert lhs.intern_id == compute_theory(glue(m1, m2, s), 0, interner).intern_id


def test_transfer_digest_independent_of_diagram_ids():
    # a warmed interner has assigned diagram ids in another order than a
    # fresh one; transfers must still give the same digests, each equal to
    # the theory of the glue computed in an interner of its own
    rng = random.Random(23)
    warmed = Interner()
    warm_vocab = Vocabulary((("S", 1), ("E", 2)), 1, 1)
    for _ in range(8):
        compute_theory(rand_structure(warm_vocab, 3, rng), 1, warmed)
    v = Vocabulary((("S", 1), ("E", 2)), 1)
    differ = False
    for trial in range(4):
        m1, m2 = rand_structure(v, rng.randint(1, 3), rng), rand_structure(v, 2, rng)
        for s in _scheme_samples(rng, v, 1, 1, 300 + trial):
            for n in (0, 1):
                fresh = Interner()
                lhs = transfer(compute_theory(m1, n, fresh), compute_theory(m2, n, fresh), s)
                rhs = transfer(compute_theory(m1, n, warmed), compute_theory(m2, n, warmed), s)
                oracle = compute_theory(glue(m1, m2, s), n, Interner())
                assert lhs.digest == rhs.digest == oracle.digest
                if n == 0:
                    differ |= any(fresh.diagram_id(d) != warmed.diagram_id(d)
                                  for d in lhs.payload)
    assert differ


def test_config_memo_sharing():
    # the kernel keeps one memo per sequence of result classes, shared by
    # every lift, and one part memo per side recipe, shared by every config
    # memo with that recipe: base ids for the distinct packed base
    # projections, pack ids that add the lifted columns as class bits, and
    # per config memo a join table per pair of pack ids; filling it in
    # either order must give the same digests as the glue oracle, and equal
    # packs must share one id
    rng = random.Random(31)
    v = Vocabulary((("S", 1), ("E", 2)), 1)
    prf = random_table_scheme(v, 1, 1, 1, 90, ((0, 0),), result_refs=(("s", 0, 0),))
    p2, p3 = path_graph(2, 2, (0, 1)), path_graph(3, 2, (0, 2))
    cases = [(rand_structure(v, 2, rng), rand_structure(v, 3, rng), s, n)
             for s in (GLUE_POINT, prf) for n in (0, 1)]
    cases += [(m1, m2, CHAIN, 1) for m1, m2 in ((p2, p2), (p2, p3), (p3, p2))]
    forward, backward = Interner(), Interner()
    digests = [{}, {}]
    for interner, order, out in ((forward, range(len(cases)), digests[0]),
                                 (backward, reversed(range(len(cases))), digests[1])):
        for i in order:
            m1, m2, s, n = cases[i]
            out[i] = transfer(compute_theory(m1, n, interner),
                              compute_theory(m2, n, interner), s).digest
    for i, (m1, m2, s, n) in enumerate(cases):
        assert digests[0][i] == digests[1][i] == compute_theory(glue(m1, m2, s), n,
                                                                Interner()).digest
    for interner in (forward, backward):
        for part in interner.part_memos.values():
            packs = part.packs
            assert len(set(packs)) == len(packs)
            # base ids are dense and in order of first sight
            assert [part.pack_ids[p] for p in packs] == list(range(len(packs)))
            # a pack id is a base id with the lift sentinel above it
            assert all(x & _BASE < len(packs) and x >> 32 > 0 for x in part.pack_of.values())
        memos = [memo for ms in interner.config_memos.values() for memo in ms]
        for memo in memos:
            if memo.parts is None:
                assert memo.joins == {}
                continue
            # joins are keyed by pack ids of the side-1 part memo, then of
            # the side-2 one, and a lifted join extends the join of its base
            # packs
            packs1, packs2 = (part.packs for part in memo.parts)
            for x, row in memo.joins.items():
                for y, dids in row.items():
                    assert x & _BASE < len(packs1) and y & _BASE < len(packs2)
                    if (x | y) >> 32 != 1:
                        base = memo.joins[x & _BASE | _LIFT0][y & _BASE | _LIFT0]
                        assert len(base) == len(dids) == len(memo.res_eqs)
        # on the chain scheme, distinct base projections of P2 and P3 pack
        # alike, and at depth 1 one base pack comes with several lifted masks
        chain = [part for key, ms in interner.config_memos.items()
                 if key[0] == CHAIN.scheme_id for memo in ms if memo.parts
                 for part in memo.parts]
        assert any(sum(p >> 32 == 1 for p in part.pack_of) > len(part.packs)
                   for part in chain)
        assert any(max(Counter(x & _BASE for x in set(part.pack_of.values())
                               if x >> 32 != 1).values(), default=0) >= 2
                   for part in chain)


def test_lifts_share_memos_in_one_interner():
    # one interner meets the same schemes at depths 2, 0 and 1, then in the
    # reverse order, so one memo holds pack ids and joins of lifts 0, 1 and
    # 2; each transfer must equal the theory of the glue computed in an
    # interner of its own
    rng = random.Random(57)
    v = Vocabulary((("E", 2),), 1, 1)
    union = plain_union_scheme(1, 1, 1, ident=((0, 0),), result_refs=(("s", 0, 0),))
    prf = random_table_scheme(v, 1, 1, 1, 7, ((0, 0),), result_refs=(("s", 0, 0),))
    m1, m2 = rand_structure(v, 2, rng), rand_structure(v, 2, rng)
    interner = Interner()
    for n in (2, 0, 1, 1, 0, 2):
        for s in (union, prf):
            got = transfer(compute_theory(m1, n, interner), compute_theory(m2, n, interner), s)
            assert got.digest == compute_theory(glue(m1, m2, s), n, Interner()).digest


def test_part_memos_shared_across_schemes(monkeypatch):
    # union and PRF schemes over one vocabulary, with different tables and
    # the same result classes, fill one interner in either order: every
    # transfer equals the glue oracle, config memos of different schemes
    # with equal side recipes hold one part memo, and each (projection,
    # part memo) pair is packed once. A part memo keyed without its tabled
    # slots (the union and PRF schemes) or without its side's constant
    # count (k1 = 1 against k1 = 2 with constant 1 dropped) breaks this
    rng = random.Random(83)
    v = Vocabulary((("S", 1), ("E", 2)), 0, 1)
    one = dict(k1=1, k2=1, k=1, ident=((0, 0),), result_refs=(("s", 0, 0),))
    two = dict(k1=2, k2=1, k=1, ident=((0, 0),), keep1=(True, False),
               result_refs=(("s", 0, 0),))
    union1, union2 = plain_union_scheme(**one), plain_union_scheme(**two)
    prf1, prf2 = random_table_scheme(v, seed=3, **one), random_table_scheme(v, seed=8, **one)
    prf3 = random_table_scheme(v, seed=5, **two)
    colour = Scheme(tables=(("S", ("const", True)),), **one)
    parts = {k1: [rand_structure(Vocabulary(v.predicates, k1, 1), size, rng)
                  for size in (k1 + 1, k1 + 2)] for k1 in (1, 2)}
    cases = [(m1, m2, s, n)
             for s in (union1, union2, prf1, prf2, prf3, colour)
             for m1 in parts[s.k1] for m2 in parts[1][:1] for n in (0, 1)]
    packed = Counter()
    real = composition._pack_side

    def counted(interner, did, part, arities):
        packed[(did, part)] += 1
        return real(interner, did, part, arities)

    monkeypatch.setattr(composition, "_pack_side", counted)
    for order in (cases, cases[::-1]):
        interner = Interner()
        for m1, m2, s, n in order:
            got = transfer(compute_theory(m1, n, interner), compute_theory(m2, n, interner), s)
            assert got.digest == compute_theory(glue(m1, m2, s), n, Interner()).digest
        assert set(packed.values()) == {1}
        assert len(packed) == sum(sum(p >> 32 == 1 for p in part.pack_of)
                                  for part in interner.part_memos.values())
        packed.clear()

        def memos(s):
            return {memo.class_origin: memo for key, ms in interner.config_memos.items()
                    if key[0] == s.scheme_id and key[3] == 1 for memo in ms if memo.parts}

        by_scheme = {s: memos(s) for s in (union1, union2, prf1, prf2, prf3, colour)}
        shared = set(by_scheme[union1]) & set(by_scheme[union2]) & set(by_scheme[prf1])
        assert shared
        for origin in shared:
            u1, u2, p1 = (by_scheme[s][origin] for s in (union1, union2, prf1))
            # side 2 has one recipe under both constant counts of part 1
            assert u1.parts[1] is u2.parts[1]
            assert u1.parts[0] is not u2.parts[0]
            # tables that read part types need their slots; PRF seeds do not
            assert all(a is not b for a, b in zip(u1.parts, p1.parts))
            if origin in by_scheme[prf2]:
                assert all(a is b for a, b in zip(by_scheme[prf2][origin].parts, p1.parts))
            if origin in by_scheme[prf3]:
                assert by_scheme[prf3][origin].parts[1] is p1.parts[1]
            if origin in by_scheme[colour]:
                assert all(a is not b for a, b in zip(by_scheme[colour][origin].parts,
                                                      p1.parts))


def test_one_sided_memos_build_nothing():
    # a memo whose variables part 1 cannot supply (one element, no
    # constants, against two fresh part-1 variables) is skipped: no
    # recipe, no packs and no join row, and part 2's entry stays unpacked
    v = Vocabulary((("E", 2),))
    small = Structure(v, 1, (frozenset({(0, 0)}),))
    interner = Interner()
    got = transfer(compute_theory(small, 0, interner), compute_theory(triangle(), 0, interner),
                   disjoint_union_scheme())
    assert got.digest == compute_theory(glue(small, triangle(), disjoint_union_scheme()), 0,
                                        Interner()).digest
    (ckey, memos), = interner.config_memos.items()
    tables = [interner.side_tables[(t.intern_id, ckey, side)]
              for side, t in enumerate((compute_theory(small, 0, interner),
                                        compute_theory(triangle(), 0, interner)))]
    one_sided = [memo for memo in memos if memo.nvars[0] >= 2 and memo.nvars[1] >= 1]
    assert one_sided
    for memo in one_sided:
        assert memo.parts is memo.tabled is None and memo.joins == {}
        assert tables[0][memo.index] == () and tables[1][memo.index] is None
    for memo in memos:
        assert (memo.parts is not None) == bool(memo.joins)
        assert all(row for row in memo.joins.values())
    assert len(interner.part_memos) == len({part for memo in memos if memo.parts
                                           for part in memo.parts})


def _reference_config(eq_vars, origins_blocks, scheme, r):
    """One configuration resolved through its entities, the way the kernel
    once built a memo per configuration: eq over r+k slots, per-class
    origin, per part the per-class slot indices into its projections, and
    per part the variable count."""
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


def _memo_class_origin(memo):
    """The class origins a memo's projection slots encode."""
    (v1, v2), (d1, d2) = memo.nvars, (part.dslot for part in memo.parts)
    origin = []
    for s1, s2 in zip(d1, d2):
        if s1 is not None and s1 < v1:
            origin.append(("n1",))
        elif s2 is not None and s2 < v2:
            origin.append(("n2",))
        elif s1 is not None and s2 is not None:
            origin.append((REF_SHARED, s1 - v1, s2 - v2))
        elif s1 is not None:
            origin.append((REF_P1, s1 - v1))
        else:
            origin.append((REF_P2, s2 - v2))
    return tuple(origin)


def test_scheme_configs_cover_each_configuration_once():
    # one memo per sequence of result classes: its equality types are
    # exactly the configurations that resolve to its class origins and
    # slots, each configuration once; recipes wait for a join, so each is
    # built here
    v = Vocabulary((("S", 1), ("E", 2)), 0, 1)
    shapes = [
        dict(k1=2, k2=2, k=2, ident=((1, 0),), keep1=(False, True),
             result_refs=(("s", 1, 0), ("2", 1))),
        dict(k1=1, k2=2, k=2, keep2=(True, False), result_refs=(("2", 0), ("1", 0))),
        dict(k1=2, k2=1, k=1, ident=((0, 0),), keep1=(True, False),
             result_refs=(("s", 0, 0),)),
        dict(k1=1, k2=1, k=0, ident=((0, 0),), keep1=(False,), keep2=(False,)),
        dict(k1=2, k2=2, k=0, ident=((0, 1), (1, 0))),
    ]
    schemes = [plain_union_scheme(**shape) for shape in shapes]
    schemes += [random_table_scheme(v, seed=5 + i, **shape) for i, shape in enumerate(shapes)]
    interner = Interner()
    for s in schemes:
        for r in (2, 3):
            memos = _scheme_configs(s, r)
            assert all(memo.parts is memo.tabled is None for memo in memos)
            for memo in memos:
                _config_recipe(interner, s, memo, v.predicates, v.num_sets)
            got = Counter()
            origins = [_memo_class_origin(memo) for memo in memos]
            assert len(set(origins)) == len(origins)
            for memo, class_origin in zip(memos, origins):
                assert memo.class_origin == class_origin
                if s.tables:
                    # the set column's entries are the classes, each with
                    # its own origin
                    (_, _, skeletons), = [t for t in memo.tabled if t[1] == "P0"]
                    assert tuple(porig for _, (porig,) in skeletons) == class_origin
                dslots = tuple(part.dslot for part in memo.parts)
                got.update((res_eq, class_origin, dslots, memo.nvars) for res_eq in memo.res_eqs)
            want = Counter(
                _reference_config(eq_vars, origins_blocks, s, r)
                for eq_vars in partitions(r)
                for origins_blocks in _block_origins(max(eq_vars) + 1, s.kept_refs()))
            assert got == want


def test_transfer_depth2(interner):
    rng = random.Random(17)
    v = Vocabulary((("E", 2),), 1)
    for trial in range(3):
        m1 = rand_structure(v, 2, rng)
        m2 = rand_structure(v, rng.randint(1, 2), rng)
        s = GLUE_POINT if trial % 2 else random_table_scheme(v, 1, 1, 1, 70 + trial,
                                                             ((0, 0),),
                                                             result_refs=(("s", 0, 0),))
        g = glue(m1, m2, s)
        lhs = transfer(compute_theory(m1, 2, interner),
                       compute_theory(m2, 2, interner), s, interner)
        assert lhs.intern_id == compute_theory(g, 2, interner).intern_id


def test_transfer_p2_p2_equals_p3_depth1(interner):
    t = transfer(compute_theory(k2_graph(1, (1,)), 1, interner),
                 compute_theory(k2_graph(1, (0,)), 1, interner),
                 GLUE_POINT, interner)
    assert t.digest == compute_theory(path_graph(3, 1, (1,)), 1, interner).digest


def test_representative_independence(interner):
    from hintikka.structures import apply_permutation
    rng = random.Random(23)
    v = Vocabulary((("E", 2),), 1)
    for _ in range(8):
        m1 = rand_structure(v, 3, rng)
        m2 = rand_structure(v, 3, rng)
        pi1 = list(range(3)); rng.shuffle(pi1)
        pi2 = list(range(3)); rng.shuffle(pi2)
        m1p = apply_permutation(m1, pi1)
        m2p = apply_permutation(m2, pi2)
        s = GLUE_POINT
        a = compute_theory(glue(m1, m2, s), 1, interner)
        b = compute_theory(glue(m1p, m2p, s), 1, interner)
        assert a.intern_id == b.intern_id


def test_transfer_rejects_mismatched_signature(interner):
    t1 = compute_theory(k2_graph(1, (0,)), 0, interner)
    t2 = compute_theory(k2_graph(), 0, interner)
    with pytest.raises(SignatureError):
        transfer(t1, t2, GLUE_POINT, interner)


def test_enumerate_schemes_unary_count_law():
    unary = Vocabulary((("S", 1),))
    total = count_schemes(unary, 1, 1, 1)
    schemes = enumerate_schemes(unary, 1, 1, 1, k_star=2, budget=2 ** 20)
    assert len(schemes) == total
    assert len(set(s.scheme_id for s in schemes)) == total
    # count decomposes as sum over configs of 2^(pattern count)
    seen_cfgs = {(s.ident, s.keep1, s.keep2, s.result_refs) for s in schemes}
    acc = 0
    for ident, keep1, keep2, result in seen_cfgs:
        probe = Scheme(1, 1, 1, ident, keep1, keep2, result)
        acc += 2 ** count_patterns(unary, probe, "S")
    assert acc == total


def test_enumeration_contains_plain_union():
    unary = Vocabulary((("S", 1),))
    schemes = enumerate_schemes(unary, 0, 0, 0, k_star=1, budget=2 ** 20)
    du = disjoint_union_scheme()
    du_ext = table_extension(du, unary)
    assert any(table_extension(s, unary) == du_ext for s in schemes)


def test_enumerate_schemes_budget_refusal():
    with pytest.raises(BudgetError):
        enumerate_schemes(GRAPHS, 1, 1, 1, k_star=2, budget=1000)


def test_enumerate_schemes_refuses_negative_kstar():
    # the refusal names k*, not a valid constant count measured against it
    with pytest.raises(SignatureError, match=r"^k\*=-1 is not a natural number$"):
        enumerate_schemes(GRAPHS, 0, 0, 0, k_star=-1)


def test_pattern_keys_unique_and_union_values():
    unary = Vocabulary((("S", 1),))
    probe = plain_union_scheme(1, 1, 1, ((0, 0),), result_refs=(("s", 0, 0),))
    patterns = list(enumerate_patterns(unary, probe, "S"))
    keys = [pattern_key(p) for p in patterns]
    assert len(set(keys)) == len(keys) == count_patterns(unary, probe, "S")
    for p in patterns:
        assert pattern_union_value(p, unary) in (True, False)


def test_scheme_file_roundtrip():
    for s in (CHAIN, GLUE_POINT, disjoint_union_scheme(),
              Scheme(2, 1, 1, ((0, 0),), (True, False), (True,), (("s", 0, 0),),
                     (("E", ("const", True)),))):
        parsed = parse_scheme(serialize_scheme(s))
        assert parsed == s and parsed.scheme_id == s.scheme_id


def test_scheme_file_with_overrides_roundtrip():
    unary = Vocabulary((("S", 1),))
    schemes = enumerate_schemes(unary, 1, 1, 0, k_star=1, budget=2 ** 20)
    sample = schemes[len(schemes) // 3]
    assert parse_scheme(serialize_scheme(sample)) == sample


def test_scheme_validation():
    with pytest.raises(SignatureError):
        Scheme(1, 1, 1, ((0, 0),), (True,), (False,))     # joint flag mismatch
    with pytest.raises(SignatureError):
        Scheme(1, 1, 1, (), (False,), (True,), (("1", 0),))  # result ref dropped
    with pytest.raises(SignatureError):
        Scheme(0, 0, 1, (), (), (), (("1", 0),))          # ref out of range


@pytest.mark.parametrize("text, line", [
    ("scheme k1=1 k2=1 k=0\ndrop1 7\n", 2),
    ("scheme k1=1 k2=2 k=0\ndrop2 2\n", 2),
    ("drop1 -1\nscheme k1=1 k2=1 k=0\n", 1),
    ("scheme k1=0 k2=0 k=0\ntable E default=maybe\n", 2),
    ("scheme k1=1 k2=1 k=0\nident 0~5\n", 2),
    ("scheme k1=1 k2=1 k=1\nresult 0=1.0\ndrop1 0\n", None),    # a Scheme refusal
    ("scheme k1=0 k2=0 k=0\nscheme k1=0 k2=0 k=0\n", 2),
    ("scheme k1=0 k2=0 k=0 k=1\n", 1),
    ("scheme k1=0 k2=0 k=0 extra=3\n", 1),
    ("scheme k1=1 k2=1 k=1\nresult 0=1.0 0=2.0\n", 2),
    ("scheme k1=0 k2=0 k=0\ntable E default=true\ntable E default=false\n", 3),
    ("scheme k1=0 k2=0 k=0\ntable E random=1\n\ntable E random=2\n", 4),
    ("scheme k1=0 k2=0 k=0\ntable E default=true\ntable E random=3\n", 3),
    ("scheme k1=0 k2=0 k=0\ntable E random=3\ntable E pattern \"x\"=1\n", 3),
], ids=["drop1-range", "drop2-range", "drop-before-header", "table-default",
        "ident-range", "result-dropped", "second-header", "header-field-twice",
        "unknown-header-field", "result-twice", "table-default-twice",
        "table-random-twice", "table-random-after-default",
        "table-pattern-after-random"])
def test_parse_scheme_refusals(text, line):
    with pytest.raises(ParseError) as info:
        parse_scheme(text)
    assert info.value.line == line


def test_parse_scheme_refuses_a_repeated_pattern():
    text = 'scheme k1=0 k2=0 k=0\ntable E pattern "x"=1\ntable E pattern "x"=0\n'
    with pytest.raises(ParseError) as info:
        parse_scheme(text)
    assert info.value.line == 3


def test_parse_scheme_trailing_comments():
    """A comment may follow any line, a quoted pattern included, and a '#'
    inside the quotes belongs to the pattern."""
    text = ('scheme k1=0 k2=0 k=0  # no constants\n'
            'table E pattern "p" = 1  # note\n'
            'table E pattern "q#r" = 0 # "quoted" note\n'
            'table S default=true # constant\n')
    assert parse_scheme(text).tables == (
        ("E", ("map", "union", (("p", True), ("q#r", False)))), ("S", ("const", True)))


# pattern keys: any text without a double quote or a line break
PATTERN_KEYS = st.text(alphabet=" #=~.:|,;[]abxy01", max_size=8)
TABLE_SPECS = st.one_of(
    st.just(("union",)),
    st.tuples(st.just("const"), st.booleans()),
    st.tuples(st.just("map"), st.sampled_from(("union", False, True)),
              st.dictionaries(PATTERN_KEYS, st.booleans(), min_size=1, max_size=3)
              .map(lambda d: tuple(sorted(d.items())))),
    st.tuples(st.just("random"), st.integers(-50, 50)),
)


@st.composite
def schemes(draw):
    k1, k2 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    partners = draw(st.permutations(list(range(k2)) + [None] * k1))[:k1]
    ident = tuple((i, j) for i, j in enumerate(partners) if j is not None)
    keep1 = [draw(st.booleans()) for _ in range(k1)]
    keep2 = [draw(st.booleans()) for _ in range(k2)]
    for i, j in ident:
        keep2[j] = keep1[i]
    kept = Scheme(k1, k2, 0, ident, tuple(keep1), tuple(keep2)).kept_refs()
    refs = draw(st.permutations(kept))[:draw(st.integers(0, len(kept)))]
    tables = draw(st.dictionaries(st.sampled_from(("E", "S", "P0")), TABLE_SPECS, max_size=3))
    return Scheme(k1, k2, len(refs), ident, tuple(keep1), tuple(keep2), tuple(refs),
                  tuple(tables.items()))


@given(schemes())
@settings(max_examples=200, deadline=None)
def test_scheme_roundtrip_property(scheme):
    parsed = parse_scheme(serialize_scheme(scheme))
    assert parsed == scheme and parsed.scheme_id == scheme.scheme_id


SCHEME_TEXT = (
    "scheme k1=2 k2=2 k=2\n"
    "ident 1~0\n"
    "drop1 0\n"
    "result 0=1.1 1=2.1\n"
    "table E default=union\n"
    'table E pattern "p" = 1\n'
    "table S default=false\n"
    "table P0 random=7\n"
)


@given(mutated(SCHEME_TEXT))
@settings(max_examples=300, deadline=None)
def test_parse_scheme_mutation_fuzz(text):
    """Any input either parses or raises ParseError."""
    try:
        parse_scheme(text)
    except ParseError:
        pass
