"""Theory computation, interning, formal spaces, and small-model tables.

Claims:
    - depth-0 theories match hand/oracle-derived diagram sets
    - long paths share theories; short ones do not
    - theories are isomorphism-invariant and digests are structural
    - payload of a depth-(n+1) theory has at most 2^size members
    - a depth-0 digest hashes the diagrams sorted as tuples, whatever ids
      the interner gave them, and whether it is made in one batch with
      other theories or alone
    - digests are made when first read, each record's once
    - an interner builds one Theory per value, and hands out that object
      from compute_theory, transfer, rec and children alike
    - a fresh interner starts with every table empty, and work in it leaves
      the default interner alone
    - Th^0 from the diagram engine equals a brute-force build, one diagram
      per tuple, on the subset-table path and on the per-mask path, also
      with a ternary predicate whose 125 atoms over five classes pass one
      machine word
    - every realizable theory is a member of the formal space, which
      refuses a theory of another interner
    - formal spaces obey the powerset law and refuse over budget
    - small-model tables over class representatives equal those over every
      labelled structure, intern ids and witnesses included
"""

import hashlib
import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import k2_graph, rand_structure
from hintikka import theory as theory_module
from hintikka.composition import disjoint_union_scheme, glue, plain_union_scheme, transfer
from hintikka.config import Config
from hintikka.diagrams import DiagramEngine, complete_diagrams, partitions
from hintikka.errors import BudgetError, SignatureError
from hintikka.structures import (
    Structure,
    Vocabulary,
    apply_permutation,
    enumerate_structures,
    path_graph,
)
from hintikka.theory import (
    Interner,
    Theory,
    compute_theory,
    default_interner,
    enumerate_formal,
    small_model_theories,
    theories_equal_on_sentences,
)


def test_single_vertex_depth0_one_diagram():
    m = Structure(Vocabulary((("E", 2),)), 1)
    t = compute_theory(m, 0)
    assert len(t.payload) == 1
    (diag,) = t.payload
    v, eq, rel, sets = diag
    assert v == 3 and eq == (0, 0, 0)
    assert rel[0] == (False,)        # the only atom E(x,x) is false


def test_single_vertex_depth1_two_members():
    m = Structure(Vocabulary((("E", 2),)), 1)
    assert len(compute_theory(m, 1).payload) == 2


def test_long_paths_share_depth0_theory():
    t5 = compute_theory(path_graph(5), 0)
    t6 = compute_theory(path_graph(6), 0)
    t8 = compute_theory(path_graph(8), 0)
    t4 = compute_theory(path_graph(4), 0)
    assert t6.intern_id == t8.intern_id == t5.intern_id
    assert t4.intern_id != t8.intern_id


def test_isomorphism_invariance():
    rng = random.Random(5)
    v = Vocabulary((("E", 2),), 1, 1)
    for _ in range(15):
        m = rand_structure(v, rng.randint(1, 5), rng)
        pi = list(range(m.size))
        rng.shuffle(pi)
        for n in (0, 1):
            assert compute_theory(m, n).digest == \
                compute_theory(apply_permutation(m, pi), n).digest


def test_digest_stable_across_interners():
    m = path_graph(5)
    a = compute_theory(m, 1, Interner())
    b = compute_theory(m, 1, Interner())
    assert a.interner is not b.interner
    assert len(a.interner) > 0 and len(b.interner) > 0
    assert a.digest == b.digest and len(a.digest) == 64


def test_intern_id_equality_iff_structural():
    itn = Interner()
    t1 = compute_theory(path_graph(6), 0, itn)
    t2 = compute_theory(path_graph(8), 0, itn)
    assert (t1.intern_id == t2.intern_id) == (t1.digest == t2.digest)
    t3 = compute_theory(path_graph(3), 0, itn)
    assert t3.intern_id != t1.intern_id and t3.digest != t1.digest


# diagrams of S/1, E/2 with one constant and one set column, over 3 variables
VOCAB_KEY = (("S", 1), ("E", 2))
EQS = tuple(partitions(4))


@st.composite
def diagrams(draw, v=3, eqs=EQS):
    eq = draw(st.sampled_from(eqs))
    n = max(eq) + 1
    bits = lambda width: tuple(draw(st.lists(st.booleans(), min_size=width, max_size=width)))
    return (v, eq, (bits(n), bits(n * n)), (bits(n),))


MANY = tuple(sorted({(3, eq, ((i % 2 == 0,) * n, (i % 3 == 0,) * n * n), ((i > 6,) * n,))
                     for i, eq in enumerate(EQS) for n in [max(eq) + 1]}))


@settings(max_examples=80, deadline=None)
@given(picked=st.lists(diagrams(), max_size=30), others=st.lists(diagrams(), max_size=10),
       const_diag=diagrams(v=0, eqs=((0,),)), seed=st.integers(0, 2 ** 32))
@example(picked=[], others=list(MANY), const_diag=(0, (0,), ((True,), (False,)), ((False,),)),
         seed=0)
@example(picked=[MANY[3]], others=list(MANY), const_diag=(0, (0,), ((True,), (False,)),
                                                         ((False,),)), seed=1)
@example(picked=list(MANY), others=[], const_diag=(0, (0,), ((False,), (True,)), ((True,),)),
         seed=2)
def test_depth0_digest_is_sorted_diagram_repr(picked, others, const_diag, seed):
    # ids are given in a shuffled order, unrelated to the order of the tuples
    interner = Interner()
    warm = picked + others
    random.Random(seed).shuffle(warm)
    for d in warm:
        interner.diagram_id(d)
    tid = interner.intern_depth0(VOCAB_KEY, 1, 1, {interner.diagram_id(d) for d in picked},
                                 interner.diagram_id(const_diag))
    t = interner.rec(tid)
    diagrams = tuple(sorted(set(picked)))
    canonical = ("t0", VOCAB_KEY, 1, 1, diagrams, const_diag)
    assert t.digest == hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()
    assert t.payload == diagrams


CONST = (0, (0,), ((True,), (False,)), ((False,),))
# MANY with a second set column, and diagrams of E/2 alone without constants
TWO_SETS = tuple((v, eq, rel, sets + sets) for v, eq, rel, sets in MANY)
E_ONLY = tuple((3, eq, ((i % 3 == 1,) * (max(eq) + 1) ** 2,), ())
               for i, eq in enumerate(partitions(3)))
# (vocab_key, m, k, diagrams, const_diag): overlapping payloads, mixed
# signatures, one theory with a single diagram and one with none
DEPTH0_SPECS = (
    (VOCAB_KEY, 1, 1, MANY[:10], CONST),
    (VOCAB_KEY, 1, 1, MANY[5:], CONST),
    (VOCAB_KEY, 1, 1, (MANY[7],), CONST),
    (VOCAB_KEY, 2, 1, TWO_SETS[3:12], (0, (0,), ((True,), (False,)), ((False,), (True,)))),
    ((("E", 2),), 0, 0, E_ONLY, (0, (), ((),), ())),
    ((("E", 2),), 0, 0, E_ONLY[1:3], (0, (), ((),), ())),
    ((("E", 2),), 0, 0, (), (0, (), ((),), ())),
)


def _intern_spec(interner, spec):
    vocab_key, m, k, diags, const_diag = spec
    return interner.intern_depth0(vocab_key, m, k, {interner.diagram_id(d) for d in diags},
                                  interner.diagram_id(const_diag))


def test_depth0_digests_in_one_batch_equal_digests_one_at_a_time():
    expected = [hashlib.sha256(repr(("t0", vk, m, k, tuple(sorted(diags)), cd))
                               .encode("utf-8")).hexdigest()
                for vk, m, k, diags, cd in DEPTH0_SPECS]
    batch = Interner()
    warm = [d for spec in DEPTH0_SPECS for d in spec[3]]
    random.Random(5).shuffle(warm)          # ids unrelated to tuple order
    for d in warm:
        batch.diagram_id(d)
    tids = [_intern_spec(batch, spec) for spec in DEPTH0_SPECS]
    assert [batch.rec(tid).digest for tid in reversed(tids)] == expected[::-1]
    single = Interner()
    one_at_a_time = [single.rec(_intern_spec(single, spec)).digest for spec in DEPTH0_SPECS]
    assert one_at_a_time == expected


def test_digests_are_made_when_first_read(monkeypatch):
    hashed = []

    def sha256(data):
        hashed.append(data)
        return hashlib.sha256(data)

    monkeypatch.setattr(theory_module, "hashlib", SimpleNamespace(sha256=sha256))
    interner = Interner()
    m1, m2 = path_graph(3, 1, (1,)), path_graph(2, 1, (0,))
    point = plain_union_scheme(1, 1, 1, ident=((0, 0),), result_refs=(("s", 0, 0),))
    glued = transfer(compute_theory(m1, 1, interner), compute_theory(m2, 1, interner), point)
    assert hashed == []
    digests = [interner.rec(tid).digest for tid in range(len(interner))]
    assert len(hashed) == len(interner)              # each record hashed once
    assert [interner.rec(tid).digest for tid in range(len(interner))] == digests
    assert len(hashed) == len(interner)
    assert glued.digest == compute_theory(glue(m1, m2, point), 1, Interner()).digest


def test_one_theory_object_per_value():
    interner = Interner()
    m1, m2 = path_graph(3, 1, (1,)), path_graph(2, 1, (0,))
    t1 = compute_theory(m1, 1, interner)
    assert type(t1) is Theory and t1 is compute_theory(m1, 1, interner)
    assert t1 is interner.rec(t1.intern_id)
    assert all(c is interner.rec(tid) for c, tid in zip(t1.children(), t1.ids))
    point = plain_union_scheme(1, 1, 1, ident=((0, 0),), result_refs=(("s", 0, 0),))
    glued = transfer(t1, compute_theory(m2, 1, interner), point)
    assert glued is interner.rec(glued.intern_id)
    assert glued is compute_theory(glue(m1, m2, point), 1, interner)
    # equal digests in two interners, yet two theories
    elsewhere = compute_theory(m1, 1, Interner())
    assert elsewhere.digest == t1.digest and elsewhere != t1


def test_fresh_interner_sizes():
    before = default_interner().sizes()
    fresh = Interner()
    sizes = fresh.sizes()
    assert {"theories", "diagrams", "theory_memo", "transfer_memo", "side_tables",
            "config_memos", "part_memos"} <= set(sizes)
    assert not {"side_packs", "unpacked_diagrams"} & set(sizes)
    assert set(sizes.values()) == {0}
    t = compute_theory(path_graph(3), 1, fresh)
    transfer(t, t, disjoint_union_scheme())
    enumerate_formal(Vocabulary(()), 0, interner=fresh)
    grown = fresh.sizes()
    assert grown.keys() == sizes.keys()
    assert all(grown[name] > 0 for name in ("theories", "diagrams", "theory_memo",
                                            "transfer_memo", "side_tables", "config_memos",
                                            "part_memos"))
    assert default_interner().sizes() == before


def _brute_th0(m, r, extra_masks):
    """Th^0 of m with extra set columns in bool form, one diagram per tuple:
    the equality type of the r-tuple and the constants, each relation's
    membership per class tuple, and the class bits in every set."""
    columns = list(m.sets) + [{e for e in range(m.size) if u >> e & 1} for u in extra_masks]

    def diagram(v, elems):
        reps = tuple(dict.fromkeys(elems))
        rel = tuple(tuple(t in tuples for t in itertools.product(reps, repeat=arity))
                    for (_, arity), tuples in zip(m.vocab.predicates, m.relations))
        return (v, tuple(map(reps.index, elems)), rel,
                tuple(tuple(e in col for e in reps) for col in columns))

    forms = {diagram(r, elems + m.consts) for elems in itertools.product(range(m.size), repeat=r)}
    return frozenset(forms), diagram(0, m.consts)


def _th0_cases():
    rng = random.Random(8)
    for case in range(24):
        size, k, num_sets = 1 + case % 4, case % 3, case // 3 % 2
        vocab = Vocabulary((("E", 2), ("S", 1)), k, num_sets)
        m = rand_structure(Vocabulary(vocab.predicates, 0, num_sets), size, rng)
        consts = tuple(rng.randrange(size) for _ in range(k))
        if k == 2 and case % 2:
            consts = (consts[0], consts[0])     # two constants naming one element
        yield Structure(vocab, size, m.relations, consts, m.sets)
    for vocab in (Vocabulary(()), Vocabulary((("S", 1),), 1, 1)):
        yield rand_structure(vocab, 13, rng)     # 2^13 masks: the per-mask path
    # a ternary predicate over five classes: 125 atoms in one relation word
    yield rand_structure(Vocabulary((("R", 3), ("E", 2)), 2), 5, rng)


def test_th0_matches_brute_force():
    interner = Interner()
    rng = random.Random(9)
    table_path = mask_path = 0
    for m in _th0_cases():
        r = m.vocab.arity + 1
        engine = DiagramEngine(m, r, interner)
        full = 2 ** m.size - 1
        for extra in ((), (0,), (full,), (rng.randint(0, full),),
                      (rng.randint(0, full), rng.randint(0, full)), (), (full, 0, 1)):
            ids, cid = engine.th0_local(extra)
            forms, const_form = _brute_th0(m, r, extra)
            # the bool forms read back, and the ids that diagram_id gives them
            assert (frozenset(map(interner.diagram, ids)), interner.diagram(cid)) == (
                forms, const_form)
            assert (frozenset(map(interner.diagram_id, forms)),
                    interner.diagram_id(const_form)) == (ids, cid)
        if engine._subset_rows() is None:
            mask_path += 1
        else:
            table_path += 1
    assert table_path == 25 and mask_path == 2


# the vocabularies of the id tests: their bool forms overlap (S/1 and E/2
# have equal relation tuples over one class) and differ (over none or two)
ID_VOCABS = ((), (("S", 1),), (("E", 2),), (("S", 1), ("E", 2)))


def _bool_forms():
    """Every complete diagram in bool form over ID_VOCABS, with 0-2 set
    columns and at most two slots, the no-class diagrams (no slot) too."""
    for preds in ID_VOCABS:
        arities = tuple(a for _, a in preds)
        for m, slots in itertools.product(range(3), range(3)):
            for eq in partitions(slots):
                for v in {0, slots}:
                    yield from complete_diagrams(v, eq, arities, m)


def test_diagram_ids_are_injective_and_round_trip():
    interner = Interner()
    forms = list(_bool_forms())
    ids = [interner.diagram_id(d) for d in forms]
    assert len(set(ids)) == len(set(forms)) == interner.sizes()["diagrams"]
    assert [interner.diagram(did) for did in ids] == forms
    no_class = {(0, (), rel, ((),) * m) for rel in ((), ((),), ((), ())) for m in range(3)}
    assert no_class <= set(forms)


def test_bool_form_ids_are_engine_ids():
    interner = Interner()
    rng = random.Random(16)
    for preds, num_sets, size in itertools.product(ID_VOCABS, range(3), range(3)):
        for k in range(min(size, 1) + 1):
            m = rand_structure(Vocabulary(preds, k, num_sets), size, rng)
            t = compute_theory(m, 1, interner)
            for t0 in (compute_theory(m, 0, interner),) + t.children():
                assert [interner.diagram_id(d) for d in t0.payload] == sorted(
                    t0.ids, key=interner.diagram)
                assert interner.diagram_id(t0.const_diag) == t0.const_id
            assert interner.diagram_id(t.const_diag) == t.const_id


def test_payload_bound():
    rng = random.Random(9)
    v = Vocabulary((("E", 2),))
    for _ in range(8):
        m = rand_structure(v, rng.randint(1, 4), rng)
        assert len(compute_theory(m, 1).payload) <= 2 ** m.size
        assert len(compute_theory(m, 2).payload) <= 2 ** m.size


def test_depth_budget_guards():
    m = path_graph(3)
    with pytest.raises(BudgetError):
        compute_theory(m, 5)
    big = path_graph(9)
    with pytest.raises(BudgetError):
        compute_theory(big, 2)


def test_formal_empty_vocab_three_members():
    sp = enumerate_formal(Vocabulary(()), 0)
    assert sp.cardinality == 3
    sizes = sorted(len(t.payload) for t in sp.members())
    assert sizes == [0, 1, 2]


def test_formal_powerset_law():
    v0 = Vocabulary(())
    inner = enumerate_formal(v0.with_sets(1), 0)
    sp1 = enumerate_formal(v0, 1, budget=2 ** 22)
    assert sp1.cardinality == 2 ** inner.cardinality


def test_formal_budget_refusals():
    graphs = Vocabulary((("E", 2),))
    with pytest.raises(BudgetError):
        enumerate_formal(graphs, 0)
    with pytest.raises(BudgetError):
        enumerate_formal(graphs, 2)


def test_realizable_subset_of_formal():
    v0 = Vocabulary(())
    sp = enumerate_formal(v0, 0)
    for size in (0, 1, 2, 3):
        assert sp.contains(compute_theory(Structure(v0, size), 0))
    unary = Vocabulary((("S", 1),), 1, 0)
    spu = enumerate_formal(unary, 0, budget=2 ** 20)
    m = Structure(unary, 2, (frozenset({(0,)}),), (1,))
    assert spu.contains(compute_theory(m, 0))
    # depth 1 membership via the symbolic powerset
    sp1 = enumerate_formal(v0, 1, budget=2 ** 22)
    assert sp1.contains(compute_theory(Structure(v0, 2), 1))


def test_formal_space_refuses_theories_of_another_interner():
    own, warmed = Interner(), Interner()
    compute_theory(path_graph(3), 1, warmed)
    v0 = Vocabulary(())
    point = Structure(v0, 1)
    for depth in (0, 1):
        sp = enumerate_formal(v0, depth, budget=2 ** 22, interner=own)
        assert sp.contains(compute_theory(point, depth, own))
        with pytest.raises(SignatureError, match="theories come from different interners"):
            sp.contains(compute_theory(point, depth, warmed))


def test_small_model_theories_graphs():
    graphs = Vocabulary((("E", 2),))
    sm = small_model_theories(graphs, 0, 1)
    assert len(sm.entries) == 2                      # loop / no loop
    assert all(sizes == (1,) for _, sizes in sm.entries)
    sm2 = small_model_theories(graphs, 0, 2)
    assert len(sm2.entries) > 2
    for tid, sizes in sm2.entries:
        assert set(sizes) <= {1, 2}


def test_small_model_theories_with_constant():
    v = Vocabulary((("E", 2),), 1)
    sm = small_model_theories(v, 0, 1)
    assert len(sm.entries) == 2                      # constant on loop / non-loop
    for tid, _ in sm.entries:
        assert sm.witnesses[tid].size == 1


@pytest.mark.parametrize("vocab,depth,k_star", [
    (Vocabulary((("E", 2),), 2), 0, 3),
    (Vocabulary((("E", 2),), 1), 1, 2),
    (Vocabulary((("S", 1), ("E", 2)), 0, 1), 1, 2),
])
def test_small_model_theories_match_labelled_loop(vocab, depth, k_star):
    labelled = Interner()
    sizes_by_theory, witnesses = {}, {}
    for size in range(1, k_star + 1):
        for m in enumerate_structures(vocab, size):
            tid = compute_theory(m, depth, labelled).intern_id
            sizes_by_theory.setdefault(tid, set()).add(size)
            witnesses.setdefault(tid, m)
    entries = tuple(sorted((tid, tuple(sorted(s))) for tid, s in sizes_by_theory.items()))
    sm = small_model_theories(vocab, depth, k_star, Interner())
    assert sm.entries == entries
    assert {tid: m.key() for tid, m in sm.witnesses.items()} == \
        {tid: m.key() for tid, m in witnesses.items()}


def test_sentence_agreement_identity_and_paths():
    m = path_graph(4)
    rep = theories_equal_on_sentences(m, m, 1, 20, 3)
    assert rep.theories_equal and rep.agreements == 20
    rep2 = theories_equal_on_sentences(path_graph(6), path_graph(8), 0, 100, 3)
    assert rep2.theories_equal and not rep2.disagreements


def test_sentence_agreement_reports_difference_without_sampling():
    rep = theories_equal_on_sentences(
        k2_graph(), Structure(Vocabulary((("E", 2),)), 2), 0, 100, 3)
    assert not rep.theories_equal and rep.samples == 0


def test_dump_format():
    t = compute_theory(path_graph(3), 1)
    dump = t.dump()
    head = dump.splitlines()[0]
    assert head.startswith("theory depth=1 tau=E/2 m=0 k=0 digest=")
    assert len(head.split("digest=")[1]) == 64
    assert dump.splitlines()[1].startswith("{")


def test_dump_prints_member_digests_in_digest_order():
    fresh = compute_theory(path_graph(3), 2, Interner()).dump()
    warmed = Interner()
    for m in (k2_graph(), path_graph(4), path_graph(2, 1, (0,))):
        compute_theory(m, 1, warmed)
    assert compute_theory(path_graph(3), 2, warmed).dump() == fresh
    t = compute_theory(path_graph(3), 1, warmed)
    members = sorted(c.digest for c in t.children())
    assert t.dump().splitlines()[1] == "{" + ",".join(members) + "}"
