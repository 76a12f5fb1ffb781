"""Closure fixpoints, composition facts, and witness replay.

Claims:
    - empty scheme set: base theories only, immediate convergence
    - disjoint-union closure matches the oracle over explicit disjoint unions
    - glue-on-a-point closure reaches every path theory (oracle: direct
      computation on explicit paths)
    - monotone growth, fixpoint stability under one extra sweep
    - facts files round-trip and feed spectra
    - a base that mixes two interners is refused, never closed over
    - a base theory whose constants coincide stays reachable, unglued
"""

import itertools

import pytest
from hypothesis import given, settings

from conftest import k2_graph, mutated
from hintikka.closure import (
    close,
    minimal_derivations,
    parse_facts,
    replay_witness,
    validate_replay,
    write_facts,
)
from hintikka.composition import disjoint_union_scheme, plain_union_scheme
from hintikka.errors import HintikkaError, ParseError
from hintikka.structures import Structure, Vocabulary, path_graph
from hintikka.theory import (Interner, Theory, compute_theory, default_interner,
                             small_model_theories)

GRAPHS = Vocabulary((("E", 2),))
CHAIN = plain_union_scheme(2, 2, 2, ident=((1, 0),),
                           result_refs=(("1", 0), ("2", 1)), name="chain")


def _k2_base(interner, depth=0):
    m = k2_graph()
    return {0: [(compute_theory(m, depth, interner), 2, m)]}


def test_no_schemes_is_base_only():
    interner = default_interner()
    base = _k2_base(interner)
    st = close(base, [], depth=0)
    assert st.status == "converged"
    assert st.facts == ()
    assert st.reachable() == frozenset([base[0][0][0]])


def test_disjoint_union_matches_oracle():
    """Closure over small base graphs equals direct theories of explicit
    disjoint unions up to size 8 (exact set equality).

    The all-2-element-graph base makes the same point but its fixpoint is
    too wide for a unit test; three generators already exercise the lattice
    of realized-diagram unions.
    """
    interner = default_interner()
    vertex = Structure(GRAPHS, 1)
    loop = Structure(GRAPHS, 1, (frozenset({(0, 0)}),))
    pieces = [vertex, loop, k2_graph()]
    base = {0: [(compute_theory(m, 0, interner), m.size, m) for m in pieces]}
    st = close(base, [disjoint_union_scheme()], depth=0)
    assert st.status == "converged"

    oracle = set()
    seen_keys = set()

    def unions(current, total, start):
        oracle.add(compute_theory(current, 0, interner))
        for idx in range(start, len(pieces)):
            piece = pieces[idx]
            if total + piece.size > 8:
                continue
            merged = _disjoint(current, piece)
            key = merged.key()
            if key in seen_keys:
                continue
            seen_keys.add(key)
            unions(merged, total + piece.size, idx)

    for idx, piece in enumerate(pieces):
        unions(piece, piece.size, idx)
    assert oracle == st.reachable()


def _disjoint(m1, m2):
    if m1 is None:
        return m2
    shift = m1.size
    edges = set(m1.rel("E")) | {(a + shift, b + shift) for a, b in m2.rel("E")}
    return Structure(GRAPHS, m1.size + m2.size, (frozenset(edges),))


def test_paths_closure_contains_all_paths():
    interner = default_interner()
    p2 = path_graph(2, 2, (0, 1))
    st = close({2: [(compute_theory(p2, 0, interner), 2, p2)]}, [CHAIN],
               depth=0)
    assert st.status == "converged"
    reachable = st.reachable()
    for length in range(2, 9):
        t = compute_theory(path_graph(length, 2, (0, length - 1)), 0, interner)
        assert t in reachable


def test_fixpoint_stability_one_extra_sweep():
    interner = default_interner()
    p2 = path_graph(2, 2, (0, 1))
    base = {2: [(compute_theory(p2, 0, interner), 2, p2)]}
    st = close(base, [CHAIN], depth=0)
    again = close(base, [CHAIN], depth=0, max_iter=st.iterations + 1)
    assert again.status == "converged"
    assert again.per_k == st.per_k
    assert again.facts == st.facts


def test_not_converged_status():
    interner = default_interner()
    p2 = path_graph(2, 2, (0, 1))
    st = close({2: [(compute_theory(p2, 0, interner), 2, p2)]}, [CHAIN],
               depth=0, max_iter=1)
    assert st.status == "not-converged"


def test_monotone_growth():
    interner = default_interner()
    p2 = path_graph(2, 2, (0, 1))
    base = {2: [(compute_theory(p2, 0, interner), 2, p2)]}
    sizes = []
    for iters in range(1, 6):
        st = close(base, [CHAIN], depth=0, max_iter=iters)
        sizes.append(len(st.reachable()))
    assert sizes == sorted(sizes)


def test_witness_replay_validates():
    interner = default_interner()
    st = close(_k2_base(interner), [disjoint_union_scheme()], depth=0)
    results = validate_replay(st)
    assert all(ok for ok, _ in results.values())
    derivs = minimal_derivations(st)
    for t, (size, fact) in derivs.items():
        assert replay_witness(st, t).size == size


def test_minimal_derivation_sizes():
    interner = default_interner()
    st = close(_k2_base(interner), [disjoint_union_scheme()], depth=0)
    derivs = minimal_derivations(st)
    assert sorted(size for size, _ in derivs.values()) == [2, 4, 6]


def test_facts_file_roundtrip():
    interner = default_interner()
    st = close(_k2_base(interner), [disjoint_union_scheme()], depth=0)
    text = write_facts(st)
    base, facts = parse_facts(text)
    assert len(facts) == len(st.facts)
    assert set(base) == {t.digest for t in st.base_sizes}
    for t1, t2, sid, t, j in facts:
        assert j == 0


FACTS_TEXT = ("base t=aa size=2\nbase t=bb size=3\n"
              "fact t1=aa t2=bb scheme=s t=aa j=1\n")


@pytest.mark.parametrize("text", [
    "base t=aa size\n",
    "fact t1=aa t2=bb scheme=s t=aa j\n",
    "base t=aa\n",
    "fact t1=aa t2=bb scheme=s t=aa j=x\n",
    "base t=a size=2 size=3\n",                           # repeated field
    "fact t1=aa t2=bb scheme=s t=aa t=bb j=1\n",
    "base t=a size=2 bogus=1\n",                          # field of no line kind
    "base t=a size=2 j=0\n",                              # a fact field on a base line
    "fact t1=aa t2=bb scheme=s t=aa j=1 size=2\n",        # a base field on a fact line
])
def test_parse_facts_refusals(text):
    with pytest.raises(ParseError):
        parse_facts(text)


@pytest.mark.parametrize("text, line", [
    ("base t=aa size=2 k=0\nbase t=a size=2 k=zz\n", 2),
    ("base t=a size=-2\n", 1),
    ("base t=a size=2 k=-1\n", 1),
    ("base t=aa size=2\nfact t1=aa t2=aa scheme=s t=aa j=-1\n", 2),
    ('base t="a size=2\n', 1),
], ids=["k-not-int", "size-negative", "k-negative", "j-negative", "unterminated-quote"])
def test_parse_facts_refusals_name_the_line(text, line):
    with pytest.raises(ParseError) as info:
        parse_facts(text)
    assert info.value.line == line


def test_parse_facts_k_is_optional():
    assert parse_facts("base t=aa size=2 k=1  # k given\nbase t=aa size=3\n") == \
        ({"aa": {2, 3}}, [])


@given(mutated(FACTS_TEXT))
@settings(max_examples=300, deadline=None)
def test_parse_facts_mutation_fuzz(text):
    """Any input either parses or raises HintikkaError, never
    ValueError/IndexError/KeyError."""
    try:
        parse_facts(text)
    except HintikkaError:
        pass


def test_depth1_disjoint_union_converges():
    interner = default_interner()
    st = close(_k2_base(interner, depth=1), [disjoint_union_scheme()],
               depth=1)
    assert st.status == "converged"
    results = validate_replay(st)
    assert all(ok for ok, _ in results.values())


def test_close_refuses_base_theories_of_another_interner():
    """Ids mean nothing across interners, so a base that mixes two is
    refused, naming the theory by digest."""
    own, other = Interner(), Interner()
    k2 = k2_graph()
    vertex = Structure(GRAPHS, 1)
    t, elsewhere = compute_theory(k2, 0, own), compute_theory(vertex, 0, other)
    for first, second in (((t, 2, k2), (elsewhere, 1, vertex)),
                          ((elsewhere, 1, vertex), (t, 2, k2))):
        with pytest.raises(HintikkaError, match=f"base theory {second[0].digest} filed "
                           "under k=0 comes from another interner"):
            close({0: [first, second]}, [disjoint_union_scheme()], 0)


def test_base_theory_with_coinciding_constants_takes_part_in_no_fact():
    """A base theory whose two constants name one element stays reachable
    but is never glued: the scheme size law needs distinct constants."""
    interner = default_interner()
    p2 = path_graph(2, 2, (0, 1))
    loop = Structure(Vocabulary((("E", 2),), 2), 1, (frozenset({(0, 0)}),), (0, 0))
    same = compute_theory(loop, 0, interner)
    st = close({2: [(compute_theory(p2, 0, interner), 2, p2), (same, 1, loop)]}, [CHAIN],
               depth=0)
    assert st.status == "converged" and st.facts
    assert same in st.reachable()
    assert all(same not in (f.t1, f.t2, f.t) for f in st.facts)
    plain = close({2: [(compute_theory(p2, 0, interner), 2, p2)]}, [CHAIN], depth=0)
    assert st.facts == plain.facts
