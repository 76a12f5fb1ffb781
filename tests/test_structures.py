"""Structure parsing, generation, and enumeration.

Claims:
    - parse/serialize round-trip exactly for generated structures
    - incidence graphs have n + C(n,2) nodes and 2*C(n,2) undirected edges
    - permutations preserve size and per-predicate tuple counts
    - enumeration yields the closed-form count, each structure once
    - the isomorph-free enumeration yields exactly the first member of each
      isomorphism class, in enumeration order
    - budgets refuse instead of truncating
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutated, rand_structure
from hintikka.config import Config
from hintikka.errors import BudgetError, HintikkaError, ParseError
from hintikka.structures import (
    Structure,
    Vocabulary,
    apply_permutation,
    enumerate_representatives,
    enumerate_structures,
    enumeration_count,
    incidence_graph,
    parse_structure,
    path_graph,
    serialize_structure,
)


def test_parse_single_vertex():
    m = parse_structure("vocab E/2\nsize 1\n")
    assert m.size == 1 and m.rel("E") == frozenset()


def test_parse_k2():
    m = parse_structure("vocab E/2\nsize 2\nrel E: (0,1) (1,0)\n")
    assert m.rel("E") == frozenset({(0, 1), (1, 0)})


def test_parse_out_of_range():
    with pytest.raises(ParseError):
        parse_structure("vocab E/2\nsize 3\nrel E: (0,5)\n")


def test_parse_requires_vocab_and_size():
    with pytest.raises(ParseError):
        parse_structure("size 3\n")
    with pytest.raises(ParseError):
        parse_structure("vocab E/2\n")


@pytest.mark.parametrize("text", [
    "vocab E/2\nsize 2\nrel : (0,1)\n",
    "vocab E/2\nsets 1\nsize 2\nset s 0\n",
    "vocab E/2\nsets 1\nsize 2\nset 0: x\n",
    "vocab E/2\nsets 1\nsize 2\nset 0 1\n",
])
def test_parse_malformed_rel_and_set_lines(text):
    with pytest.raises(ParseError):
        parse_structure(text)


P2_TEXT = serialize_structure(path_graph(2))


@pytest.mark.parametrize("text, line", [
    (P2_TEXT + "size 3\n", 6),
    ("vocab S/1\n" + P2_TEXT, 2),
    ("vocab E/2\nconsts 1\nconsts 1\nsize 2\nconst 0 = 0\n", 3),
    ("vocab E/2\nsets 0\nsize 2\nsets 0\n", 4),
    ("vocab E/2\nconsts 1\nsize 2\nconst 0 = 1\nconst 0 = 0\n", 5),
    ("vocab E/2\nsize 2 7\n", 2),
    ("vocab E/2\nsize -2\n", 2),
    ('vocab E/2\nsize 2\nrel E: "(0,1)\n', 3),
    ("size 2\nvocab E/x\n", 2),
    ("size 2\nvocab E/2 E/2\n", 2),
], ids=["size-twice", "vocab-twice", "consts-twice", "sets-twice", "const-twice",
        "size-trailing-token", "size-negative", "unterminated-quote", "vocab-arity",
        "vocab-duplicate-name"])
def test_parse_structure_refusals(text, line):
    with pytest.raises(ParseError) as info:
        parse_structure(text)
    assert info.value.line == line


def test_parse_structure_comments():
    text = "# a path\nvocab E/2  # graphs\nsize 2 # two elements\n\nrel E: (0,1) (1,0)\n"
    assert parse_structure(text) == path_graph(2)


STRUCTURE_TEXT = serialize_structure(Structure(
    Vocabulary((("E", 2), ("S", 1)), 1, 1), 3,
    (frozenset({(0, 1), (1, 2)}), frozenset({(2,)})), (1,), (frozenset({0, 2}),)))


@given(mutated(STRUCTURE_TEXT))
@settings(max_examples=300, deadline=None)
def test_parse_structure_mutation_fuzz(text):
    """Any input either parses or raises HintikkaError, never
    ValueError/IndexError/KeyError."""
    try:
        parse_structure(text)
    except HintikkaError:
        pass


def test_roundtrip_with_consts_and_sets():
    rng = random.Random(11)
    v = Vocabulary((("E", 2), ("S", 1)), 2, 2)
    for _ in range(25):
        m = rand_structure(v, rng.randint(2, 5), rng)
        assert parse_structure(serialize_structure(m)) == m


@given(st.integers(min_value=0, max_value=3), st.data())
@settings(max_examples=30, deadline=None)
def test_roundtrip_property(size, data):
    v = Vocabulary((("E", 2),), 0, 1)
    tuples = list(itertools.product(range(size), repeat=2))
    rel = frozenset(t for t in tuples if data.draw(st.booleans()))
    members = frozenset(e for e in range(size) if data.draw(st.booleans()))
    m = Structure(v, size, (rel,), (), (members,))
    assert parse_structure(serialize_structure(m)) == m


def test_incidence_counts():
    g2 = incidence_graph(2)
    assert g2.size == 3 and len(g2.rel("E")) == 4
    g3 = incidence_graph(3)
    assert g3.size == 6 and len(g3.rel("E")) // 2 == 6
    g5 = incidence_graph(5)
    assert g5.size == 15 and len(g5.rel("E")) // 2 == 20


def test_incidence_rejects_small():
    with pytest.raises(HintikkaError):
        incidence_graph(1)


def test_permutation_identity_and_swap():
    k2 = parse_structure("vocab E/2\nsize 2\nrel E: (0,1) (1,0)\n")
    assert apply_permutation(k2, (0, 1)) == k2
    swapped = apply_permutation(k2, (1, 0))
    assert swapped.rel("E") == k2.rel("E")


def test_permutation_preserves_counts():
    p3 = path_graph(3)
    rotated = apply_permutation(p3, (2, 0, 1))
    assert rotated.size == p3.size
    assert len(rotated.rel("E")) == len(p3.rel("E"))
    degrees = lambda m: sorted(
        sum(1 for (a, b) in m.rel("E") if a == x) for x in range(m.size))
    assert degrees(rotated) == degrees(p3)


def test_permutation_rejects_non_bijection():
    with pytest.raises(HintikkaError):
        apply_permutation(path_graph(3), (0, 0, 1))


def test_enumerate_counts():
    graphs = Vocabulary((("E", 2),))
    assert sum(1 for _ in enumerate_structures(graphs, 1)) == 2
    assert sum(1 for _ in enumerate_structures(graphs, 2)) == 16
    with_const = Vocabulary((("E", 2),), 1)
    one = list(enumerate_structures(with_const, 1))
    assert len(one) == 2 and all(m.consts == (0,) for m in one)


def test_enumerate_matches_formula_and_unique():
    v = Vocabulary((("S", 1),), 1, 1)
    out = list(enumerate_structures(v, 2))
    assert len(out) == enumeration_count(v, 2) == 2 ** 2 * 2 * 2 ** 2
    assert len(set(m.key() for m in out)) == len(out)


def test_enumerate_budget_refusal():
    graphs = Vocabulary((("E", 2),))
    with pytest.raises(BudgetError) as err:
        list(enumerate_structures(graphs, 5))
    assert err.value.budget == "enum_bits"


def test_empty_universe_rules():
    v = Vocabulary((("E", 2),))
    assert Structure(v, 0).size == 0
    with pytest.raises(HintikkaError):
        Structure(Vocabulary((("E", 2),), 1), 0, consts=(0,))
    assert list(enumerate_structures(Vocabulary((("E", 2),), 1), 0)) == []


def _class_firsts(vocab, size):
    """First member of each isomorphism class, by brute force over the
    labelled enumeration and every permutation."""
    perms = list(itertools.permutations(range(size)))
    seen, out = set(), []
    for m in enumerate_structures(vocab, size):
        label = min(apply_permutation(m, pi).key() for pi in perms)
        if label not in seen:
            seen.add(label)
            out.append(m)
    return out


@pytest.mark.parametrize("vocab,top", [
    (Vocabulary((("E", 2),)), 3),
    (Vocabulary((("E", 2),), 2), 3),
    (Vocabulary((("S", 1), ("E", 2)), 1, 1), 2),
    (Vocabulary((("E", 2), ("S", 1))), 3),
    (Vocabulary((("S", 1),), 2, 1), 3),
    (Vocabulary((("S", 1),), 1, 1), 4),
    (Vocabulary((("R", 3),)), 2),
], ids=lambda x: x.sig() + f"-c{x.num_consts}-s{x.num_sets}" if isinstance(x, Vocabulary) else str(x))
def test_representatives_are_class_firsts(vocab, top):
    for size in range(top + 1):
        assert list(enumerate_representatives(vocab, size)) == _class_firsts(vocab, size)


def test_representative_counts():
    graphs = Vocabulary((("E", 2),))
    # directed graphs with loops up to isomorphism (OEIS A000595)
    assert [sum(1 for _ in enumerate_representatives(graphs, n)) for n in range(5)] == \
        [1, 2, 10, 104, 3044]
    # large unary universes: one class per member count, per equality pattern
    assert sum(1 for _ in enumerate_representatives(Vocabulary((("S", 1),)), 20)) == 21
    assert sum(1 for _ in enumerate_representatives(Vocabulary((), 2), 50)) == 2


def test_representatives_budget_refusal():
    for vocab, size in ((Vocabulary((("E", 2),)), 5), (Vocabulary((), 0, 2), 13)):
        with pytest.raises(BudgetError) as labelled:
            list(enumerate_structures(vocab, size))
        with pytest.raises(BudgetError) as orderly:
            list(enumerate_representatives(vocab, size))
        assert str(orderly.value) == str(labelled.value)
        assert orderly.value.budget == labelled.value.budget == "enum_bits"
    assert list(enumerate_representatives(Vocabulary((("E", 2),), 1), 0)) == []
