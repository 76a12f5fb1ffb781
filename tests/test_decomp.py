"""Weak decomposability and the small-equivalent-model search.

The separator-plus-subset-sum algorithm must agree exactly with naive
enumeration of all splits; returned splits pass the literal clause-by-clause
validator.
"""

import random

import pytest

from conftest import rand_structure, triangle
from hintikka.config import Config
from hintikka.decomp import (
    decompose,
    decomposability_profile,
    find_small_equivalent,
    naive_decomposable,
    validate_split,
)
from hintikka.errors import BudgetError
from hintikka.structures import (
    Structure,
    Vocabulary,
    enumerate_structures,
    incidence_graph,
    path_graph,
)
from hintikka.theory import compute_theory

GRAPHS = Vocabulary((("E", 2),))


def test_path_p3_splits_at_cut_vertex():
    split = decompose(path_graph(3), 1, 2)
    assert split is not None
    assert validate_split(path_graph(3), split, 1, 2) is None
    assert split.a1 & split.a2 == frozenset({1})


def test_triangle_has_no_split():
    assert decompose(triangle(), 1, 2) is None
    assert not naive_decomposable(triangle(), 1, 2)


def test_incidence_graphs_not_decomposable():
    for n in (5, 6, 7):
        ig = incidence_graph(n)
        cfg = Config(decomp_size_max=max(24, ig.size))
        assert decompose(ig, 2, 6, cfg) is None


def test_example_parameter_law_k1():
    # k=1: m = max(k + k(k-1)/2, 2k+2) = 4; incidence graphs beyond m stay whole
    for n in (5, 6):
        ig = incidence_graph(n)
        assert decompose(ig, 1, 4) is None


def test_paths_profile_all_decomposable():
    rows = decomposability_profile([path_graph(n) for n in range(3, 9)], 1, 2)
    assert all(row.decomposable for row in rows)
    for row in rows:
        assert row.split is not None


def test_single_vertices_not_decomposable():
    # without overlap the lone element cannot serve both sides; with overlap
    # allowed, size 2 is out of reach
    vertex = Structure(GRAPHS, 1)
    assert decomposability_profile([vertex], 0, 1)[0].decomposable is False
    assert decomposability_profile([vertex], 1, 2)[0].decomposable is False
    assert naive_decomposable(vertex, 0, 1) is False


def test_agreement_with_naive_exhaustive_small():
    for size in (0, 1, 2, 3):
        for m in enumerate_structures(GRAPHS, size):
            for k, mm in ((1, 1), (1, 2), (2, 2)):
                assert (decompose(m, k, mm) is not None) == \
                    naive_decomposable(m, k, mm), (m.key(), k, mm)


def test_agreement_with_naive_sampled():
    rng = random.Random(41)
    for _ in range(40):
        size = rng.randint(4, 7)
        m = rand_structure(GRAPHS, size, rng)
        for k, mm in ((1, 2), (2, 3)):
            fast = decompose(m, k, mm)
            slow = naive_decomposable(m, k, mm)
            assert (fast is not None) == slow
            if fast is not None:
                assert validate_split(m, fast, k, mm) is None


def test_decompose_budget():
    big = incidence_graph(7)      # 28 elements > default 24
    with pytest.raises(BudgetError):
        decompose(big, 2, 6)


def test_validator_rejects_bad_split():
    from hintikka.decomp import Split
    p3 = path_graph(3)
    bad = Split(frozenset({0}), frozenset({2}), (frozenset(),))
    assert validate_split(p3, bad, 1, 1) is not None


def test_small_equivalent_self_witness(interner):
    m = path_graph(3, 1, (0,))
    found = find_small_equivalent(m, 0, 3, interner)
    assert found is not None and found.size <= 3
    assert compute_theory(found, 0, interner).digest == \
        compute_theory(m, 0, interner).digest


def test_small_equivalent_none_for_triangle(interner):
    assert find_small_equivalent(triangle(1, (0,)), 0, 2, interner) is None


def test_small_equivalent_none_for_anchored_path(interner):
    # a 6-path with an endpoint constant realizes far-from-constant patterns
    # that no 3-element structure can
    assert find_small_equivalent(path_graph(6, 1, (0,)), 0, 3, interner) is None


@pytest.mark.parametrize("m,depth,size_max", [
    (path_graph(3, 1, (0,)), 0, 3),
    (path_graph(2), 1, 2),
    (path_graph(5), 0, 3),
    (triangle(1, (0,)), 0, 2),
])
def test_small_equivalent_matches_labelled_loop(m, depth, size_max, interner):
    target = compute_theory(m, depth, interner).intern_id
    expected = next((cand for size in range(m.vocab.num_consts + 1, size_max + 1)
                     for cand in enumerate_structures(m.vocab, size)
                     if compute_theory(cand, depth, interner).intern_id == target), None)
    assert find_small_equivalent(m, depth, size_max, interner) == expected


def test_small_equivalent_respects_theory(interner):
    m = path_graph(2)
    found = find_small_equivalent(m, 1, 2, interner)
    assert found is not None
    assert compute_theory(found, 1, interner).digest == \
        compute_theory(m, 1, interner).digest
