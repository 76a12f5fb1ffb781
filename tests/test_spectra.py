"""Closure output to spectra: induced systems, certificates, gap audits."""

import pytest
from fractions import Fraction

from conftest import k2_graph
from hintikka.closure import close, parse_facts, write_facts
from hintikka.composition import disjoint_union_scheme, plain_union_scheme
from hintikka.errors import HintikkaError
from hintikka.numbersets import verify_certificate
from hintikka.oracle import parse_formula
from hintikka.spectra import (
    audit_gaps,
    class_spectrum,
    induce_system,
    induce_system_from_facts,
    sentence_spectrum,
    spectrum,
    spectrum_from_facts,
)
from hintikka.structures import Structure, Vocabulary, path_graph
from hintikka.theory import compute_theory, default_interner

GRAPHS = Vocabulary((("E", 2),))
CHAIN = plain_union_scheme(2, 2, 2, ident=((1, 0),),
                           result_refs=(("1", 0), ("2", 1)), name="chain")


def _matching_state(interner, depth=0):
    m = k2_graph()
    return close({0: [(compute_theory(m, depth, interner), 2, m)]},
                 [disjoint_union_scheme()], depth=depth)


def _paths_state(interner):
    p2 = path_graph(2, 2, (0, 1))
    return close({2: [(compute_theory(p2, 0, interner), 2, p2)]},
                 [CHAIN], depth=0)


def test_induce_system_no_schemes():
    interner = default_interner()
    m = k2_graph()
    st = close({0: [(compute_theory(m, 0, interner), 2, m)]}, [], depth=0)
    sysq, digests = induce_system(st)
    assert sysq.rules == () and len(digests) == 1
    assert sysq.base == (frozenset({2}),)


def test_induce_system_rule_deficits():
    interner = default_interner()
    du = _matching_state(interner)
    sys_du, _ = induce_system(du)
    assert all(j == 0 for _, _, _, j in sys_du.rules)
    paths = _paths_state(interner)
    sys_p, _ = induce_system(paths)
    assert all(j == 1 for _, _, _, j in sys_p.rules)


def test_matching_class_spectra():
    interner = default_interner()
    st = _matching_state(interner)
    assert class_spectrum(st, 8) == (2, 4, 6, 8)
    sysq, digests = induce_system(st)
    per_theory = {}
    for digest in digests:
        rep = spectrum(st, digest, 8)
        per_theory[digest] = rep.sizes
        assert rep.certificate is not None
        assert verify_certificate(sysq, rep.certificate)
    assert sorted(per_theory.values()) == [(2,), (4,), (6, 8)]


def test_matching_even_period():
    interner = default_interner()
    st = _matching_state(interner)
    _, digests = induce_system(st)
    stable = [spectrum(st, d, 8) for d in digests]
    rich = [r for r in stable if len(r.sizes) > 1]
    assert len(rich) == 1
    cert = rich[0].certificate
    assert cert.period == 2 and cert.status == "certified-progression"


def test_path_class_spectrum_cofinite():
    interner = default_interner()
    st = _paths_state(interner)
    assert class_spectrum(st, 8) == (2, 3, 4, 5, 6, 7, 8)
    # anchored paths stay theory-distinct through length 8; the stable
    # theory collects every longer length, cofinitely with period 1
    sysq, digests = induce_system(st)
    cofinal = None
    for digest in digests:
        rep = spectrum(st, digest, 12)
        if rep.certificate.status != "finite" and len(rep.sizes) > 2:
            cofinal = rep
        else:
            assert len(rep.sizes) == 1 and rep.certificate.status == "finite"
    assert cofinal is not None
    assert cofinal.sizes == (9, 10, 11, 12)
    assert cofinal.certificate.period == 1


def test_finite_spectrum_status():
    # base-only theory realized at sizes {1,2} and no rules
    interner = default_interner()
    vertex = Structure(GRAPHS, 1)
    t = compute_theory(vertex, 0, interner)
    st = close({0: [(t, 1, vertex), (t, 2, vertex)]}, [], depth=0)
    rep = spectrum(st, t.digest, 8)
    assert rep.sizes == (1, 2)
    assert rep.certificate.status == "finite"
    assert rep.certificate.threshold == 3


def test_spectrum_unknown_digest():
    interner = default_interner()
    st = _matching_state(interner)
    with pytest.raises(HintikkaError):
        spectrum(st, "f" * 64, 8)


def test_spectrum_report_matches_reach_and_witnesses():
    interner = default_interner()
    st = _matching_state(interner)
    sysq, digests = induce_system(st)
    for digest in digests:
        rep = spectrum(st, digest, 8, with_witnesses=True)
        for size, tree in rep.witness_trees.items():
            assert tree.value == size


def test_spectrum_from_facts_file():
    interner = default_interner()
    st = _matching_state(interner)
    base, facts = parse_facts(write_facts(st))
    _, digests = induce_system(st)
    for digest in digests:
        via_state = spectrum(st, digest, 8)
        via_file = spectrum_from_facts(base, facts, digest, 8)
        assert via_state.sizes == via_file.sizes


def test_audit_gaps_examples():
    assert audit_gaps([3, 5, 9, 10], 2, 0).violations == ()
    assert audit_gaps([4, 8], 2, 0).violations == ((4, 8),)
    assert audit_gaps(range(10, 101), 1.05, 20).violations == ()


def test_audit_gaps_boundary_is_strict():
    # n2 < ratio*n1 must fail exactly at equality
    assert audit_gaps([4, 8], Fraction(2), 0).violations == ((4, 8),)
    assert audit_gaps([4, 7], 2, 0).violations == ()


def test_audit_gaps_threshold_invariance():
    base_result = audit_gaps([30, 70], 2, 20)
    with_small = audit_gaps([3, 5, 11, 30, 70], 2, 20)
    assert base_result.violations == with_small.violations == ((30, 70),)


def test_audit_gaps_least_passing_threshold():
    res = audit_gaps([4, 8, 9, 20], 2, 0)
    assert res.violations == ((4, 8), (9, 20))
    assert res.least_passing_threshold == 9
    assert audit_gaps([4, 8, 9, 20], 2, 9).violations == ()


def test_sentence_spectrum_fragment_enforced():
    interner = default_interner()
    st = _matching_state(interner, depth=1)
    # alternating FO quantifiers: outside the decidable fragment
    bad = parse_formula("(forall x (exists y (E x y)))")
    with pytest.raises(HintikkaError):
        sentence_spectrum(st, bad, 8)
    # depth-2 sentence against a depth-1 closure: refused
    deep = parse_formula("(existsS X (existsS Y (exists x (in X x))))")
    with pytest.raises(HintikkaError):
        sentence_spectrum(st, deep, 8)


def test_sentence_spectrum_matching():
    interner = default_interner()
    st = _matching_state(interner, depth=1)
    pm = parse_formula(
        "(and (not (exists x (E x x)))"
        " (not (exists x (exists y (and (E x y) (not (E y x))))))"
        " (not (existsS X (and (exists x (in X x))"
        "   (not (exists x (exists y (and (in X x) (E x y))))))))"
        " (not (exists x (exists y (exists z (and (E x y) (E x z) (not (= y z))))))))")
    assert sentence_spectrum(st, pm, 8) == (2, 4, 6, 8)
