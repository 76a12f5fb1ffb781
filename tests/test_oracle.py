"""MSO evaluation, formula files, brute-force spectra, random sentences.

The hand-truth table below is the committed oracle for eval: each entry was
derived by direct enumeration of assignments on the named structure.
"""

import re

import pytest

from conftest import k2_graph, matching_graph, triangle
from hintikka.errors import BudgetError, HintikkaError, ParseError
from hintikka.oracle import (
    eval_formula,
    format_formula,
    fragment_depth,
    parse_formula,
    quantifier_depth,
    random_sentence,
    set_depth,
    spectrum_bruteforce,
)
from hintikka.structures import Structure, Vocabulary, path_graph

GRAPHS = Vocabulary((("E", 2),))
TWO_ISO = Structure(GRAPHS, 2)
LOOP = Structure(GRAPHS, 1, (frozenset({(0, 0)}),))
PM = parse_formula(
    "(and (not (exists x (E x x)))"
    " (not (exists x (exists y (and (E x y) (not (E y x))))))"
    " (forall x (exists y (E x y)))"
    " (not (exists x (exists y (exists z (and (E x y) (E x z) (not (= y z))))))))")

HAND_TRUTHS = [
    (Structure(GRAPHS, 0), "(exists x (= x x))", False),
    (Structure(GRAPHS, 1), "(exists x (= x x))", True),
    (LOOP, "(exists x (E x x))", True),
    (k2_graph(), "(exists x (exists y (E x y)))", True),
    (TWO_ISO, "(exists x (exists y (E x y)))", False),
    (k2_graph(), "(forall x (exists y (E x y)))", True),
    (path_graph(3), "(forall x (exists y (E x y)))", True),
    (triangle(), "(existsS X (forall x (forall y (imp (E x y) (iff (in X x) (not (in X y)))))))", False),
    (path_graph(3), "(existsS X (forall x (forall y (imp (E x y) (iff (in X x) (not (in X y)))))))", True),
    (TWO_ISO, "(forallS X (imp (exists x (in X x)) (exists x (not (in X x)))))", False),
    (path_graph(4), "(exists x (exists y (exists z (and (E x y) (E y z) (not (= x z))))))", True),
    (k2_graph(), "(exists x (exists y (exists z (and (E x y) (E y z) (not (= x z))))))", False),
]


@pytest.mark.parametrize("case", range(len(HAND_TRUTHS)))
def test_hand_truths(case):
    m, text, expected = HAND_TRUTHS[case]
    assert eval_formula(m, parse_formula(text)) is expected


def test_roundtrip():
    for _, text, _ in HAND_TRUTHS:
        phi = parse_formula(text)
        assert parse_formula(format_formula(phi)) == phi


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_formula("(and (E x y)")
    with pytest.raises(ParseError):
        parse_formula("")


def test_unbound_variable_error():
    with pytest.raises(HintikkaError):
        eval_formula(k2_graph(), parse_formula("(E x y)"))


@pytest.mark.parametrize("text, names", [
    ("(exists x (E x))", "atom (E x): E takes 2 terms, not 1"),
    ("(or (exists x (= x x)) (exists x (F x x)))",
     "atom (F x x): no predicate F in the vocabulary E/2"),
    ("(or (exists x (= x x)) (exists x (in P7 x)))", "atom (in P7 x): no set P7"),
    ("(or (exists x (= x x)) (exists x (E x c3)))", "atom (E x c3): no constant c3"),
    ("(or (exists x (= x x)) (E x x))", "atom (E x x): unbound variable x"),
    ("(or (exists x (= x x)) (exists x (in X x)))", "atom (in X x): unbound set variable X"),
])
def test_formula_that_does_not_fit_the_vocabulary_is_refused(text, names):
    """Refused before evaluation, also where short-circuiting would never
    reach the atom: the first part of each ``or`` holds on a nonempty
    structure."""
    phi = parse_formula(text)
    with pytest.raises(HintikkaError, match=re.escape(names)):
        eval_formula(path_graph(3), phi)
    with pytest.raises(HintikkaError, match=re.escape(names)):
        spectrum_bruteforce(phi, GRAPHS, 3)


def test_constant_terms():
    v = Vocabulary((("E", 2),), 1)
    m = Structure(v, 2, (frozenset({(0, 1), (1, 0)}),), (1,))
    assert eval_formula(m, parse_formula("(exists x (E x c0))"))
    assert not eval_formula(m, parse_formula("(E c0 c0)"))


def test_spectrum_trivial_and_matching():
    assert spectrum_bruteforce(parse_formula("(exists x (= x x))"), GRAPHS, 4) == \
        frozenset({1, 2, 3, 4})
    assert spectrum_bruteforce(PM, GRAPHS, 4) == frozenset({2, 4})


def test_spectrum_monotone():
    small = spectrum_bruteforce(PM, GRAPHS, 3)
    assert small <= spectrum_bruteforce(PM, GRAPHS, 4)


def test_eval_budget():
    deep = parse_formula(
        "(existsS X (existsS Y (existsS Z (forallS W (exists x (in X x))))))")
    with pytest.raises(BudgetError):
        eval_formula(path_graph(8), deep)


def test_random_sentence_determinism_and_depths():
    v = Vocabulary((("E", 2),), 1, 1)
    assert random_sentence(v, 2, 77) == random_sentence(v, 2, 77)
    for seed in range(150):
        phi = random_sentence(v, 1, seed)
        assert set_depth(phi) <= 1
        assert fragment_depth(phi, v.arity + 1) is not None
    for seed in range(60):
        phi = random_sentence(v, 0, seed)
        assert set_depth(phi) == 0


def test_fragment_depth_classifier():
    r = 3
    assert fragment_depth(parse_formula("(exists x (exists y (E x y)))"), r) == 0
    assert fragment_depth(parse_formula("(forall x (not (E x x)))"), r) == 0
    # alternating first-order quantifiers fall outside the fragment
    assert fragment_depth(parse_formula("(forall x (exists y (E x y)))"), r) is None
    assert fragment_depth(parse_formula(
        "(existsS X (exists x (in X x)))"), r) == 1
    # four variables exceed arity+1
    assert fragment_depth(parse_formula(
        "(exists x (exists y (exists z (exists w (E x y)))))"), r) is None


def test_matching_oracle_vs_pairing_family():
    """Cross-check at exhaustive scale that models of the matching sentence
    are exactly the fixed-point-free pairing graphs."""
    import itertools
    for size in (1, 2, 3, 4):
        brute = set()
        from hintikka.structures import enumerate_structures
        for m in enumerate_structures(GRAPHS, size):
            if eval_formula(m, PM):
                brute.add(m.key())
        pairings = set()
        for m in _pairing_graphs(size):
            assert eval_formula(m, PM)
            pairings.add(m.key())
        assert brute == pairings


def _pairing_graphs(size):
    import itertools

    def pair_up(rest):
        if not rest:
            yield ()
            return
        first = rest[0]
        for idx in range(1, len(rest)):
            other = rest[idx]
            remainder = rest[1:idx] + rest[idx + 1:]
            for more in pair_up(remainder):
                yield ((first, other),) + more

    for pairs in pair_up(tuple(range(size))):
        edges = set()
        for a, b in pairs:
            edges |= {(a, b), (b, a)}
        yield Structure(GRAPHS, size, (frozenset(edges),))
