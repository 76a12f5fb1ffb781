"""The quadruple-system engine: reach, trees, pumping, certificates.

Expected reach sets below were derived by brute-force iteration of the
rules (frozen); periodicity thresholds follow the member-normalized rule
the certificates use.
"""

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mutated
from hintikka import numbersets
from hintikka.config import Config
from hintikka.errors import BudgetError, HintikkaError, ParseError
from hintikka.numbersets import (
    Node,
    PeriodicityCertificate,
    PumpPair,
    QuadrupleSystem,
    chain_rank,
    dump_tree,
    find_period,
    find_pump,
    iter_nodes,
    node_at,
    parse_system,
    peak_nodes,
    pump,
    reach,
    serialize_system,
    validate_tree,
    verify_certificate,
    witness_tree,
)

MULT3 = QuadrupleSystem(1, ((0, 0, 0, 0),), (frozenset({3}),))
COFIN2 = QuadrupleSystem(1, ((0, 0, 0, 1),), (frozenset({2}),))
SEMIGROUP47 = QuadrupleSystem(1, ((0, 0, 0, 0),), (frozenset({4, 7}),))


def test_reach_multiples_of_three():
    assert reach(MULT3, 20).values(0) == (3, 6, 9, 12, 15, 18)


def test_reach_cofinite_from_two():
    assert reach(COFIN2, 10).values(0) == (2, 3, 4, 5, 6, 7, 8, 9, 10)


def test_reach_empty_base():
    sysq = QuadrupleSystem(1, ((0, 0, 0, 0),), (frozenset(),))
    assert reach(sysq, 10).values(0) == ()


def test_reach_numerical_semigroup():
    vals = set(reach(SEMIGROUP47, 30).values(0))
    assert 17 not in vals and 18 in vals          # Frobenius number of <4,7>
    assert {4, 7, 8, 11, 12, 14} <= vals


def test_reach_deterministic_and_slack_stable():
    a = reach(MULT3, 50)
    b = reach(MULT3, 50)
    assert a == b and a.slack_stable


@given(st.integers(min_value=5, max_value=40), st.integers(min_value=41, max_value=80))
@settings(max_examples=15, deadline=None)
def test_reach_monotone_in_bound(b1, b2):
    small = set(reach(SEMIGROUP47, b1).values(0))
    large = set(reach(SEMIGROUP47, b2).values(0))
    assert small <= large


def test_reach_monotone_in_base():
    bigger = QuadrupleSystem(1, ((0, 0, 0, 0),), (frozenset({3, 5}),))
    assert set(reach(MULT3, 40).values(0)) <= set(reach(bigger, 40).values(0))


def test_witness_for_every_reached_value():
    for sysq in (MULT3, COFIN2, SEMIGROUP47):
        rr = reach(sysq, 50)
        for value in rr.values(0):
            tree = witness_tree(sysq, 0, value, 50)
            assert validate_tree(sysq, tree) is None
            assert tree.value == value and tree.label == 0


def test_find_period_expected_certificates():
    for sysq, want in ((MULT3, (3, 3)), (COFIN2, (2, 1)), (SEMIGROUP47, (18, 1))):
        cert = find_period(sysq, 0, 200, 16)
        assert (cert.threshold, cert.period) == want
        assert cert.status == "certified-progression"
        assert cert.pump is not None
        assert cert.pump.pair.delta % cert.period == 0
        assert verify_certificate(sysq, cert)


def test_find_period_inconclusive():
    # period 3 cannot be found with a window of 2
    assert find_period(MULT3, 0, 200, 2) is None


def test_find_period_requires_scan_margin():
    with pytest.raises(HintikkaError):
        find_period(MULT3, 0, 10, 16)


CHAIN_TREE = Node(0, 9, 0, Node(0, 3), Node(0, 6, 0, Node(0, 3), Node(0, 3)))


def test_validate_tree_ok_and_violations():
    assert validate_tree(MULT3, CHAIN_TREE) is None
    bad_value = Node(0, 8, 0, Node(0, 3), Node(0, 6, 0, Node(0, 3), Node(0, 3)))
    v = validate_tree(MULT3, bad_value)
    assert v.clause == "f" and v.path == "e"
    bad_leaf = Node(0, 7, 0, Node(0, 4), Node(0, 3))
    v2 = validate_tree(MULT3, bad_leaf)
    assert v2.clause == "e" and v2.path == "0"


def test_find_pump_none_on_leaf():
    assert find_pump(Node(0, 3)) is None


def test_find_pump_chain_example():
    pair = find_pump(CHAIN_TREE)
    assert pair is not None
    low = node_at(CHAIN_TREE, pair.low)
    high = node_at(CHAIN_TREE, pair.high)
    assert (low.value, high.value, pair.delta) == (3, 6, 3)


def test_find_pump_alternating_labels():
    # two labels, rules flipping label: no equal-label peak pair in the
    # three-node tree; a deeper derivation has one
    sysq = QuadrupleSystem(2, ((1, 1, 0, 0), (0, 0, 1, 0)),
                           (frozenset(), frozenset({1})))
    # rules are stored sorted: index 0 = (0,0,1,0), index 1 = (1,1,0,0)
    shallow = Node(0, 2, 1, Node(1, 1), Node(1, 1))
    assert validate_tree(sysq, shallow) is None
    assert find_pump(shallow) is None

    def zero2():
        return Node(0, 2, 1, Node(1, 1), Node(1, 1))

    def one4():
        return Node(1, 4, 0, zero2(), zero2())

    deeper = Node(0, 8, 1, one4(), one4())
    assert validate_tree(sysq, deeper) is None
    pair = find_pump(deeper)
    assert pair is not None
    low = node_at(deeper, pair.low)
    high = node_at(deeper, pair.high)
    assert low.label == high.label and pair.delta > 0


def test_pump_identity_and_growth():
    pair = find_pump(CHAIN_TREE)
    assert pump(CHAIN_TREE, pair, 0) == CHAIN_TREE
    for i in range(1, 6):
        pumped = pump(CHAIN_TREE, pair, i)
        assert validate_tree(MULT3, pumped) is None
        assert pumped.value == CHAIN_TREE.value + i * pair.delta
    # membership cross-check against reach
    p5 = pump(CHAIN_TREE, pair, 5)
    assert p5.value in reach(MULT3, p5.value + 3).values(0)


def test_pump_rejects_bad_pair():
    with pytest.raises(HintikkaError):
        pump(CHAIN_TREE, PumpPair((0,), (1,), 3), 1)


def test_rank_bound_on_trees():
    rng = random.Random(31)
    for sysq in (MULT3, COFIN2, SEMIGROUP47):
        rr = reach(sysq, 40)
        for value in rr.values(0)[:8]:
            tree = witness_tree(sysq, 0, value, 40)
            ranks = chain_rank(tree)
            n0 = sysq.max_base
            for path, node in iter_nodes(tree):
                assert node.value <= 2 ** ranks[path] * n0


def test_peak_nodes_definition():
    peaks = peak_nodes(CHAIN_TREE)
    # every node dominates its strict descendants here
    assert peaks == {(), (0,), (1,), (1, 0), (1, 1)}


def test_system_file_roundtrip():
    text = serialize_system(SEMIGROUP47)
    assert parse_system(text) == SEMIGROUP47
    multi = QuadrupleSystem(2, ((0, 1, 0, 2), (1, 1, 1, 0)),
                            (frozenset({1}), frozenset({2, 5})))
    assert parse_system(serialize_system(multi)) == multi


def test_tree_dump_paths():
    dump = dump_tree(CHAIN_TREE)
    assert "node e label=0 value=9 rule=0" in dump
    assert "node 10 label=0 value=3" in dump


def naive_fixpoint(sysq, limit):
    """Per label, the values <= limit reachable by the rules: set iteration
    to a fixpoint, independent of the bitset saturation."""
    sets = [{v for v in b if v <= limit} for b in sysq.base]
    changed = True
    while changed:
        changed = False
        for l1, l2, l3, j in sysq.rules:
            made = {a + b - j for a in sets[l1] for b in sets[l2]}
            new = {n for n in made if 0 <= n <= limit} - sets[l3]
            if new:
                sets[l3] |= new
                changed = True
    return [tuple(sorted(s)) for s in sets]


@st.composite
def small_systems(draw, max_rules=6):
    m = draw(st.integers(min_value=1, max_value=3))
    label = st.integers(min_value=0, max_value=m - 1)
    rules = draw(st.lists(st.tuples(label, label, label, st.integers(0, 3)),
                          max_size=max_rules))
    base = draw(st.lists(st.frozensets(st.integers(0, 8), max_size=3),
                         min_size=m, max_size=m))
    return QuadrupleSystem(m, tuple(rules), tuple(base))


@given(small_systems(), st.integers(min_value=0, max_value=16))
@settings(max_examples=80, deadline=None)
def test_reach_matches_naive_fixpoint(sysq, bound):
    slack = sysq.default_slack()
    rr = reach(sysq, bound)
    naive = {}
    for limit in (bound + slack, bound + 2 * slack):
        naive[limit] = naive_fixpoint(sysq, limit)
        members, _ = numbersets._saturate(sysq, limit)
        assert [tuple(numbersets._bits(x)) for x in members] == naive[limit]

    def upto(sets):
        return tuple(tuple(v for v in vals if v <= bound) for vals in sets)

    first = upto(naive[bound + slack])
    second = upto(naive[bound + 2 * slack])
    assert rr.sets == second
    assert rr.slack_stable == (first == second)
    for label in range(sysq.m):
        for value in rr.values(label):
            tree = witness_tree(sysq, label, value, bound)
            assert validate_tree(sysq, tree) is None
            assert (tree.label, tree.value) == (label, value)
    # the memo is keyed by limit, answers like a fresh saturation, and stays
    # outside the system's equality and hash
    limit = bound + 2 * slack
    memo = sysq._saturated[limit]
    assert numbersets._saturate(sysq, limit) is memo
    fresh = QuadrupleSystem(sysq.m, sysq.rules, sysq.base)
    assert fresh == sysq and hash(fresh) == hash(sysq)
    assert numbersets._saturate(fresh, limit) == memo


def test_verify_certificate_saturates_afresh(monkeypatch):
    sysq = QuadrupleSystem(1, ((0, 0, 0, 0),), (frozenset({4, 7}),))
    cert = find_period(sysq, 0, 200, 16)
    assert sysq._saturated, "find_period fills the memo of its system"
    # poison the memo: a re-check that read it would see every value reached
    everything = (1 << 201) - 1
    for limit in sysq._saturated:
        sysq._saturated[limit] = ((everything,), ((everything,),))
    seen = []
    real = numbersets._saturate

    def spy(system, limit):
        seen.append((system, bool(system._saturated)))
        return real(system, limit)

    monkeypatch.setattr(numbersets, "_saturate", spy)
    assert verify_certificate(sysq, cert)
    assert seen and all(system is not sysq for system, _ in seen)
    assert seen[0][1] is False, "the re-check starts from an empty memo"
    tampered = PeriodicityCertificate(cert.label, 17, cert.period, cert.verified_to,
                                      cert.status, cert.pump)
    assert not verify_certificate(sysq, tampered)


def reference_search_pump(sysq, label, period, scan_bound, config):
    """The pump search as one plain generator that enumerates every subtree
    again at each call, with no lists and no costs: the reference the
    memoized ``numbersets._search_pump`` must match, stopping point included."""
    budget = [config.pump_tree_cap]
    bases = [sorted(b) for b in sysq.base]

    def trees(lab, max_nodes):
        if budget[0] <= 0:
            return
        for v in bases[lab]:
            budget[0] -= 1
            yield Node(lab, v)
        if max_nodes < 3:
            return
        for idx, (l1, l2, l3, j) in enumerate(sysq.rules):
            if l3 != lab:
                continue
            for left_nodes in range(1, max_nodes - 1, 2):
                right_nodes = max_nodes - 1 - left_nodes
                for lt in trees(l1, left_nodes):
                    for rt in trees(l2, right_nodes):
                        if budget[0] <= 0:
                            return
                        value = lt.value + rt.value - j
                        if value < 0:
                            continue
                        budget[0] -= 1
                        yield Node(lab, value, idx, lt, rt)

    value_cap = (2 ** sysq.m) * sysq.max_base + sysq.max_j
    for max_nodes in (1, 3, 5, 7, 9, 11):
        for tree in trees(label, max_nodes):
            if tree.value > max(value_cap, scan_bound):
                continue
            pair = find_pump(tree)
            if pair is not None and pair.delta % period == 0:
                return numbersets.PumpWitness(tree, pair)
        if budget[0] <= 0:
            break
    return None


# a replay that set the budget to (budget at entry - spent so far) instead of
# subtracting would find a pump here: it forgets what the consumer spent
# between two yields
@example(QuadrupleSystem(1, ((0, 0, 0, 0),), (frozenset({0, 1}),)), 0, 1, 9, 16)
@given(small_systems(max_rules=5), st.integers(0, 2), st.integers(1, 3),
       st.integers(1, 2000), st.sampled_from((8, 16, 32)))
@settings(max_examples=600, deadline=None)
def test_search_pump_matches_reference(sysq, label, period, cap, scan_bound):
    """Same witness (or None) as the plain enumeration, on small systems and
    caps small enough that many searches are cut short."""
    label %= sysq.m
    config = Config(pump_tree_cap=cap)
    assert numbersets._search_pump(sysq, label, period, scan_bound, config) == (
        reference_search_pump(sysq, label, period, scan_bound, config))


def test_search_pump_cap_boundary():
    """``pump_tree_cap`` counts every tree yielded at any level: at cap 14 the
    14th tree counted is 8 = 5 + 5 - 2, whose root and left leaf make a
    pump; at cap 13 the search stops one tree short of it."""
    sysq = QuadrupleSystem(1, ((0, 0, 0, 2),), (frozenset({2, 5}),))
    search = numbersets._search_pump
    assert search(sysq, 0, 1, 32, Config(pump_tree_cap=13)) is None
    found = search(sysq, 0, 1, 32, Config(pump_tree_cap=14))
    assert found.pair == PumpPair(low=(0,), high=(), delta=3)
    assert found.tree == Node(0, 8, 0, Node(0, 5), Node(0, 5))


@given(small_systems())
@settings(max_examples=100, deadline=None)
def test_system_roundtrip_property(sysq):
    assert parse_system(serialize_system(sysq)) == sysq


def test_parse_system_headers_first():
    """The labels line may stand anywhere; a base label out of range is
    refused at its own line."""
    assert parse_system("rule 0 0 0 1 # deficit one\nbase 0: 2\nlabels 1\n") == COFIN2
    with pytest.raises(ParseError) as info:
        parse_system("labels 1\nbase 0: 2\nbase 3: 1\n")
    assert info.value.line == 3


SYSTEM_TEXT = serialize_system(QuadrupleSystem(
    2, ((0, 1, 0, 2), (1, 1, 1, 0)), (frozenset({1}), frozenset({2, 5}))))


@pytest.mark.parametrize("text", [
    "labels 1\nrule 0 0 1\n",
    "labels 1\nrule 0 0 0 1 5\n",
    "labels 1\nbase 3: 1\n",
    "labels -1\n",
    "labels 1\nlabels 2\n",           # a second labels line
    "labels 2 9\n",                    # too many fields
    "labels\nrule 0 0 0 1\n",          # too few fields
])
def test_parse_system_refusals(text):
    with pytest.raises(ParseError):
        parse_system(text)


def test_parse_system_label_budget(monkeypatch):
    """A label count above ``system_labels_max`` is refused, by name, before
    any per-label set or the system is built; at the limit it parses."""
    def forbidden(*args):
        raise AssertionError("the system was built")

    monkeypatch.setattr(numbersets, "QuadrupleSystem", forbidden)
    start = time.perf_counter()
    with pytest.raises(BudgetError) as info:
        parse_system("labels 3000000\n")
    assert time.perf_counter() - start < 0.1
    assert (info.value.budget, info.value.needed) == ("system_labels", 3000000)
    with pytest.raises(BudgetError):
        parse_system("labels 3\n", Config(system_labels_max=2))
    monkeypatch.undo()
    assert parse_system("labels 2\n", Config(system_labels_max=2)).m == 2


@given(mutated(SYSTEM_TEXT))
@settings(max_examples=300, deadline=None)
def test_parse_system_mutation_fuzz(text):
    """Any input either parses or raises HintikkaError (a ParseError or a
    domain refusal), never ValueError/IndexError/KeyError."""
    try:
        parse_system(text)
    except HintikkaError:
        pass
