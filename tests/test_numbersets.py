"""The quadruple-system engine: reach, trees, pumping, certificates.

Expected reach sets below were derived by brute-force iteration of the
rules (frozen); periodicity thresholds follow the member-normalized rule
the certificates use.
"""

import dataclasses
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mutated
from hintikka import numbersets
from hintikka.cli import run
from hintikka.closure import parse_facts
from hintikka.config import Config
from hintikka.errors import BudgetError, HintikkaError, ParseError
from hintikka.numbersets import (
    Node,
    PeriodicityCertificate,
    PumpPair,
    PumpWitness,
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
    reach_is_exact,
    serialize_system,
    validate_tree,
    verify_certificate,
    witness_tree,
)
from hintikka.spectra import induce_system_from_facts

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


def test_negative_slack_refused():
    # a negative slack saturates below the bound: reach would answer
    # "nothing at label 0"
    assert reach(COFIN2, 4, 0).values(0) == (2, 3, 4)
    with pytest.raises(HintikkaError, match="slack"):
        reach(COFIN2, 4, -2)


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
def small_systems(draw, max_rules=6, mirrored=False):
    """Small random systems; with ``mirrored``, every rule (l1, l2, l3, j)
    comes with its mirror (l2, l1, l3, j), as in the systems closures
    induce."""
    m = draw(st.integers(min_value=1, max_value=3))
    label = st.integers(min_value=0, max_value=m - 1)
    rules = draw(st.lists(st.tuples(label, label, label, st.integers(0, 3)),
                          max_size=max_rules))
    if mirrored:
        rules += [(l2, l1, l3, j) for l1, l2, l3, j in rules]
    base = draw(st.lists(st.frozensets(st.integers(0, 8), max_size=3),
                         min_size=m, max_size=m))
    return QuadrupleSystem(m, tuple(rules), tuple(base))


@given(small_systems(), st.integers(min_value=0, max_value=16))
@settings(max_examples=80, deadline=None)
def test_reach_matches_naive_fixpoint(sysq, bound):
    _check_reach_matches_naive_fixpoint(sysq, bound)


@given(small_systems(mirrored=True), st.integers(min_value=0, max_value=16))
@settings(max_examples=80, deadline=None)
def test_reach_matches_naive_fixpoint_with_mirrored_rules(sysq, bound):
    # _saturate applies one rule of each mirrored pair; naive_fixpoint and
    # witness_tree read every rule
    _check_reach_matches_naive_fixpoint(sysq, bound)


def test_mirrored_rules_read_once_and_produce_twice():
    sysq = QuadrupleSystem(3, ((0, 1, 2, 0), (1, 0, 2, 0), (0, 0, 1, 1), (2, 1, 0, 0)),
                           (frozenset({1}), frozenset({2}), frozenset()))
    pair = {sysq.rules.index((0, 1, 2, 0)), sysq.rules.index((1, 0, 2, 0))}
    lone = sysq.rules.index((2, 1, 0, 0))   # its mirror is not a rule
    for label in (0, 1):
        assert len(sysq._by_operand[label] & pair) == 1
    assert sysq._by_operand[0] & pair == sysq._by_operand[1] & pair
    assert lone in sysq._by_operand[1] and lone in sysq._by_operand[2]
    assert {idx for idx, *_ in sysq._producers[2]} == pair
    members, _ = numbersets._saturate(sysq, 12)
    assert [tuple(numbersets._bits(x)) for x in members] == naive_fixpoint(sysq, 12)


def _check_reach_matches_naive_fixpoint(sysq, bound):
    # reach saturates above the bound and every base value
    slack = sysq.default_slack()
    top = max(bound, sysq.max_base)
    rr = reach(sysq, bound)
    naive = {}
    for limit in (top + slack, top + 2 * slack):
        naive[limit] = naive_fixpoint(sysq, limit)
        members, _ = numbersets._saturate(sysq, limit)
        assert [tuple(numbersets._bits(x)) for x in members] == naive[limit]

    def upto(sets):
        return tuple(tuple(v for v in vals if v <= bound) for vals in sets)

    first = upto(naive[top + slack])
    second = upto(naive[top + 2 * slack])
    assert tuple(map(rr.values, range(sysq.m))) == second
    assert rr.slack_stable == (first == second)
    for label in range(sysq.m):
        for value in rr.values(label):
            tree = witness_tree(sysq, label, value, bound)
            assert validate_tree(sysq, tree) is None
            assert (tree.label, tree.value) == (label, value)
    # the memo is keyed by limit, answers like a fresh saturation, and stays
    # outside the system's equality and hash
    limit = top + 2 * slack
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


def fresh_copy(sysq):
    """An equal system whose memos are empty."""
    return QuadrupleSystem(sysq.m, sysq.rules, sysq.base)


searches = st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3), st.integers(1, 2000),
                              st.sampled_from((8, 16, 32))), min_size=1, max_size=4)


# the first search's cap of 20 cuts the list of label 0 at five nodes short
# (3 of its 11 trees, 12 of the 46 counts); a search that kept that list
# would replay it in the second search and find a pump the cap of 172 does
# not reach
@example(QuadrupleSystem(2, ((0, 0, 1, 2), (1, 0, 0, 1), (1, 1, 1, 3)),
                         (frozenset({1}), frozenset({0, 8}))),
         [(0, 2, 20, 16), (1, 3, 172, 8)])
# the first search keeps its top-level lists; a second search that replayed
# the one at five nodes would hand trees made after its cap of 19 is spent
# to find_pump, and find the pump from the leaf 3 at path 10 to the root
# 13 = 8 + (3 + 8 - 3) - 3
@example(QuadrupleSystem(1, ((0, 0, 0, 3),), (frozenset({3, 8}),)),
         [(0, 3, 101, 32), (0, 2, 19, 32)])
@given(small_systems(max_rules=5), searches)
@settings(max_examples=300, deadline=None)
def test_search_pump_sequences_match_reference(sysq, sequence):
    """Searches of one system share its kept lists, whatever their labels,
    periods and caps: each finds what the plain enumeration finds on a
    fresh copy."""
    for label, period, cap, scan_bound in sequence:
        config = Config(pump_tree_cap=cap)
        assert numbersets._search_pump(sysq, label % sysq.m, period, scan_bound, config) == (
            reference_search_pump(fresh_copy(sysq), label % sysq.m, period, scan_bound, config))


class CountedNode(Node):
    """A ``Node`` that counts the instances made, patched into both
    ``numbersets`` and this module to count the trees a search builds."""

    made = 0

    def __init__(self, *args, **kwargs):
        CountedNode.made += 1
        super().__init__(*args, **kwargs)


def count_nodes(search, *args):
    """The number of nodes ``search(*args)`` builds."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numbersets, "Node", CountedNode)
        mp.setitem(globals(), "Node", CountedNode)
        CountedNode.made = 0
        search(*args)
        return CountedNode.made


# a search that built each list in full before its first replay would build
# 24 nodes against the reference's 18 in the first example, and 120 against
# 23 in the second, where a pump turns up among the first trees
@example(QuadrupleSystem(1, ((0, 0, 0, 0), (0, 0, 0, 0)), (frozenset({0, 1, 2}),)),
         [(0, 1, 48, 8)])
@example(QuadrupleSystem(1, ((0, 0, 0, 0),), (frozenset(range(1, 11)),)),
         [(0, 1, Config().pump_tree_cap, 32)])
@given(small_systems(max_rules=5), searches)
@settings(max_examples=200, deadline=None)
def test_search_pump_builds_no_unspent_tree(sysq, sequence):
    """The searches of one system build no more trees than their plain
    enumerations: a tree is made only where a reference spends the cap on
    it, and a kept list only replays trees an earlier search made."""
    built = reference = 0
    for label, period, cap, scan_bound in sequence:
        args = (label % sysq.m, period, scan_bound, Config(pump_tree_cap=cap))
        built += count_nodes(numbersets._search_pump, sysq, *args)
        reference += count_nodes(reference_search_pump, fresh_copy(sysq), *args)
        assert built <= reference


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


def reference_acyclic(sysq):
    """The labels that reach no cycle of the producer graph (edges l3 -> l1
    and l3 -> l2 per rule): a depth-first walk from each label that looks
    for a label already on its own path."""
    edges = [set() for _ in range(sysq.m)]
    for l1, l2, l3, _ in sysq.rules:
        edges[l3] |= {l1, l2}

    def repeats(label, path):
        return label in path or any(repeats(nxt, path | {label}) for nxt in edges[label])

    return frozenset(label for label in range(sysq.m) if not repeats(label, frozenset()))


# labels 0 <- 1 <- 2 and 0 <- 3, where label 2 makes itself: only label 3,
# made by no rule, reaches no cycle
CHAIN_TO_LOOP = QuadrupleSystem(4, ((1, 1, 0, 0), (3, 3, 0, 1), (2, 2, 1, 0), (2, 2, 2, 0)),
                                (frozenset(), frozenset(), frozenset({1}), frozenset({2})))


@example(CHAIN_TO_LOOP, 1, Config().pump_tree_cap, 32)
@given(st.one_of(small_systems(), small_systems(mirrored=True)), st.integers(1, 3),
       st.integers(1, 2000), st.sampled_from((8, 16, 32)))
@settings(max_examples=300, deadline=None)
def test_labels_that_reach_no_cycle_have_no_pump(sysq, period, cap, scan_bound):
    """The labels the pump search skips are those of the depth-first walk,
    with mirrored rules or without, and the plain enumeration finds no pump
    at any of them; the search builds no tree there."""
    assert sysq._acyclic == reference_acyclic(sysq)
    config = Config(pump_tree_cap=cap)
    for label in sysq._acyclic:
        assert reference_search_pump(sysq, label, period, scan_bound, config) is None
        assert count_nodes(numbersets._search_pump, sysq, label, period, scan_bound,
                           config) == 0


def test_a_label_above_a_cycle_is_still_searched():
    """Label 0 reaches the loop at label 2 through label 1, so it is
    searched, and finds the pump of label 2 that the plain enumeration finds
    in a tree of nine nodes."""
    assert CHAIN_TO_LOOP._acyclic == {3}
    config = Config()
    found = numbersets._search_pump(CHAIN_TO_LOOP, 0, 1, 32, config)
    assert found is not None and found.tree.label == 0
    assert found == reference_search_pump(fresh_copy(CHAIN_TO_LOOP), 0, 1, 32, config)
    assert node_at(found.tree, found.pair.high).label == 2


def test_spectrum_workload_labels_that_reach_no_cycle(tmp_path):
    """The system induced by the spectrum workload's facts (the depth-0
    disjoint-union closure of all graphs of size at most 1): 10 of its 17
    labels reach no cycle, and all of them are certified finite."""
    scheme, facts = tmp_path / "du.scm", tmp_path / "du.facts"
    scheme.write_text("scheme k1=0 k2=0 k=0\n")
    assert run(["closure", "--vocab", "E/2", "--depth", "0", "--scheme", str(scheme),
                "--small-models", "1", "--facts-out", str(facts)]) == 0
    sysq, _ = induce_system_from_facts(*parse_facts(facts.read_text()))
    assert sysq.m == 17
    assert sysq._acyclic == reference_acyclic(sysq) == {1, 3, 5, 6, 7, 9, 11, 13, 15, 16}
    for label in sysq._acyclic:
        assert find_period(sysq, label, 96, 16).status == "finite"


def reference_find_pump(tree):
    """``find_pump`` as the peak set, a path-to-node map and an ancestor
    walk from each peak, deepest first."""
    peaks = peak_nodes(tree)
    nodes = {path: node for path, node in iter_nodes(tree)}
    for low in sorted(peaks, key=lambda p: (-len(p), p)):
        if not low:
            continue
        anc = low[:-1]
        while True:
            if anc in peaks and nodes[anc].label == nodes[low].label:
                delta = nodes[anc].value - nodes[low].value
                if delta > 0:
                    return PumpPair(low, anc, delta)
            if not anc:
                break
            anc = anc[:-1]
    return None


def labelled_trees(max_leaves=12):
    """Trees over labels 0-2 with any values: find_pump reads only labels,
    values and shape."""
    label, value = st.integers(0, 2), st.integers(0, 12)
    return st.recursive(
        st.builds(Node, label, value),
        lambda sub: st.builds(lambda lab, v, left, right: Node(lab, v, 0, left, right),
                              label, value, sub, sub),
        max_leaves=max_leaves)


@example(CHAIN_TREE)
@given(labelled_trees())
@settings(max_examples=400, deadline=None)
def test_find_pump_matches_the_ancestor_walk(tree):
    """The one-pass ``find_pump`` returns the reference's canonical pair:
    the deepest low node, the first by path among equals, and its nearest
    peak ancestor of the same label."""
    assert find_pump(tree) == reference_find_pump(tree)


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


# Two labels: rule 0 = (0, 0, 1, 0), rule 1 = (1, 1, 0, 0); label 1 starts
# from 1, so label 0 holds 2, 5, 8, ... and label 1 holds 1, 4, 7, ...
FLIP = QuadrupleSystem(2, ((1, 1, 0, 0), (0, 0, 1, 0)), (frozenset(), frozenset({1})))


def _flip_certificate(label=0):
    """At label 0 the pump tree is 5 = 1 + 4 by rule 1, with 4 = 2 + 2 by
    rule 0 below it; the pair runs from the label-1 leaf 1 at path 100 up
    to the label-1 node 4 at path 1."""
    cert = find_period(FLIP, label, 60, 8)
    assert verify_certificate(FLIP, cert) and cert.pump.pair.delta == cert.period == 3
    return cert


def _with_tree(cert, tree):
    return dataclasses.replace(cert, pump=PumpWitness(tree, cert.pump.pair))


def _with_pair(cert, low, high, delta):
    return dataclasses.replace(cert, pump=PumpWitness(cert.pump.tree, PumpPair(low, high, delta)))


@pytest.mark.parametrize("clause, detail, mutate", [
    ("b", "label 2 out of range", lambda t: dataclasses.replace(t, label=2)),
    ("c", "value -1 is not a natural number", lambda t: dataclasses.replace(t, value=-1)),
    ("d", "leaf with children", lambda t: dataclasses.replace(
        t, left=Node(1, 1, None, Node(1, 1), Node(1, 1)))),
    ("d", "rule index 5 out of range", lambda t: dataclasses.replace(t, rule=5)),
    ("f", "internal node missing a child", lambda t: dataclasses.replace(t, right=None)),
    ("f", "rule labels do not match children", lambda t: dataclasses.replace(t, rule=0)),
    ("e", "leaf value 2 not in base", lambda t: dataclasses.replace(
        t, value=6, left=Node(1, 2))),
    ("f", "value 6 != 1+4-0", lambda t: dataclasses.replace(t, value=6)),
], ids=["label", "negative-value", "leaf-children", "rule-index", "missing-child",
        "rule-labels", "leaf-base", "arithmetic"])
def test_verify_certificate_refuses_each_bad_pump_tree(clause, detail, mutate):
    """One mutant of the pump tree per clause of ``validate_tree``; each
    is named by the validator and refused by the re-check."""
    cert = _flip_certificate()
    tree = mutate(cert.pump.tree)
    violation = validate_tree(FLIP, tree)
    assert (violation.clause, violation.detail[:len(detail)]) == (clause, detail)
    assert verify_certificate(FLIP, _with_tree(cert, tree)) is False


@pytest.mark.parametrize("low, high, delta", [
    ((1, 0, 0), (1,), 0),                   # no increment
    ((1, 0, 0), (1,), -3),
    ((1, 0, 0), (1,), 4),                   # the period 3 does not divide it
    ((1, 0, 0), (1,), 6),                   # not the increment the pair adds
    ((1,), (1, 0, 0), 3),                   # endpoints swapped
    ((0, 0, 0, 0, 0, 0), (1,), 3),          # no node at the low path
    ((1, 0), (1,), 3),                      # labels 0 and 1 differ
], ids=["zero", "negative", "not-a-multiple", "wrong-increment", "swapped",
        "missing-node", "labels-differ"])
def test_verify_certificate_refuses_bad_pump_pairs(low, high, delta):
    """Every tampered pair is refused with False, never an exception."""
    assert verify_certificate(FLIP, _with_pair(_flip_certificate(), low, high, delta)) is False


def test_verify_certificate_refuses_a_pump_tree_of_another_label():
    cert = _flip_certificate()
    assert verify_certificate(FLIP, dataclasses.replace(cert, pump=_flip_certificate(1).pump)) \
        is False


def test_verify_certificate_refuses_a_pump_that_leaves_the_naturals():
    """Under rule (0, 0, 0, 5) the root 1 = 5 + 1 - 5 sits above its child
    5, so stacking the context takes the root to 1 + 1 - 5 < 0, although
    the claimed increment is positive."""
    sysq = QuadrupleSystem(1, ((0, 0, 0, 5),), (frozenset({1, 5}),))
    tree = Node(0, 1, 0, Node(0, 5), Node(0, 1))
    assert validate_tree(sysq, tree) is None
    cert = PeriodicityCertificate(0, 6, 1, 20, "certified-progression",
                                  PumpWitness(tree, PumpPair((0,), (), 1)))
    assert validate_tree(sysq, pump(tree, cert.pump.pair, 1)).clause == "c"
    assert verify_certificate(sysq, cert) is False


@given(small_systems(), st.integers(min_value=0, max_value=16))
@settings(max_examples=80, deadline=None)
def test_reach_is_exact_only_where_no_slack_is_needed(sysq, bound):
    """Where the check passes, saturating [0, bound] alone finds every value
    that a window far above every base value and deficit finds; the check
    fails wherever a rule's deficit passes the least value found at one of
    its operand labels."""
    limit = max(bound, sysq.max_base, sysq.max_j)
    window = naive_fixpoint(sysq, limit)
    mins = [vals[0] if vals else limit + 1 for vals in window]
    exact = reach_is_exact(sysq, bound)
    assert exact == all(j <= min(mins[l1], mins[l2]) for l1, l2, _, j in sysq.rules)
    if exact:
        wide = naive_fixpoint(sysq, 4 * (limit + 1))
        assert tuple(map(reach(sysq, bound, slack=0).values, range(sysq.m))) == tuple(
            tuple(v for v in vals if v <= bound) for vals in wide)


def test_reach_is_not_exact_where_a_derivation_climbs_above_the_window():
    """The system whose label 0 counts down from 79 = 80 - 1, where 80 is 10
    doubled three times: with the default slack, reach misses every value
    of label 0 up to 30, and the check refuses to call that exact."""
    sysq = parse_system("labels 7\nrule 0 5 0 1\nrule 0 6 0 0\nrule 1 1 2 0\n"
                        "rule 2 2 3 0\nrule 3 3 4 0\nrule 4 5 0 1\n"
                        "base 1: 10\nbase 5: 0\nbase 6: 1\n")
    rr = reach(sysq, 30)
    assert rr.values(0) == () and rr.slack_stable
    assert not reach_is_exact(sysq, 30)
    assert reach(sysq, 30, slack=30).values(0) == tuple(range(31))
    evens = QuadrupleSystem(1, ((0, 0, 0, 0),), (frozenset({2}),))
    assert reach_is_exact(evens, 12)
    with pytest.raises(HintikkaError):
        reach_is_exact(evens, -1)


def test_find_period_calls_a_set_with_no_member_past_its_threshold_finite():
    finite = QuadrupleSystem(1, (), (frozenset({1, 2}),))
    cert = find_period(finite, 0, 40, 8)
    assert (cert.threshold, cert.period, cert.status) == (3, 1, "finite")
    assert verify_certificate(finite, cert)
    evens = QuadrupleSystem(1, ((0, 0, 0, 0),), (frozenset({2}),))
    assert find_period(evens, 0, 40, 8).status != "finite"


def test_reach_keeps_base_values_above_the_bound():
    """Label 0 counts down from its base value 50 by rule (0, 1, 0, 1) and
    up by rule (0, 2, 0, 0), so it reaches every value; 50 lies above
    bound + 2 * slack (30 + 12), and a window that cut it off reached
    nothing at label 0 and still called its answer slack-stable."""
    text = "labels 3\nrule 0 1 0 1\nrule 0 2 0 0\nbase 0: 50\nbase 1: 0\nbase 2: 1\n"
    sysq = parse_system(text)
    rr = reach(sysq, 30)
    assert sysq.default_slack() == 6
    assert rr.values(0) == tuple(range(31)) and rr.slack_stable
    assert rr.values(1) == (0,) and rr.values(2) == (1,)
    for value in (0, 30):
        tree = witness_tree(sysq, 0, value, 30)
        assert validate_tree(sysq, tree) is None and tree.value == value


def test_verify_certificate_refuses_pumped_values_outside_the_reach_set():
    """A pumped tree that validates derives its value, so its value lies
    outside the re-checked reach set only where saturation misses a
    derivable value. Here it does: label 0 counts down by rule (0, 5, 0, 1)
    from 79 = 80 - 1, where 80 = 10 doubled three times (labels 1 to 4),
    and up by rule (0, 6, 0, 0). Derivations climb to 80, above the window
    max(30, 10) + 2 * slack = 58, so the re-check reaches nothing at label
    0 and the pumped values 22, 23 and 24 are not among its members."""
    sysq = QuadrupleSystem(7, ((0, 5, 0, 1), (0, 6, 0, 0), (1, 1, 2, 0), (2, 2, 3, 0),
                               (3, 3, 4, 0), (4, 5, 0, 1)),
                           (frozenset(), frozenset({10}), frozenset(), frozenset(),
                            frozenset(), frozenset({0}), frozenset({1})))
    assert sysq.default_slack() == 14
    tree = Node(1, 10)
    for label in (2, 3, 4):         # rule `label` doubles label - 1 into label
        tree = Node(label, 2 * tree.value, label, tree, tree)
    tree = Node(0, tree.value - 1, 5, tree, Node(5, 0))
    while tree.value > 20:
        tree = Node(0, tree.value - 1, 0, tree, Node(5, 0))
    tree = Node(0, tree.value + 1, 1, tree, Node(6, 1))
    pair = PumpPair((0,), (), 1)
    assert validate_tree(sysq, tree) is None and tree.value == 21
    assert validate_tree(sysq, pump(tree, pair, 1)) is None
    assert reach(sysq, 30).values(0) == ()
    cert = PeriodicityCertificate(0, 0, 1, 30, "certified-progression", PumpWitness(tree, pair))
    assert verify_certificate(sysq, cert) is False


# the multiples of 50: the scan to 96 sees 50 alone, so every pattern has no
# member past its threshold, and the pump 100 = 50 + 50 refutes each of them
FIFTIES = QuadrupleSystem(1, ((0, 0, 0, 0),), (frozenset({50}),))


def test_find_period_does_not_call_a_pumped_set_finite():
    """A pump of any increment proves the set infinite, so no pattern that
    ends below the scan bound is certified: the scan is inconclusive."""
    assert find_period(FIFTIES, 0, 96, 16) is None
    witness = numbersets._search_pump(FIFTIES, 0, 1, 96, Config())
    assert witness.pair.delta == 50 and validate_tree(FIFTIES, witness.tree) is None
    assert reach(FIFTIES, 200).values(0) == (50, 100, 150, 200)


def test_verify_certificate_refuses_a_finite_certificate_with_a_pump_or_a_member():
    witness = numbersets._search_pump(FIFTIES, 0, 1, 96, Config())
    finite = PeriodicityCertificate(0, 51, 1, 96, "finite")
    assert verify_certificate(FIFTIES, finite)          # nothing from 51 to 96
    assert not verify_certificate(FIFTIES, dataclasses.replace(finite, pump=witness))
    assert verify_certificate(FIFTIES, dataclasses.replace(
        finite, status="certified-progression", pump=witness))
    # periodic on [1, 96] with period 50, but 50 is a member past the threshold
    spaced = PeriodicityCertificate(0, 1, 50, 96, "empirical")
    assert verify_certificate(FIFTIES, spaced)
    assert not verify_certificate(FIFTIES, dataclasses.replace(spaced, status="finite"))


def reference_members(sysq, label, bound):
    """The values <= bound at ``label`` in the window ``reach`` saturates,
    as a set, by the naive fixpoint."""
    limit = max(bound, sysq.max_base) + 2 * sysq.default_slack()
    return {v for v in naive_fixpoint(sysq, limit)[label] if v <= bound}


def reference_find_period(sysq, label, scan_bound, window, config):
    """``find_period`` one value at a time: a backward scan for the last
    mismatch of x against x + period, then a walk up to the first member."""
    vals = reference_members(sysq, label, scan_bound)
    max_member = max(vals, default=None)
    infinite = None
    for period in range(1, window + 1):
        t0 = 0
        for x in range(scan_bound - period, -1, -1):
            if (x in vals) != (x + period in vals):
                t0 = x + 1
                break
        threshold = t0
        if max_member is not None and t0 <= max_member:
            while threshold not in vals:
                threshold += 1
        if threshold + 3 * period > scan_bound:
            continue
        if max_member is None or max_member < threshold:
            if infinite is None:
                infinite = reference_search_pump(sysq, label, 1, scan_bound, config) is not None
            if infinite:
                continue
            return PeriodicityCertificate(label, threshold, period, scan_bound, "finite")
        witness = reference_search_pump(sysq, label, period, scan_bound, config)
        status = "empirical" if witness is None else "certified-progression"
        return PeriodicityCertificate(label, threshold, period, scan_bound, status, witness)
    return None


def reference_verify_certificate(sysq, cert):
    """``verify_certificate`` one value at a time."""
    if cert.period < 1 or cert.threshold < 0:
        return False
    vals = reference_members(sysq, cert.label, cert.verified_to)
    for x in range(cert.threshold, cert.verified_to - cert.period + 1):
        if (x in vals) != (x + cert.period in vals):
            return False
    if cert.status == "finite" and (cert.pump is not None
                                    or any(v >= cert.threshold for v in vals)):
        return False
    if cert.pump is not None:
        tree, pair = cert.pump.tree, cert.pump.pair
        if validate_tree(sysq, tree) is not None or tree.label != cert.label:
            return False
        if pair.delta <= 0 or pair.delta % cert.period != 0:
            return False
        for i in range(1, 4):
            try:
                pumped = pump(tree, pair, i)
            except HintikkaError:
                return False
            if validate_tree(sysq, pumped) is not None:
                return False
            if pumped.value != tree.value + i * pair.delta:
                return False
            if pumped.value <= cert.verified_to and pumped.value not in vals:
                return False
    return True


@st.composite
def scans(draw):
    """(scan bound, window): windows up to half the scan, so that periods
    near a third of the scan, the largest that fit, are tried."""
    scan_bound = draw(st.integers(2, 48))
    return scan_bound, draw(st.integers(1, scan_bound // 2))


@example(FIFTIES, 0, (96, 16), 51, 1, "finite", True)                  # refuted finite
@example(QuadrupleSystem(1, ((0, 0, 0, 0),), (frozenset(),)), 0, (12, 6),
         0, 1, "finite", False)                                          # empty
@example(QuadrupleSystem(2, (), (frozenset({1, 4}), frozenset())), 0, (30, 10),
         5, 2, "empirical", False)                                       # finite
@example(MULT3, 0, (12, 6), 3, 3, "certified-progression", True)       # period scan/3
@example(QuadrupleSystem(1, (), (frozenset({0, 1, 2}),)), 0, (3, 1),
         0, 1, "finite", False)                          # last mismatch at x = scan - 1
@given(small_systems(), st.integers(0, 2), scans(), st.integers(0, 50), st.integers(1, 16),
       st.sampled_from(("finite", "empirical", "certified-progression")), st.booleans())
@settings(max_examples=300, deadline=None)
def test_bit_certificates_match_the_per_value_loops(sysq, label, scan, threshold, period,
                                                    status, keep_pump):
    """``find_period`` and ``verify_certificate`` on bitsets agree with the
    per-value loops: the same certificate, pump included, and the same
    verdict on it and on a certificate with other fields."""
    label %= sysq.m
    scan_bound, window = scan
    config = Config(pump_tree_cap=300)
    cert = find_period(sysq, label, scan_bound, window, config)
    assert cert == reference_find_period(sysq, label, scan_bound, window, config)
    if cert is None:
        cert = PeriodicityCertificate(label, 0, 1, scan_bound, "empirical")
    assert verify_certificate(sysq, cert) == reference_verify_certificate(sysq, cert)
    other = dataclasses.replace(cert, threshold=threshold, period=period, status=status,
                                pump=cert.pump if keep_pump else None)
    assert verify_certificate(sysq, other) == reference_verify_certificate(sysq, other)


@given(small_systems(), scans())
@settings(max_examples=80, deadline=None)
def test_memos_stay_outside_equality_hash_and_repr(drawn, scan):
    """After ``find_period`` on every label a system fills its memos, yet it
    equals, hashes and prints like the system its file reads back as, and
    ``verify_certificate`` re-checks each certificate on a copy with empty
    memos."""
    # read from its file, as its copy is: a frozenset prints its members in
    # an order that follows how it was built
    sysq = parse_system(serialize_system(drawn))
    scan_bound, window = scan
    config = Config(pump_tree_cap=300)
    certs = [find_period(sysq, label, scan_bound, window, config) for label in range(sysq.m)]
    assert sysq._saturated
    copy = parse_system(serialize_system(sysq))
    assert not copy._saturated and not copy._trees
    assert copy == sysq and hash(copy) == hash(sysq) and repr(copy) == repr(sysq)
    seen = []
    real = numbersets._saturate

    def spy(system, limit):
        seen.append(system is not sysq and not system._saturated and not system._trees)
        return real(system, limit)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numbersets, "_saturate", spy)
        for cert in filter(None, certs):
            seen.clear()
            assert verify_certificate(sysq, cert)
            assert seen[0], "the re-check starts from a copy with empty memos"
