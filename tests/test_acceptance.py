"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are exact (set/digest equality) throughout; seeded
randomness only.
"""

import itertools
import random
import time

import pytest

from conftest import k2_graph, rand_structure
from hintikka.closure import close, validate_replay
from hintikka.composition import (
    Scheme,
    disjoint_union_scheme,
    glue,
    plain_union_scheme,
    random_table_scheme,
    transfer,
)
from hintikka.config import Config
from hintikka.decomp import decompose, naive_decomposable, validate_split
from hintikka.numbersets import (
    QuadrupleSystem,
    chain_rank,
    find_period,
    find_pump,
    iter_nodes,
    pump,
    reach,
    validate_tree,
    verify_certificate,
    witness_tree,
)
from hintikka.oracle import eval_formula, parse_formula, spectrum_bruteforce
from hintikka.spectra import audit_gaps, class_spectrum, induce_system, spectrum
from hintikka.structures import (
    Structure,
    Vocabulary,
    apply_permutation,
    enumerate_structures,
    incidence_graph,
    path_graph,
)
from hintikka.theory import (
    compute_theory,
    default_interner,
    theories_equal_on_sentences,
)

GRAPHS = Vocabulary((("E", 2),))
CHAIN = plain_union_scheme(2, 2, 2, ident=((1, 0),),
                           result_refs=(("1", 0), ("2", 1)), name="chain")
GLUE_POINT = plain_union_scheme(1, 1, 1, ident=((0, 0),),
                                result_refs=(("s", 0, 0),), name="point")


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} ({name}): PASS - {detail}")


def _random_scheme(vocab, k1, k2, rng, table_pool):
    idents = ((0, 0),) if (k1 and k2 and rng.random() < 0.5) else ()
    keep1, keep2 = [True] * k1, [True] * k2
    ents = Scheme(k1, k2, 0, idents).entities()
    if ents and rng.random() < 0.35:
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
    if rng.random() < 0.5:
        return plain_union_scheme(k1, k2, k, idents, tuple(keep1), tuple(keep2), result)
    seed = table_pool[rng.randrange(len(table_pool))]
    return random_table_scheme(vocab, k1, k2, k, seed, idents,
                               tuple(keep1), tuple(keep2), result)


def test_criterion_1_addition_theorem():
    """Transfer equals the direct theory of the glued structure, exactly.

    Sizes shrink with depth to stay inside the five-minute budget; all
    instances respect the stated bounds (parts <= 5 elements, k* <= 2,
    n in {0,1,2}, m in {0,1}, plain-union plus twenty PRF tables).
    """
    rng = random.Random(20240817)
    interner = default_interner()
    table_pool = list(range(20))     # twenty fixed random-table seeds
    started = time.time()
    count = 0
    # (depth, plain-union max size, random-table max size, instances)
    plan = [(0, 5, 5, 260), (1, 4, 3, 190), (2, 3, 3, 52)]
    vocabs = [((("E", 2),), 0), ((("E", 2),), 1), ((("S", 1), ("E", 2)), 0),
              ((("S", 1), ("E", 2)), 1)]
    for depth, plain_size, rand_size, instances in plan:
        for trial in range(instances):
            preds, nsets = vocabs[trial % len(vocabs)]
            k1, k2 = rng.randint(0, 2), rng.randint(0, 2)
            v1 = Vocabulary(preds, k1, nsets)
            v2 = Vocabulary(preds, k2, nsets)
            scheme = _random_scheme(v1, k1, k2, rng, table_pool)
            max_size = plain_size if not scheme.tables else rand_size
            if depth == 2 and scheme.tables:
                max_size = min(max_size, 3)
            m1 = rand_structure(v1, rng.randint(max(1, k1), max_size), rng)
            m2 = rand_structure(v2, rng.randint(max(1, k2), min(max_size, 3)), rng)
            g = glue(m1, m2, scheme)
            assert g.size == m1.size + m2.size - scheme.j
            lhs = transfer(compute_theory(m1, depth, interner),
                           compute_theory(m2, depth, interner), scheme, interner)
            rhs = compute_theory(g, depth, interner)
            assert lhs.intern_id == rhs.intern_id, \
                f"mismatch at depth {depth}, trial {trial}, scheme {scheme.name}"
            count += 1
    elapsed = time.time() - started
    assert count >= 500
    assert elapsed < 300, f"runtime {elapsed:.0f}s exceeds 5 minutes"
    _report(1, "addition theorem", f"{count} instances, 0 failures, {elapsed:.0f}s")


def test_criterion_2_isomorphism_invariance():
    rng = random.Random(77)
    interner = default_interner()
    count = 0
    for depth, max_size, instances in ((0, 6, 80), (1, 5, 80), (2, 4, 40)):
        for _ in range(instances):
            nsets = rng.randint(0, 1)
            k = rng.randint(0, 2)
            v = Vocabulary((("E", 2),), k, nsets)
            m = rand_structure(v, rng.randint(max(1, k), max_size), rng)
            pi = list(range(m.size))
            rng.shuffle(pi)
            a = compute_theory(m, depth, interner)
            b = compute_theory(apply_permutation(m, pi), depth, interner)
            assert a.intern_id == b.intern_id
            count += 1
    assert count == 200
    _report(2, "isomorphism invariance", f"{count} triples, 0 failures")


def _equal_theory_pairs(interner, depth, wanted, rng):
    """Non-identical structure pairs with equal depth-d theories, found by
    grouping an exhaustive enumeration of small graphs."""
    groups = {}
    for size in (2, 3):
        for m in enumerate_structures(GRAPHS, size):
            tid = compute_theory(m, depth, interner).intern_id
            groups.setdefault(tid, []).append(m)
    pairs = []
    for members in groups.values():
        for a, b in zip(members, members[1:]):
            if a.key() != b.key():
                pairs.append((a, b))
    rng.shuffle(pairs)
    return pairs[:wanted]


def test_criterion_3_sentence_agreement():
    rng = random.Random(33)
    interner = default_interner()
    pairs = []
    for i in range(20):              # permuted copies at all depths
        d = i % 3
        size = (6, 5, 4)[d]
        k = rng.randint(0, 1)
        v = Vocabulary((("E", 2),), k, 0)
        m = rand_structure(v, rng.randint(max(1, k), size), rng)
        pi = list(range(m.size))
        rng.shuffle(pi)
        pairs.append((m, apply_permutation(m, pi), d))
    for i in range(15):              # long paths share depth-0 theories
        a, b = rng.sample([5, 6, 7, 8], 2)
        pairs.append((path_graph(a), path_graph(b), 0))
    for d, want in ((1, 8), (2, 7)):  # found pairs at higher depth
        for a, b in _equal_theory_pairs(interner, d, want, rng):
            pairs.append((a, b, d))
    assert len(pairs) >= 50
    for idx, (m1, m2, d) in enumerate(pairs[:50]):
        rep = theories_equal_on_sentences(m1, m2, d, 100, 9000 + idx, interner)
        assert rep.theories_equal, f"pair {idx} unexpectedly distinguishable"
        assert not rep.disagreements, f"pair {idx}: {rep.disagreements[:1]}"
    _report(3, "sentence agreement", "50 pairs x 100 sentences, 0 disagreements")


def _compositions_up_to(pieces, scheme, applications):
    """All structures buildable with at most `applications` scheme uses."""
    levels = [list(pieces)]
    for _ in range(applications):
        current = [m for level in levels for m in level]
        fresh = []
        seen = {m.key() for level in levels for m in level}
        for a in current:
            for b in current:
                try:
                    g = glue(a, b, scheme)
                except Exception:
                    continue
                if g.size <= 9 and g.key() not in seen:
                    seen.add(g.key())
                    fresh.append(g)
        levels.append(fresh)
    return [m for level in levels for m in level]


def test_criterion_4_closure_soundness_completeness():
    interner = default_interner()
    legs = []

    k2 = k2_graph()
    for depth in (0, 1):
        st = close({0: [(compute_theory(k2, depth, interner), 2, k2)]},
                   [disjoint_union_scheme()], depth=depth)
        legs.append(("disjoint-union", depth, st, [k2], disjoint_union_scheme()))

    p2 = path_graph(2, 2, (0, 1))
    st_paths0 = close({2: [(compute_theory(p2, 0, interner), 2, p2)]},
                      [CHAIN], depth=0)
    legs.append(("glue-paths", 0, st_paths0, [p2], CHAIN))

    # paths at depth 1: three sweeps cover every <=3-composition witness;
    # full convergence is out of desk-scale reach (see the convergence test)
    st_paths1 = close({2: [(compute_theory(p2, 1, interner), 2, p2)]},
                      [CHAIN], depth=1, max_iter=3)
    legs.append(("glue-paths", 1, st_paths1, [p2], CHAIN))

    for name, depth, st, pieces, scheme in legs:
        if not (name == "glue-paths" and depth == 1):
            assert st.status == "converged", f"{name} n={depth} did not converge"
        reachable = st.reachable()
        for witness in _compositions_up_to(pieces, scheme, 3):
            t = compute_theory(witness, depth, interner)
            assert t in reachable, \
                f"{name} n={depth}: witness of size {witness.size} missing"
        results = validate_replay(st)
        assert all(ok for ok, _ in results.values()), f"{name} n={depth} replay"
    _report(4, "closure soundness/completeness",
            "3 converged legs + bounded paths/n=1 leg; "
            "all <=3-composition witnesses reached; replay validated")


@pytest.mark.xfail(strict=True, reason=(
    "glue-paths closure at depth 1 cannot converge at desk scale: "
    "Th^1(P_L, two end constants) has payload 2^L for L <= 9 (measured), "
    "and closure sweeps pair long-path theories at |payload|^2 base "
    "transfers each, growing without bound until stabilization far beyond "
    "reach; see the decisions ledger"))
def test_criterion_4_paths_depth1_convergence():
    interner = default_interner()
    p2 = path_graph(2, 2, (0, 1))
    st = close({2: [(compute_theory(p2, 1, interner), 2, p2)]},
               [CHAIN], depth=1, max_iter=3)
    assert st.status == "converged"


def _matching_oracle_sizes(bound):
    """Brute-force spectrum of the perfect-matching sentence: exhaustive for
    sizes <= 4, complete reduced candidate family beyond (the reduction is
    cross-checked exhaustively in test_oracle)."""
    pm = parse_formula(
        "(and (not (exists x (E x x)))"
        " (not (exists x (exists y (and (E x y) (not (E y x))))))"
        " (forall x (exists y (E x y)))"
        " (not (exists x (exists y (exists z (and (E x y) (E x z) (not (= y z))))))))")
    sizes = set(spectrum_bruteforce(pm, GRAPHS, 4))
    for size in range(5, bound + 1):
        if _has_pairing(size, pm):
            sizes.add(size)
    return frozenset(sizes)


def _has_pairing(size, pm):
    def pair_up(rest):
        if not rest:
            yield ()
            return
        first = rest[0]
        for idx in range(1, len(rest)):
            other = rest[idx]
            for more in pair_up(rest[1:idx] + rest[idx + 1:]):
                yield ((first, other),) + more

    for pairs in pair_up(tuple(range(size))):
        edges = set()
        for a, b in pairs:
            edges |= {(a, b), (b, a)}
        m = Structure(GRAPHS, size, (frozenset(edges),))
        if eval_formula(m, pm):
            return True
    return False


def test_criterion_5_spectra_vs_oracle():
    interner = default_interner()
    k2 = k2_graph()
    st_match = close({0: [(compute_theory(k2, 0, interner), 2, k2)]},
                     [disjoint_union_scheme()], depth=0)
    compositional = frozenset(class_spectrum(st_match, 8))
    oracle = _matching_oracle_sizes(8)
    assert compositional == oracle == frozenset({2, 4, 6, 8})

    p2 = path_graph(2, 2, (0, 1))
    st_paths = close({2: [(compute_theory(p2, 0, interner), 2, p2)]},
                     [CHAIN], depth=0)
    assert class_spectrum(st_paths, 8) == (2, 3, 4, 5, 6, 7, 8)
    _report(5, "spectra vs oracle",
            "matching class = evens {2,4,6,8} = brute force; paths = {2..8}")


SYSTEMS_6 = (
    (QuadrupleSystem(1, ((0, 0, 0, 0),), (frozenset({3}),)), 3, 3),
    (QuadrupleSystem(1, ((0, 0, 0, 1),), (frozenset({2}),)), 2, 1),
    (QuadrupleSystem(1, ((0, 0, 0, 0),), (frozenset({4, 7}),)), 18, 1),
)


def test_criterion_6_numberset_certificates():
    for sysq, want_t, want_p in SYSTEMS_6:
        cert = find_period(sysq, 0, 200, 16)
        assert cert is not None
        assert cert.period == want_p
        assert cert.threshold == want_t
        assert cert.threshold <= 18
        assert cert.verified_to == 200
        assert verify_certificate(sysq, cert), "independent re-check failed"
        assert cert.pump is not None, "pump witness required"
        pair = cert.pump.pair
        assert validate_tree(sysq, cert.pump.tree) is None
        assert pair.delta % cert.period == 0
    _report(6, "number-set certificates",
            "T=3/p=3, T=2/p=1, T=18/p=1 all re-verified with pump witnesses")


def test_criterion_7_pumping_and_rank_bound():
    trees = []
    for sysq, _, _ in SYSTEMS_6:
        values = reach(sysq, 60).values(0)
        for value in values:
            tree = witness_tree(sysq, 0, value, 60)
            assert validate_tree(sysq, tree) is None
            n_star0 = sysq.max_base
            ranks = chain_rank(tree)
            for path, node in iter_nodes(tree):
                assert node.value <= 2 ** ranks[path] * n_star0
            if find_pump(tree) is not None:
                trees.append((sysq, tree))
    assert len(trees) >= 20
    for sysq, tree in trees[:20]:
        pair = find_pump(tree)
        for i in range(6):
            pumped = pump(tree, pair, i)
            assert validate_tree(sysq, pumped) is None
            assert pumped.value == tree.value + i * pair.delta
    _report(7, "pumping", "20 trees x i in 0..5 validated; rank bound holds")


def test_criterion_8_example_incidence_family():
    for n in (5, 6, 7):
        ig = incidence_graph(n)
        cfg = Config(decomp_size_max=max(24, ig.size))
        assert decompose(ig, 2, 6, cfg) is None, f"incidence({n}) split found"
    for n in range(3, 9):
        split = decompose(path_graph(n), 1, 2)
        assert split is not None
        assert validate_split(path_graph(n), split, 1, 2) is None

    checked = 0
    for size in (0, 1, 2, 3):
        for m in enumerate_structures(GRAPHS, size):
            for k, mm in ((1, 2), (2, 2)):
                assert (decompose(m, k, mm) is not None) == \
                    naive_decomposable(m, k, mm)
                checked += 1
    rng = random.Random(55)
    for _ in range(100):
        size = rng.randint(4, 7)
        m = rand_structure(GRAPHS, size, rng)
        for k, mm in ((1, 2), (2, 3)):
            assert (decompose(m, k, mm) is not None) == \
                naive_decomposable(m, k, mm)
            checked += 1
    _report(8, "incidence family / decompose oracle",
            f"incidence 5-7 whole, paths split, {checked} oracle agreements")


def test_criterion_9_gap_auditor():
    interner = default_interner()
    k2 = k2_graph()
    st_match = close({0: [(compute_theory(k2, 0, interner), 2, k2)]},
                     [disjoint_union_scheme()], depth=0)
    p2 = path_graph(2, 2, (0, 1))
    st_paths = close({2: [(compute_theory(p2, 0, interner), 2, p2)]},
                     [CHAIN], depth=0)
    audited = 0
    for st in (st_match, st_paths):
        _, digests = induce_system(st)
        for digest in digests:
            rep = spectrum(st, digest, 8)
            result = audit_gaps(rep.sizes, 2, 0) if rep.sizes else None
            if result is not None:
                assert result.violations == (), f"{digest[:8]}: {result.violations}"
                audited += 1
    synthetic = audit_gaps([4, 8], 2, 0)
    assert synthetic.violations == ((4, 8),)
    _report(9, "gap auditor",
            f"{audited} spectra clean at rho=2; synthetic (4,8) flagged")


def test_criterion_10_selfcheck_determinism(capsys):
    from hintikka.cli import run

    outputs = []
    for _ in range(2):
        code = run(["selfcheck", "--seed", "2024"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[-1].startswith("selfcheck ok")
    _report(10, "determinism", "selfcheck byte-identical across runs")
