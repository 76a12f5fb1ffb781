"""Desk-scale invariant battery behind the `selfcheck` subcommand.

Every check is deterministic given the seed; output lines mention only
stable quantities (digests, counts, sizes), never process-local ids, so
reports are byte-identical across runs.
"""

from __future__ import annotations

import itertools
import random
from functools import partial

from .composition import (
    disjoint_union_scheme,
    glue,
    plain_union_scheme,
    random_table_scheme,
    transfer,
)
from .closure import close, validate_replay
from .decomp import decompose, naive_decomposable
from .numbersets import (
    QuadrupleSystem,
    chain_rank,
    find_period,
    find_pump,
    iter_nodes,
    pump,
    validate_tree,
    verify_certificate,
    witness_tree,
)
from .oracle import eval_formula, parse_formula, random_sentence
from .spectra import audit_gaps, class_spectrum, induce_system, spectrum
from .structures import (
    Structure,
    Vocabulary,
    apply_permutation,
    enumerate_structures,
    enumeration_count,
    incidence_graph,
    parse_structure,
    path_graph,
    serialize_structure,
)
from .theory import Interner, compute_theory, enumerate_formal, theories_equal_on_sentences


def _rand_structure(vocab, size, rng):
    rels = []
    for _, ar in vocab.predicates:
        tuples = list(itertools.product(range(size), repeat=ar))
        rels.append(frozenset(t for t in tuples if rng.random() < 0.4))
    consts = tuple(rng.sample(range(size), vocab.num_consts))
    sets = tuple(frozenset(e for e in range(size) if rng.random() < 0.5)
                 for _ in range(vocab.num_sets))
    return Structure(vocab, size, tuple(rels), consts, sets)


def check_structures(seed):
    rng = random.Random(seed)
    v = Vocabulary((("E", 2),), 1, 1)
    lines = []
    ok = True
    for _ in range(20):
        m = _rand_structure(v, rng.randint(1, 5), rng)
        if parse_structure(serialize_structure(m)) != m:
            ok = False
            lines.append("round-trip failed")
    counted = sum(1 for _ in enumerate_structures(Vocabulary((("E", 2),)), 2))
    ok &= counted == 16 == enumeration_count(Vocabulary((("E", 2),)), 2)
    ig = incidence_graph(5)
    ok &= ig.size == 15 and len(ig.rel("E")) == 40
    lines.append(f"roundtrips=20 graphs2={counted} incidence5={ig.size}/{len(ig.rel('E')) // 2}")
    return ok, lines


def check_theories(seed, interner):
    lines = []
    t6 = compute_theory(path_graph(6), 0, interner)
    t8 = compute_theory(path_graph(8), 0, interner)
    t4 = compute_theory(path_graph(4), 0, interner)
    ok = t6.digest == t8.digest and t4.digest != t8.digest
    sv = Structure(Vocabulary((("E", 2),)), 1)
    ok &= len(compute_theory(sv, 0, interner).payload) == 1
    ok &= len(compute_theory(sv, 1, interner).payload) == 2
    lines.append(f"paths digest={t6.digest[:12]} single-vertex th1 members=2")
    rng = random.Random(seed)
    v = Vocabulary((("E", 2),), 0, 0)
    for _ in range(10):
        m = _rand_structure(v, rng.randint(1, 5), rng)
        pi = list(range(m.size))
        rng.shuffle(pi)
        if compute_theory(m, 1, interner).digest != \
                compute_theory(apply_permutation(m, pi), 1, interner).digest:
            ok = False
            lines.append("isomorphism invariance failed")
    lines.append("isomorphism-invariance trials=10")
    return ok, lines


def check_formal(interner):
    v0 = Vocabulary(())
    sp = enumerate_formal(v0, 0, interner)
    inner = enumerate_formal(v0.with_sets(1), 0, interner)
    sp1 = enumerate_formal(v0, 1, interner, budget=2 ** 22)
    ok = sp.cardinality == 3 and sp1.cardinality == 2 ** inner.cardinality
    for size in (0, 1, 2):
        ok &= sp.contains(compute_theory(Structure(v0, size), 0, interner))
    return ok, [f"empty-vocab formal: depth0={sp.cardinality} depth1=2^{inner.cardinality}"]


def check_addition(seed, interner):
    rng = random.Random(seed)
    ok = True
    count = 0
    for preds, nsets in (((("E", 2),), 0), ((("S", 1), ("E", 2)), 1)):
        for trial in range(8):
            k1, k2 = rng.randint(0, 2), rng.randint(0, 2)
            v1 = Vocabulary(preds, k1, nsets)
            v2 = Vocabulary(preds, k2, nsets)
            m1 = _rand_structure(v1, rng.randint(max(1, k1), 3), rng)
            m2 = _rand_structure(v2, rng.randint(max(1, k2), 3), rng)
            idents = ((0, 0),) if (k1 and k2 and trial % 2) else ()
            probe = plain_union_scheme(k1, k2, 0, idents)
            kept = probe.kept_refs()
            k = min(1, len(kept))
            if trial % 2:
                s = plain_union_scheme(k1, k2, k, idents, result_refs=kept[:k])
            else:
                s = random_table_scheme(v1, k1, k2, k, seed + trial, idents,
                                        result_refs=kept[:k])
            g = glue(m1, m2, s)
            for n in (0, 1):
                count += 1
                lhs = transfer(compute_theory(m1, n, interner), compute_theory(m2, n, interner), s)
                rhs = compute_theory(g, n, interner)
                if lhs.digest != rhs.digest:
                    ok = False
    # two depth-2 instances
    v = Vocabulary((("E", 2),), 1, 0)
    for trial in range(2):
        m1 = _rand_structure(v, 2, rng)
        m2 = _rand_structure(v, 2, rng)
        s = plain_union_scheme(1, 1, 1, ((0, 0),), result_refs=(("s", 0, 0),))
        count += 1
        t1, t2 = compute_theory(m1, 2, interner), compute_theory(m2, 2, interner)
        if transfer(t1, t2, s).digest != compute_theory(glue(m1, m2, s), 2, interner).digest:
            ok = False
    return ok, [f"instances={count}"]


def check_sentences(seed, interner):
    rep = theories_equal_on_sentences(path_graph(6), path_graph(8), 0, 40, seed, interner)
    ok = rep.theories_equal and not rep.disagreements
    rng = random.Random(seed)
    v = Vocabulary((("E", 2),))
    m = _rand_structure(v, 4, rng)
    pi = list(range(4))
    rng.shuffle(pi)
    rep2 = theories_equal_on_sentences(m, apply_permutation(m, pi), 1, 25, seed + 1, interner)
    ok &= rep2.theories_equal and not rep2.disagreements
    return ok, [f"agreement: P6/P8 {rep.agreements}/{rep.samples}, "
                f"permuted {rep2.agreements}/{rep2.samples}"]


def check_closure_spectra(interner):
    v = Vocabulary((("E", 2),))
    k2 = Structure(v, 2, (frozenset({(0, 1), (1, 0)}),))
    st = close({0: [(compute_theory(k2, 0, interner), 2, k2)]}, [disjoint_union_scheme()], 0)
    ok = st.status == "converged"
    ok &= class_spectrum(st, 8) == (2, 4, 6, 8)
    ok &= all(good for good, _ in validate_replay(st).values())
    p2 = path_graph(2, 2, (0, 1))
    chain = plain_union_scheme(2, 2, 2, ((1, 0),),
                               result_refs=(("1", 0), ("2", 1)))
    st2 = close({2: [(compute_theory(p2, 0, interner), 2, p2)]}, [chain], depth=0)
    ok &= st2.status == "converged"
    ok &= class_spectrum(st2, 8) == (2, 3, 4, 5, 6, 7, 8)
    certs = []
    for st_, name in ((st, "matching"), (st2, "paths")):
        sysq, digests = induce_system(st_)
        for digest in digests:
            rep = spectrum(st_, digest, 8, induced=(sysq, digests))
            if rep.certificate is None:
                ok = False
                continue
            ok &= verify_certificate(sysq, rep.certificate)
            ok &= audit_gaps(rep.sizes, 2, 0).ok if rep.sizes else True
            certs.append(f"{name}/{digest[:8]}:{rep.certificate.status}")
    return ok, ["matching=(2,4,6,8) paths=(2..8)", "certs " + " ".join(sorted(certs))]


def check_numbersets():
    ok = True
    lines = []
    cases = [
        (QuadrupleSystem(1, ((0, 0, 0, 0),), (frozenset({3}),)), 3, 3),
        (QuadrupleSystem(1, ((0, 0, 0, 1),), (frozenset({2}),)), 2, 1),
        (QuadrupleSystem(1, ((0, 0, 0, 0),), (frozenset({4, 7}),)), 18, 1),
    ]
    for sysq, want_t, want_p in cases:
        cert = find_period(sysq, 0, 200, 16)
        good = (cert is not None and cert.threshold == want_t
                and cert.period == want_p
                and cert.status == "certified-progression"
                and verify_certificate(sysq, cert))
        ok &= good
        lines.append(f"T={cert.threshold} p={cert.period} {cert.status}"
                     if cert else "inconclusive")
    sys3 = cases[0][0]
    tree = witness_tree(sys3, 0, 12, 20)
    pair = find_pump(tree)
    ok &= pair is not None
    for i in range(0, 4):
        pumped = pump(tree, pair, i)
        ok &= validate_tree(sys3, pumped) is None
        ok &= pumped.value == tree.value + i * pair.delta
    ranks = chain_rank(tree)
    ok &= all(node.value <= 2 ** ranks[path] * sys3.max_base
              for path, node in iter_nodes(tree))
    return ok, lines


def check_decomp(seed):
    ok = decompose(path_graph(3), 1, 2) is not None
    v = Vocabulary((("E", 2),))
    k3 = Structure(v, 3, (frozenset({(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)}),))
    ok &= decompose(k3, 1, 2) is None
    ok &= decompose(incidence_graph(5), 2, 6) is None
    rng = random.Random(seed)
    trials = 0
    for _ in range(15):
        size = rng.randint(1, 4)
        edges = frozenset((a, b) for a in range(size) for b in range(size)
                          if rng.random() < 0.3)
        m = Structure(v, size, (edges,))
        for k, mm in ((1, 2), (2, 2)):
            trials += 1
            if (decompose(m, k, mm) is not None) != naive_decomposable(m, k, mm):
                ok = False
    return ok, [f"oracle-agreement trials={trials}"]


def check_oracle(seed):
    v = Vocabulary((("E", 2),))
    k3 = Structure(v, 3, (frozenset({(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)}),))
    two_col = parse_formula(
        "(existsS X (forall x (forall y (imp (E x y) (iff (in X x) (not (in X y)))))))")
    ok = not eval_formula(k3, two_col)
    ok &= eval_formula(path_graph(3), two_col)
    ok &= not eval_formula(Structure(v, 0), parse_formula("(exists x (= x x))"))
    s1 = random_sentence(v, 2, seed)
    ok &= s1 == random_sentence(v, 2, seed)
    aud = audit_gaps([4, 8], 2, 0)
    ok &= aud.violations == ((4, 8),)
    return ok, ["hand truths + determinism + gaps(4,8)"]


def all_checks(seed: int):
    """(name, check) pairs in report order; each check takes no argument and
    returns (ok, detail lines). The checks share one interner of their own."""
    interner = Interner()
    return [
        ("structures", partial(check_structures, seed)),
        ("theories", partial(check_theories, seed, interner)),
        ("formal-spaces", partial(check_formal, interner)),
        ("addition-theorem", partial(check_addition, seed, interner)),
        ("sentence-agreement", partial(check_sentences, seed, interner)),
        ("closure-spectra", partial(check_closure_spectra, interner)),
        ("numbersets", check_numbersets),
        ("decomposability", partial(check_decomp, seed)),
        ("oracle", partial(check_oracle, seed)),
    ]
