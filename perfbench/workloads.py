"""The four benchmark workloads: inputs from a seed, the timed call, the check.

Each workload has three steps, run by ``child.py`` in a fresh interpreter:

* ``prepare(seed, size, workdir, shared)`` builds the inputs (set-up, untimed
  by ``wall_s``, counted in ``setup_s``); ``shared`` is the directory where
  the workload's optional ``share(size, shared)`` step, run once per run in
  a child of its own, left the inputs that need calls into ``hintikka``;
* ``run(inputs, tracer)`` makes the timed calls into ``hintikka``;
* ``check(inputs, output, expected, recheck)`` checks the output after the
  timed window and returns a ``Checked`` record; ``recheck`` asks for the
  costly checks that one repetition per run makes.

Functions are always looked up as module attributes at call time
(``composition.transfer``, never a name imported up front), so the tracer's
wrappers see every call. Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
import time
from dataclasses import dataclass, field

from hintikka import cli, closure, composition, numbersets, spectra, structures, theory


@dataclass
class Checked:
    attempted: int
    failed: int
    hashes: dict                      # part name -> sha256 of the visible output
    errors: list = field(default_factory=list)
    items_ms: list = None             # per-instance latency (addition only)
    stdout_bytes: int = 0


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def compare_hashes(hashes, expected, errors):
    """Names of parts whose hash differs from the recorded one.

    ``expected`` is None when nothing is recorded for these inputs (an
    addition seed outside the recorded range): the per-instance oracle check
    is then the only gate.
    """
    if expected is None:
        return []
    bad = [name for name, h in hashes.items() if expected.get(name) != h]
    for name in bad:
        errors.append(f"output hash of {name!r} differs from the recorded value")
    return bad


def run_cli(argv):
    """``hintikka.cli.run`` in-process, with its stdout captured."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
    except SystemExit as exc:          # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# addition: transfer(...) against compute_theory(glue(...)), seeded stream
# ---------------------------------------------------------------------------

GRAPHS = (("E", 2),)
COLOURED = (("S", 1), ("E", 2))
VOCABS = ((GRAPHS, 0), (GRAPHS, 1), (COLOURED, 0), (COLOURED, 1))
KINDS = ("union", "table")
CONST_PAIRS = tuple(itertools.product(range(3), repeat=2))
# rows of (depth, left part size, right part size, instances)
ADDITION_PLAN = {
    "full": ((0, 4, 3, 36), (1, 3, 2, 18), (2, 2, 2, 10)),
    "small": ((0, 3, 2, 8), (1, 2, 2, 4), (2, 2, 1, 2)),
}
# The parts and scheme shapes come from this fixed seed; the workload seed
# relabels the elements of every part and picks the PRF table seeds. Cost
# then hardly depends on the workload seed. Drawing the parts from the
# workload seed made the stream's time swing by 15% (quartile spread over 8
# seeds): the cost of one instance varies by 10x with its relations, and a
# depth-2 PRF instance with two 3-element parts took 40 s.
SHAPE_SEED = 20240817


def _shapes(count):
    """``count`` (kind, vocab, (k1, k2)) shapes: the kinds alternate, and
    the 36 (vocab, constants) cells are spread evenly."""
    cells = list(itertools.product(VOCABS, CONST_PAIRS))
    return [(KINDS[i % 2],) + cells[i * len(cells) // count] for i in range(count)]


def _rand_structure(vocab, size, rng):
    rels = []
    for _, arity in vocab.predicates:
        rels.append(frozenset(t for t in itertools.product(range(size), repeat=arity)
                              if rng.random() < 0.4))
    consts = tuple(rng.sample(range(size), vocab.num_consts))
    sets = tuple(frozenset(e for e in range(size) if rng.random() < 0.5)
                 for _ in range(vocab.num_sets))
    return structures.Structure(vocab, size, tuple(rels), consts, sets)


def _scheme_shape(k1, k2, rng):
    """(k, ident, keep1, keep2, result) of a random scheme."""
    ident = ((0, 0),) if (k1 and k2 and rng.random() < 0.5) else ()
    keep1, keep2 = [True] * k1, [True] * k2
    ents = composition.Scheme(k1, k2, 0, ident).entities()
    if ents and rng.random() < 0.35:
        ref = rng.choice([ref for ref, _ in ents])
        if ref[0] == "s":
            keep1[ref[1]] = keep2[ref[2]] = False
        elif ref[0] == "1":
            keep1[ref[1]] = False
        else:
            keep2[ref[1]] = False
    kept = composition.Scheme(k1, k2, 0, ident, tuple(keep1), tuple(keep2)).kept_refs()
    k = rng.randint(0, min(2, len(kept)))
    return k, ident, tuple(keep1), tuple(keep2), tuple(rng.sample(list(kept), k))


def _relabel(m, rng):
    pi = list(range(m.size))
    rng.shuffle(pi)
    return structures.apply_permutation(m, pi)


def addition_prepare(seed, size, workdir, shared):
    shape_rng, rng = random.Random(SHAPE_SEED), random.Random(seed)
    instances = []
    for depth, left, right, count in ADDITION_PLAN[size]:
        for kind, (preds, nsets), (k1, k2) in _shapes(count):
            v1 = structures.Vocabulary(preds, k1, nsets)
            v2 = structures.Vocabulary(preds, k2, nsets)
            k, ident, keep1, keep2, result = _scheme_shape(k1, k2, shape_rng)
            m1 = _rand_structure(v1, max(left, k1), shape_rng)
            m2 = _rand_structure(v2, max(right, k2), shape_rng)
            if kind == "union":
                scheme = composition.plain_union_scheme(k1, k2, k, ident, keep1, keep2,
                                                        result)
            else:
                scheme = composition.random_table_scheme(
                    v1, k1, k2, k, rng.randrange(10 ** 6), ident, keep1, keep2, result)
            instances.append((depth, _relabel(m1, rng), _relabel(m2, rng), scheme))
    return instances


def addition_run(instances, tracer):
    interner = theory.default_interner()
    results = []
    clock = time.perf_counter
    for idx, (depth, m1, m2, scheme) in enumerate(instances):
        if tracer is not None:
            tracer.trace_id = idx
        t0 = clock()
        t1 = theory.compute_theory(m1, depth, interner)
        t2 = theory.compute_theory(m2, depth, interner)
        via_transfer = composition.transfer(t1, t2, scheme, interner)
        glued = composition.glue(m1, m2, scheme)
        direct = theory.compute_theory(glued, depth, interner)
        results.append((via_transfer.intern_id, direct.intern_id, (clock() - t0) * 1e3))
    return results


def addition_check(instances, results, expected, recheck):
    interner = theory.default_interner()
    errors = []
    failed = 0
    digests = []
    for idx, (via_transfer, direct, _) in enumerate(results):
        if via_transfer != direct:
            failed += 1
            errors.append(f"instance {idx}: transfer differs from the glued oracle")
        digests.append(interner.rec(direct).digest)
    hashes = {"digests": sha("\n".join(digests))}
    if compare_hashes(hashes, expected, errors):
        failed = len(results)
    return Checked(len(results), failed, hashes, errors,
                   items_ms=[ms for _, _, ms in results])


# ---------------------------------------------------------------------------
# closure-paths: ROADMAP W6, the glue-paths depth-1 closure, three sweeps
# ---------------------------------------------------------------------------

P2_TEXT = """vocab E/2
consts 2
size 2
const 0 = 0
const 1 = 1
rel E: (0,1) (1,0)
"""
CHAIN_TEXT = "scheme k1=2 k2=2 k=2\nident 1~0\nresult 0=1.0 1=2.1\n"
DISJOINT_TEXT = "scheme k1=0 k2=0 k=0\n"


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def closure_prepare(seed, size, workdir, shared):
    sweeps = "3" if size == "full" else "1"
    facts = workdir / "paths.facts"
    argv = ["closure", "--vocab", "E/2", "--depth", "1",
            "--scheme", _write(workdir / "chain.scm", CHAIN_TEXT),
            "--base-model", _write(workdir / "p2.struct", P2_TEXT),
            "--max-iter", sweeps, "--facts-out", str(facts)]
    return argv, facts


def closure_run(inputs, tracer):
    argv, _ = inputs
    return run_cli(argv)


def closure_check(inputs, output, expected, recheck):
    _, facts = inputs
    code, stdout = output
    errors = []
    if code != 0:
        return Checked(1, 1, {}, [f"closure exited with code {code}"])
    hashes = {"stdout": sha(stdout), "facts": sha(facts.read_bytes())}
    failed = 1 if compare_hashes(hashes, expected, errors) else 0
    return Checked(1, failed, hashes, errors, stdout_bytes=len(stdout.encode("utf-8")))


# ---------------------------------------------------------------------------
# spectrum: whole facts file of the depth-0 disjoint-union closure
# ---------------------------------------------------------------------------

def spectrum_share(size, shared):
    """Make the facts file with the closure CLI, once per run."""
    facts = shared / "union.facts"
    if size == "full":
        make = ["closure", "--vocab", "E/2", "--depth", "0",
                "--scheme", _write(shared / "du.scm", DISJOINT_TEXT),
                "--small-models", "1", "--facts-out", str(facts)]
    else:
        make = ["closure", "--vocab", "E/2", "--depth", "0",
                "--scheme", _write(shared / "chain.scm", CHAIN_TEXT),
                "--base-model", _write(shared / "p2.struct", P2_TEXT),
                "--facts-out", str(facts)]
    code, _ = run_cli(make)
    if code != 0:
        raise RuntimeError(f"set-up closure exited with code {code}")


def spectrum_prepare(seed, size, workdir, shared):
    """The facts file of ``spectrum_share``; arrange to keep the reports that
    ``cmd_spectrum`` prints, for the certificate re-check."""
    facts = shared / "union.facts"
    reports = []
    inner = cli.spectrum_from_facts

    def keep_report(*args, **kwargs):
        report = inner(*args, **kwargs)
        reports.append(report)
        return report

    cli.spectrum_from_facts = keep_report
    return ["spectrum", "--facts", str(facts), "--bound", "16"], facts, reports


def spectrum_run(inputs, tracer):
    argv, _, _ = inputs
    return run_cli(argv)


def spectrum_check(inputs, output, expected, recheck):
    """Hash of stdout; with ``recheck``, every certificate is also verified
    again from the facts (once per run: the hash pins the rest)."""
    _, facts, reports = inputs
    code, stdout = output
    if code != 0:
        return Checked(1, 1, {}, [f"spectrum exited with code {code}"])
    errors = []
    facts_text = facts.read_text(encoding="utf-8")
    hashes = {"facts": sha(facts_text), "stdout": sha(stdout)}
    attempted = len(reports)
    if compare_hashes(hashes, expected, errors):
        return Checked(attempted, attempted, hashes, errors)
    if "\n".join(r.describe() for r in reports) + "\n" != stdout:
        errors.append("kept reports do not match the printed spectra")
        return Checked(attempted, attempted, hashes, errors)
    stdout_bytes = len(stdout.encode("utf-8"))
    if not recheck:
        return Checked(attempted, 0, hashes, errors, stdout_bytes=stdout_bytes)
    system, _ = spectra.induce_system_from_facts(*closure.parse_facts(facts_text))
    failed = 0
    for report in reports:
        cert = report.certificate
        if cert is not None and not numbersets.verify_certificate(system, cert):
            failed += 1
            errors.append(f"certificate of {report.digest} fails re-verification")
    return Checked(attempted, failed, hashes, errors, stdout_bytes=stdout_bytes)


# ---------------------------------------------------------------------------
# census: small_model_theories over every labelled E/2 structure, size <= 3
# ---------------------------------------------------------------------------

CENSUS_PASSES = {
    # (constants, depth, largest size)
    "full": ((2, 0, 3), (1, 1, 3)),
    "small": ((2, 0, 2), (1, 1, 2)),
}


def census_prepare(seed, size, workdir, shared):
    return [(structures.Vocabulary(GRAPHS, consts), depth, k_star)
            for consts, depth, k_star in CENSUS_PASSES[size]]


def census_run(passes, tracer):
    return [theory.small_model_theories(vocab, depth, k_star)
            for vocab, depth, k_star in passes]


def census_check(passes, output, expected, recheck):
    interner = theory.default_interner()
    hashes = {}
    for (vocab, depth, _), sm in zip(passes, output):
        # witnesses are left out: isomorph-free enumeration may change them
        pairs = sorted((interner.rec(tid).digest, sizes) for tid, sizes in sm.entries)
        hashes[f"k{vocab.num_consts}-n{depth}"] = sha(repr(pairs))
    errors = []
    bad = compare_hashes(hashes, expected, errors)
    return Checked(len(passes), len(bad), hashes, errors)


@dataclass(frozen=True)
class Workload:
    prepare: object
    run: object
    check: object
    uses_seed: bool
    grows_interner: bool
    share: object = None


WORKLOADS = {
    "addition": Workload(addition_prepare, addition_run, addition_check, True, True),
    "closure-paths": Workload(closure_prepare, closure_run, closure_check, False, True),
    "spectrum": Workload(spectrum_prepare, spectrum_run, spectrum_check, False, False,
                         spectrum_share),
    "census": Workload(census_prepare, census_run, census_check, False, True),
}
