"""Command-line entry point.

Exit codes: 0 success, 1 domain error, 2 budget refusal. All output is
deterministic given the same inputs, config, and seeds; identifiers printed
are stable digests, never process-local. Every command runs in one thread,
on an empty default interner, so nothing computed before ``run`` reaches it.
"""

from __future__ import annotations

import argparse
import sys

from . import selfcheck as _selfcheck_mod
from .composition import (
    enumerate_patterns,
    enumerate_schemes,
    glue,
    parse_scheme,
    pattern_key,
    serialize_scheme,
    table_names,
    transfer,
)
from .config import DEFAULT, load_config
from .closure import close, parse_facts, write_facts
from .decomp import decompose, decomposability_profile, find_small_equivalent
from .errors import BudgetError, HintikkaError, ParseError
from .numbersets import (
    find_period,
    parse_system,
    reach,
    reach_is_exact,
    verify_certificate,
)
from .oracle import eval_formula, parse_formula, spectrum_bruteforce
from .spectra import audit_gaps, induce_system_from_facts, spectrum_from_facts
from .structures import (
    Structure,
    Vocabulary,
    incidence_graph,
    parse_structure,
    parse_vocab_sig,
    serialize_structure,
)
from .theory import compute_theory, default_interner, reset_default_interner, small_model_theories


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str = None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_model(path: str) -> Structure:
    return parse_structure(_read(path))


def _vocab_from_args(args) -> Vocabulary:
    return Vocabulary(parse_vocab_sig(args.vocab),
                      getattr(args, "consts", 0) or 0,
                      getattr(args, "sets", 0) or 0)


def cmd_theory(args, config):
    m = _load_model(args.model)
    t = compute_theory(m, args.depth, config=config)
    out = t.dump() if args.dump else t.dump().partition("\n")[0] + "\n"
    _emit(out, args.out)
    return 0


def cmd_pattern_dump(args, config):
    vocab = _vocab_from_args(args)
    scheme = parse_scheme(_read(args.scheme))
    names = [args.pred] if args.pred else table_names(vocab.predicates, vocab.num_sets)
    lines = []
    for name in names:
        for pattern in enumerate_patterns(vocab, scheme, name):
            lines.append(pattern_key(pattern))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_glue(args, config):
    m1 = _load_model(args.left)
    m2 = _load_model(args.right)
    scheme = parse_scheme(_read(args.scheme))
    _emit(serialize_structure(glue(m1, m2, scheme)), args.out)
    return 0


def cmd_check_addition(args, config):
    m1 = _load_model(args.left)
    m2 = _load_model(args.right)
    scheme = parse_scheme(_read(args.scheme))
    t1 = compute_theory(m1, args.depth, config=config)
    t2 = compute_theory(m2, args.depth, config=config)
    via_transfer = transfer(t1, t2, scheme)
    direct = compute_theory(glue(m1, m2, scheme), args.depth, config=config)
    if via_transfer is direct:
        _emit(f"OK digest={direct.digest}\n", args.out)
        return 0
    _emit(f"MISMATCH transfer={via_transfer.digest} direct={direct.digest}\n", args.out)
    return 1


def cmd_schemes_enumerate(args, config):
    vocab = _vocab_from_args(args)
    schemes = enumerate_schemes(vocab, args.k1, args.k2, args.k,
                                args.kstar, args.budget, config)
    blocks = [f"# total {len(schemes)}"]
    for s in schemes:
        blocks.append(serialize_scheme(s))
    _emit("\n".join(blocks) + "\n", args.out)
    return 0


def cmd_closure(args, config):
    vocab = _vocab_from_args(args)
    interner = default_interner()
    schemes = [parse_scheme(_read(path)) for path in args.scheme]
    base = {}
    if args.base_model:
        for path in args.base_model:
            m = _load_model(path)
            if (m.vocab.predicates, m.vocab.num_sets) != (vocab.predicates, vocab.num_sets):
                raise HintikkaError(
                    f"base model {path} has signature {m.vocab.sig()} sets={m.vocab.num_sets}, "
                    f"but --vocab/--sets give {vocab.sig()} sets={vocab.num_sets}")
            t = compute_theory(m, args.depth, interner, config)
            base.setdefault(m.vocab.num_consts, []).append((t, m.size, m))
    if args.small_models is not None:
        if args.small_models < 0:
            raise HintikkaError(f"--small-models={args.small_models} is not a natural number")
        for k in range(args.small_models + 1):
            sm = small_model_theories(vocab.with_consts(k), args.depth,
                                      args.small_models, interner, config)
            entries = base.setdefault(k, [])
            for tid, sizes in sm.entries:
                for size in sizes:
                    entries.append((interner.rec(tid), size, sm.witnesses.get(tid)))
    if not base:
        raise HintikkaError("no base: give --base-model and/or --small-models")
    state = close(base, schemes, args.depth, args.max_iter)
    summary = [f"closure status={state.status} iterations={state.iterations} "
               f"facts={len(state.facts)}"]
    for k in sorted(state.per_k):
        summary.append(f"reachable k={k}: {len(state.per_k[k])}")
    facts_text = write_facts(state)
    if args.facts_out:
        with open(args.facts_out, "w", encoding="utf-8") as fh:
            fh.write(facts_text)
    else:
        summary.append(facts_text.rstrip("\n"))
    _emit("\n".join(summary) + "\n", args.out)
    return 0


def cmd_spectrum(args, config):
    base, facts = parse_facts(_read(args.facts))
    induced = induce_system_from_facts(base, facts)
    digests = [args.theory] if args.theory else induced[1]
    lines = []
    for digest in digests:
        report = spectrum_from_facts(base, facts, digest, args.bound, config,
                                     induced=induced)
        lines.append(report.describe())
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_periodicity(args, config):
    sys_ = parse_system(_read(args.system), config)
    cert = find_period(sys_, args.label, args.scan, args.window, config)
    if cert is None:
        _emit(f"inconclusive label={args.label} scan={args.scan} window={args.window}\n",
              args.out)
        return 1
    verified = verify_certificate(sys_, cert)
    _emit(cert.describe() + f" reverified={'yes' if verified else 'NO'}\n", args.out)
    return 0


def cmd_system_reach(args, config):
    sys_ = parse_system(_read(args.system), config)
    rr = reach(sys_, args.bound, args.slack)
    lines = [f"reach bound={rr.bound} slack={rr.slack} "
             f"slack_stable={'yes' if rr.slack_stable else 'no'} "
             f"exact={'yes' if reach_is_exact(sys_, args.bound) else 'no'}"]
    for label in range(sys_.m):
        vals = ",".join(map(str, rr.values(label))) or "-"
        lines.append(f"label {label}: {vals}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_decompose(args, config):
    m = _load_model(args.model)
    split = decompose(m, args.k, args.m, config)
    if split is None:
        _emit("NONE\n", args.out)
    else:
        a1 = ",".join(map(str, sorted(split.a1)))
        a2 = ",".join(map(str, sorted(split.a2)))
        _emit(f"SPLIT A1={{{a1}}} A2={{{a2}}}\n", args.out)
    return 0


def cmd_decompose_profile(args, config):
    structures = [_load_model(p) for p in args.models]
    rows = decomposability_profile(structures, args.k, args.m, config)
    lines = []
    for path, row in zip(args.models, rows):
        verdict = "decomposable" if row.decomposable else "none"
        lines.append(f"{path} size={row.size} {verdict}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_incidence(args, config):
    _emit(serialize_structure(incidence_graph(args.n)), args.out)
    return 0


def cmd_smalleq(args, config):
    m = _load_model(args.model)
    found = find_small_equivalent(m, args.depth, args.size_max, config=config)
    if found is None:
        _emit("NONE\n", args.out)
    else:
        _emit(serialize_structure(found), args.out)
    return 0


def cmd_gaps(args, config):
    if args.sizes_file:
        raw = _read(args.sizes_file)
    elif args.sizes is not None:
        raw = args.sizes
    else:
        raise HintikkaError("give --sizes or --sizes-file")
    try:
        sizes = [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ParseError(f"sizes must be integers: {exc}") from None
    if any(size < 0 for size in sizes):
        raise ParseError(f"sizes must be natural numbers, got {min(sizes)}")
    result = audit_gaps(sizes, args.ratio, args.threshold)
    _emit(result.describe() + "\n", args.out)
    return 0


def cmd_oracle_eval(args, config):
    m = _load_model(args.model)
    phi = parse_formula(_read(args.formula_file) if args.formula_file else args.formula)
    value = eval_formula(m, phi, config=config)
    _emit(("true" if value else "false") + "\n", args.out)
    return 0


def cmd_oracle_spectrum(args, config):
    vocab = _vocab_from_args(args)
    phi = parse_formula(_read(args.formula_file) if args.formula_file else args.formula)
    sizes = spectrum_bruteforce(phi, vocab, args.max_size, config)
    _emit(",".join(map(str, sorted(sizes))) + "\n", args.out)
    return 0


def cmd_selfcheck(args, config):
    checks = _selfcheck_mod.all_checks(args.seed)
    lines = []
    failures = 0
    for name, fn in checks:
        ok, detail = fn()
        status = "ok" if ok else "FAIL"
        if not ok:
            failures += 1
        lines.append(f"check {name}: {status}")
        lines.extend(f"  {d}" for d in detail)
    lines.append(f"selfcheck {'ok' if failures == 0 else 'FAILED'} "
                 f"checks={len(checks)} failures={failures}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hintikka",
        description="Depth-n monadic theories, gluing, closure, spectra, and "
                    "periodicity certificates for finite relational structures.")
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write output to a file instead of stdout")
        return p

    p = add("theory", cmd_theory, help="depth-n theory digest of a structure")
    p.add_argument("--model", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--dump", action="store_true")

    p = add("pattern-dump", cmd_pattern_dump,
            help="canonical pattern strings for a scheme configuration")
    p.add_argument("--vocab", required=True)
    p.add_argument("--sets", type=int, default=0)
    p.add_argument("--scheme", required=True)
    p.add_argument("--pred")

    p = add("glue", cmd_glue, help="amalgamate two structures along a scheme")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--scheme", required=True)

    p = add("check-addition", cmd_check_addition,
            help="transfer vs direct theory of the glued structure")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--depth", type=int, required=True)

    p = add("schemes-enumerate", cmd_schemes_enumerate,
            help="all schemes at a constant signature (budget-guarded)")
    p.add_argument("--vocab", required=True)
    p.add_argument("--sets", type=int, default=0)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kstar", type=int, required=True)
    p.add_argument("--budget", type=int)

    p = add("closure", cmd_closure, help="fixpoint closure under scheme transfers")
    p.add_argument("--vocab", required=True)
    p.add_argument("--sets", type=int, default=0)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--scheme", action="append", default=[], required=True)
    p.add_argument("--base-model", action="append", default=[])
    p.add_argument("--small-models", type=int,
                   help="also include all models with <= K elements, per "
                        "constant count up to K")
    p.add_argument("--max-iter", type=int, default=64)
    p.add_argument("--facts-out")

    p = add("spectrum", cmd_spectrum, help="sizes and certificate per theory digest")
    p.add_argument("--facts", required=True)
    p.add_argument("--theory")
    p.add_argument("--bound", type=int, required=True)

    p = add("periodicity", cmd_periodicity, help="eventual-periodicity certificate")
    p.add_argument("--system", required=True)
    p.add_argument("--label", type=int, required=True)
    p.add_argument("--scan", type=int, required=True)
    p.add_argument("--window", type=int, required=True)

    p = add("system-reach", cmd_system_reach, help="reachable values per label")
    p.add_argument("--system", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--slack", type=int)

    p = add("decompose", cmd_decompose, help="weak (k,m)-decomposition of one structure")
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = add("decompose-profile", cmd_decompose_profile,
            help="decomposability table for a family")
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = add("incidence", cmd_incidence, help="incidence graph of the complete graph K_n")
    p.add_argument("--n", type=int, required=True)

    p = add("smalleq", cmd_smalleq, help="small structure with the same depth-d theory")
    p.add_argument("--model", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--size-max", type=int, required=True)

    p = add("gaps", cmd_gaps, help="audit successive-gap ratios of a size list")
    p.add_argument("--sizes")
    p.add_argument("--sizes-file")
    p.add_argument("--ratio", required=True)
    p.add_argument("--threshold", type=int, default=0)

    p = add("oracle-eval", cmd_oracle_eval, help="evaluate an MSO sentence on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--formula")
    p.add_argument("--formula-file")

    p = add("oracle-spectrum", cmd_oracle_spectrum,
            help="brute-force spectrum of a sentence")
    p.add_argument("--vocab", required=True)
    p.add_argument("--consts", type=int, default=0)
    p.add_argument("--sets", type=int, default=0)
    p.add_argument("--formula")
    p.add_argument("--formula-file")
    p.add_argument("--max-size", type=int, required=True)

    p = add("selfcheck", cmd_selfcheck, help="run the invariant suite at desk scale")
    p.add_argument("--seed", type=int, default=2024)

    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    reset_default_interner()        # the output depends on the arguments alone
    try:
        config = load_config(args.config) if args.config else DEFAULT
        return args.fn(args, config)
    except BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (HintikkaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
