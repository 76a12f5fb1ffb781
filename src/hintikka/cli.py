"""Command-line entry point.

Exit codes: 0 success, 1 domain error, 2 budget refusal. All output is
deterministic given the same inputs, config, and seeds; identifiers printed
are stable digests, never process-local. Every command runs in one thread
and hands the library the default interner, which ``run`` empties first.

A command imports only what it runs: the oracle, the decomposition search
and the self-check load inside their commands. ``run`` builds the parser of
the one subcommand that ``argv`` names (``COMMANDS`` holds each one's
options); when ``argv`` names none first, or that parser refuses it, the
full parser parses it again, so help, usage and error text and exit codes
are the full parser's.
"""

from __future__ import annotations

import argparse
import sys

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
from .errors import BudgetError, HintikkaError, ParseError
from .numbersets import (
    find_period,
    parse_system,
    reach,
    reach_is_exact,
    verify_certificate,
)
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
    t = compute_theory(m, args.depth, default_interner(), config)
    out = t.dump() if args.dump else t.dump().partition("\n")[0] + "\n"
    _emit(out, args.out)
    return 0


def cmd_pattern_dump(args, config):
    vocab = _vocab_from_args(args)
    scheme = parse_scheme(_read(args.scheme))
    names = [args.pred] if args.pred else table_names(vocab.predicates, vocab.num_sets)
    if not names:
        raise HintikkaError("no table: the vocabulary has no predicate and no set column")
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
    interner = default_interner()
    t1, t2 = (compute_theory(m, args.depth, interner, config) for m in (m1, m2))
    via_transfer = transfer(t1, t2, scheme)
    direct = compute_theory(glue(m1, m2, scheme), args.depth, interner, config)
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
    if not any(base.values()):
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
    if not digests:
        raise HintikkaError(f"facts file {args.facts} has no base or fact line: no theory")
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
    exact = reach_is_exact(sys_, args.scan)
    _emit(cert.describe() + f" reverified={'yes' if verified else 'NO'}"
          f" exact={'yes' if exact else 'no'}\n", args.out)
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
    from .decomp import decompose
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
    from .decomp import decomposability_profile
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
    from .decomp import find_small_equivalent
    m = _load_model(args.model)
    found = find_small_equivalent(m, args.depth, args.size_max, default_interner(), config)
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
    from .oracle import eval_formula, parse_formula
    m = _load_model(args.model)
    phi = parse_formula(_read(args.formula_file) if args.formula_file else args.formula)
    value = eval_formula(m, phi, config=config)
    _emit(("true" if value else "false") + "\n", args.out)
    return 0


def cmd_oracle_spectrum(args, config):
    from .oracle import parse_formula, spectrum_bruteforce
    vocab = _vocab_from_args(args)
    phi = parse_formula(_read(args.formula_file) if args.formula_file else args.formula)
    sizes = spectrum_bruteforce(phi, vocab, args.max_size, config)
    _emit((",".join(map(str, sorted(sizes))) or "-") + "\n", args.out)
    return 0


def cmd_selfcheck(args, config):
    from .selfcheck import all_checks
    checks = all_checks(args.seed)
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


_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}
_SETS = ("--sets", {"type": int, "default": 0})

# name -> (function, help line, options as (flag, add_argument keywords));
# every command also takes --out
COMMANDS = {
    "theory": (cmd_theory, "depth-n theory digest of a structure", (
        ("--model", _REQUIRED), ("--depth", _REQUIRED_INT), ("--dump", {"action": "store_true"}))),
    "pattern-dump": (cmd_pattern_dump, "canonical pattern strings for a scheme configuration", (
        ("--vocab", _REQUIRED), _SETS, ("--scheme", _REQUIRED), ("--pred", {}))),
    "glue": (cmd_glue, "amalgamate two structures along a scheme", (
        ("--left", _REQUIRED), ("--right", _REQUIRED), ("--scheme", _REQUIRED))),
    "check-addition": (cmd_check_addition, "transfer vs direct theory of the glued structure", (
        ("--left", _REQUIRED), ("--right", _REQUIRED), ("--scheme", _REQUIRED),
        ("--depth", _REQUIRED_INT))),
    "schemes-enumerate": (
        cmd_schemes_enumerate, "all schemes at a constant signature (budget-guarded)", (
            ("--vocab", _REQUIRED), _SETS, ("--k1", _REQUIRED_INT), ("--k2", _REQUIRED_INT),
            ("--k", _REQUIRED_INT), ("--kstar", _REQUIRED_INT), ("--budget", {"type": int}))),
    "closure": (cmd_closure, "fixpoint closure under scheme transfers", (
        ("--vocab", _REQUIRED), _SETS, ("--depth", _REQUIRED_INT),
        ("--scheme", {"action": "append", "required": True}),
        ("--base-model", {"action": "append"}),
        ("--small-models", {"type": int, "help": "also include all models with <= K elements, "
                                                 "per constant count up to K"}),
        ("--max-iter", {"type": int, "default": 64}), ("--facts-out", {}))),
    "spectrum": (cmd_spectrum, "sizes and certificate per theory digest", (
        ("--facts", _REQUIRED), ("--theory", {}), ("--bound", _REQUIRED_INT))),
    "periodicity": (cmd_periodicity, "eventual-periodicity certificate", (
        ("--system", _REQUIRED), ("--label", _REQUIRED_INT), ("--scan", _REQUIRED_INT),
        ("--window", _REQUIRED_INT))),
    "system-reach": (cmd_system_reach, "reachable values per label", (
        ("--system", _REQUIRED), ("--bound", _REQUIRED_INT), ("--slack", {"type": int}))),
    "decompose": (cmd_decompose, "weak (k,m)-decomposition of one structure", (
        ("--model", _REQUIRED), ("--k", _REQUIRED_INT), ("--m", _REQUIRED_INT))),
    "decompose-profile": (cmd_decompose_profile, "decomposability table for a family", (
        ("--models", {"nargs": "+", "required": True}), ("--k", _REQUIRED_INT),
        ("--m", _REQUIRED_INT))),
    "incidence": (cmd_incidence, "incidence graph of the complete graph K_n", (
        ("--n", _REQUIRED_INT),)),
    "smalleq": (cmd_smalleq, "small structure with the same depth-d theory", (
        ("--model", _REQUIRED), ("--depth", _REQUIRED_INT), ("--size-max", _REQUIRED_INT))),
    "gaps": (cmd_gaps, "audit successive-gap ratios of a size list", (
        ("--sizes", {}), ("--sizes-file", {}), ("--ratio", _REQUIRED),
        ("--threshold", {"type": int, "default": 0}))),
    "oracle-eval": (cmd_oracle_eval, "evaluate an MSO sentence on a model", (
        ("--model", _REQUIRED), ("--formula", {}), ("--formula-file", {}))),
    "oracle-spectrum": (cmd_oracle_spectrum, "brute-force spectrum of a sentence", (
        ("--vocab", _REQUIRED), ("--consts", {"type": int, "default": 0}), _SETS,
        ("--formula", {}), ("--formula-file", {}), ("--max-size", _REQUIRED_INT))),
    "selfcheck": (cmd_selfcheck, "run the invariant suite at desk scale", (
        ("--seed", {"type": int, "default": 2024}),)),
}


def build_parser(names=tuple(COMMANDS), parser_class=argparse.ArgumentParser):
    """The argument parser with the subcommands ``names``, in that order."""
    parser = parser_class(
        prog="hintikka",
        description="Depth-n monadic theories, gluing, closure, spectra, and "
                    "periodicity certificates for finite relational structures.")
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        fn, help_line, options = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write output to a file instead of stdout")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


class _Misparsed(Exception):
    pass


class _OneCommandParser(argparse.ArgumentParser):
    """Raises where argparse would print an error, so that the full parser
    parses again and prints its own message and usage."""

    def error(self, message):
        raise _Misparsed(message)


def parse_args(argv):
    """``build_parser().parse_args(argv)``, with only the subcommand that
    ``argv`` names built where that parser accepts ``argv``; every other
    case (no command first, or an error) goes to the full parser, so help,
    usage and error text are the full parser's."""
    if argv and argv[0] in COMMANDS:
        try:
            return build_parser(argv[:1], _OneCommandParser).parse_args(argv)
        except _Misparsed:
            pass
    return build_parser().parse_args(argv)


def run(argv) -> int:
    args = parse_args(argv)
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
