"""Ground-truth brute force: MSO formulas, exhaustive evaluation, spectra.

Formulas are plain trees; evaluation enumerates assignments, so budgets are
enforced before set quantifiers explode. The random generator emits closed
sentences in the fragment a depth-d theory decides: up to d nested set
quantifiers around uniform first-order blocks of at most arity+1 variables.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

from .config import DEFAULT, Config
from .errors import HintikkaError, ParseError
from .structures import Structure, Vocabulary


# terms
@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Cst:
    index: int


# set references
@dataclass(frozen=True)
class PSet:
    index: int


@dataclass(frozen=True)
class SVar:
    name: str


# formulas
@dataclass(frozen=True)
class Rel:
    name: str
    terms: tuple


@dataclass(frozen=True)
class Eq:
    left: object
    right: object


@dataclass(frozen=True)
class InSet:
    sref: object
    term: object


@dataclass(frozen=True)
class Not:
    body: object


@dataclass(frozen=True)
class And:
    parts: tuple


@dataclass(frozen=True)
class Or:
    parts: tuple


@dataclass(frozen=True)
class Imp:
    left: object
    right: object


@dataclass(frozen=True)
class Iff:
    left: object
    right: object


@dataclass(frozen=True)
class ExistsFO:
    var: str
    body: object


@dataclass(frozen=True)
class ForallFO:
    var: str
    body: object


@dataclass(frozen=True)
class ExistsSet:
    var: str
    body: object


@dataclass(frozen=True)
class ForallSet:
    var: str
    body: object


def _children(phi):
    if isinstance(phi, Not):
        return (phi.body,)
    if isinstance(phi, (And, Or)):
        return phi.parts
    if isinstance(phi, (Imp, Iff)):
        return (phi.left, phi.right)
    if isinstance(phi, (ExistsFO, ForallFO, ExistsSet, ForallSet)):
        return (phi.body,)
    return ()


def quantifier_depth(phi) -> int:
    inner = max((quantifier_depth(c) for c in _children(phi)), default=0)
    if isinstance(phi, (ExistsFO, ForallFO, ExistsSet, ForallSet)):
        return inner + 1
    return inner


def set_depth(phi) -> int:
    inner = max((set_depth(c) for c in _children(phi)), default=0)
    if isinstance(phi, (ExistsSet, ForallSet)):
        return inner + 1
    return inner


def fragment_depth(phi, r: int):
    """Least d such that a depth-d theory decides phi, or None.

    The decidable fragment: boolean combinations of set-quantified
    subformulas, bottoming out in uniform first-order blocks (a chain of
    only-exists or only-forall quantifiers over at most r variables with a
    quantifier-free matrix).
    """
    if isinstance(phi, (Not, And, Or, Imp, Iff)):
        depths = [fragment_depth(c, r) for c in _children(phi)]
        return None if any(d is None for d in depths) else max(depths, default=0)
    if isinstance(phi, (ExistsSet, ForallSet)):
        inner = fragment_depth(phi.body, r)
        return None if inner is None else inner + 1
    return 0 if _is_fo_block(phi, r) else None


def _is_fo_block(phi, r: int) -> bool:
    kind = None
    nvars = 0
    while isinstance(phi, (ExistsFO, ForallFO)):
        k = type(phi)
        if kind is not None and k is not kind:
            return False
        kind = k
        nvars += 1
        phi = phi.body
    return nvars <= r and quantifier_depth(phi) == 0


def _check_formula(phi, vocab: Vocabulary, fo=frozenset(), so=frozenset()) -> None:
    """Refuse a formula that does not fit ``vocab``, before any evaluation
    (which short-circuits, so it may never reach a bad atom): a relation
    atom names a predicate with its number of terms, every ``c<i>`` and
    ``P<j>`` exists, and every variable is bound (``fo`` and ``so`` hold the
    bound first-order and set variables)."""
    if isinstance(phi, (ExistsFO, ForallFO)):
        fo = fo | {phi.var}
    elif isinstance(phi, (ExistsSet, ForallSet)):
        so = so | {phi.var}
    terms, fault = (), None
    if isinstance(phi, Rel):
        terms, arity = phi.terms, dict(vocab.predicates).get(phi.name)
        if arity is None:
            fault = f"no predicate {phi.name} in the vocabulary {vocab.sig()}"
        elif arity != len(terms):
            fault = f"{phi.name} takes {arity} terms, not {len(terms)}"
    elif isinstance(phi, Eq):
        terms = (phi.left, phi.right)
    elif isinstance(phi, InSet):
        terms, sref = (phi.term,), phi.sref
        if isinstance(sref, PSet) and sref.index >= vocab.num_sets:
            fault = f"no set P{sref.index}: the vocabulary has {vocab.num_sets} sets"
        elif isinstance(sref, SVar) and sref.name not in so:
            fault = f"unbound set variable {sref.name}"
    for t in terms:
        if isinstance(t, Cst) and t.index >= vocab.num_consts:
            fault = fault or (f"no constant c{t.index}: the vocabulary has "
                              f"{vocab.num_consts} constants")
        elif isinstance(t, Var) and t.name not in fo:
            fault = fault or f"unbound variable {t.name}"
    if fault is not None:
        raise HintikkaError(f"atom {format_formula(phi)}: {fault}")
    for child in _children(phi):
        _check_formula(child, vocab, fo, so)


def eval_formula(m: Structure, phi, config: Config = DEFAULT) -> bool:
    """Standard MSO satisfaction by exhaustive assignment enumeration; a
    formula that does not fit the structure's vocabulary is refused."""
    _check_formula(phi, m.vocab)
    sd = set_depth(phi)
    fo_d = quantifier_depth(phi) - sd
    bits = m.size * sd + fo_d * max(1, m.size.bit_length())
    config.check("eval_bits", bits, config.eval_bits_max)
    universe = range(m.size)

    def term_val(t, env):
        return m.consts[t.index] if isinstance(t, Cst) else env[("v", t.name)]

    def set_val(s, env):
        return m.sets[s.index] if isinstance(s, PSet) else env[("S", s.name)]

    def rec(phi, env):
        if isinstance(phi, Rel):
            tup = tuple(term_val(t, env) for t in phi.terms)
            return tup in m.rel(phi.name)
        if isinstance(phi, Eq):
            return term_val(phi.left, env) == term_val(phi.right, env)
        if isinstance(phi, InSet):
            return term_val(phi.term, env) in set_val(phi.sref, env)
        if isinstance(phi, Not):
            return not rec(phi.body, env)
        if isinstance(phi, And):
            return all(rec(p, env) for p in phi.parts)
        if isinstance(phi, Or):
            return any(rec(p, env) for p in phi.parts)
        if isinstance(phi, Imp):
            return (not rec(phi.left, env)) or rec(phi.right, env)
        if isinstance(phi, Iff):
            return rec(phi.left, env) == rec(phi.right, env)
        if isinstance(phi, ExistsFO):
            return any(rec(phi.body, {**env, ("v", phi.var): e}) for e in universe)
        if isinstance(phi, ForallFO):
            return all(rec(phi.body, {**env, ("v", phi.var): e}) for e in universe)
        if isinstance(phi, (ExistsSet, ForallSet)):
            combine = any if isinstance(phi, ExistsSet) else all
            return combine(
                rec(phi.body, {**env, ("S", phi.var): frozenset(
                    e for e in universe if mask >> e & 1)})
                for mask in range(2 ** m.size)
            )
        raise HintikkaError(f"unknown formula node {phi!r}")

    return rec(phi, {})


def spectrum_bruteforce(phi, vocab: Vocabulary, max_size: int,
                        config: Config = DEFAULT) -> frozenset:
    """Sizes 1..max_size realized by some model of phi (exhaustive search)."""
    from .structures import enumerate_representatives

    if max_size < 0:
        raise HintikkaError("size bound must be a natural number")
    _check_formula(phi, vocab)
    out = set()
    for size in range(1, max_size + 1):
        for m in enumerate_representatives(vocab, size, config):
            if eval_formula(m, phi, config=config):
                out.add(size)
                break
    return frozenset(out)


def random_sentence(vocab: Vocabulary, d: int, seed: int):
    """Deterministic pseudorandom closed sentence of set depth <= d.

    Shape: boolean combinations of set-quantified parts around uniform
    first-order blocks over at most arity+1 variables, so truth is decided
    by the depth-d theory.
    """
    if d > 3:
        raise HintikkaError("random sentences support depth <= 3")
    rng = random.Random(seed)
    r = vocab.arity + 1
    fresh = itertools.count()

    def atom(fo_vars, set_names):
        terms = []
        if fo_vars:
            terms.extend(Var(v) for v in fo_vars)
        terms.extend(Cst(i) for i in range(vocab.num_consts))
        sets = [PSet(j) for j in range(vocab.num_sets)] + [SVar(s) for s in set_names]
        choices = []
        if vocab.predicates and terms:
            choices.append("rel")
        if len(terms) >= 1:
            choices.append("eq")
        if sets and terms:
            choices.append("in")
        if not choices:
            return None
        kind = rng.choice(choices)
        if kind == "rel":
            name, arity = vocab.predicates[rng.randrange(len(vocab.predicates))]
            return Rel(name, tuple(rng.choice(terms) for _ in range(arity)))
        if kind == "eq":
            return Eq(rng.choice(terms), rng.choice(terms))
        return InSet(rng.choice(sets), rng.choice(terms))

    def literal(fo_vars, set_names):
        a = atom(fo_vars, set_names)
        if a is None:
            return None
        return Not(a) if rng.random() < 0.5 else a

    def fo_block(set_names):
        nvars = rng.randint(0, r)
        fo_vars = [f"x{next(fresh)}" for _ in range(nvars)]
        lits = [lit for lit in (literal(fo_vars, set_names) for _ in range(rng.randint(1, 4)))
                if lit is not None]
        if not lits:
            # vocabulary with nothing to say at this scope: a tautology block
            v = f"x{next(fresh)}"
            return ExistsFO(v, Eq(Var(v), Var(v)))
        matrix = lits[0] if len(lits) == 1 else (
            And(tuple(lits)) if rng.random() < 0.7 else Or(tuple(lits)))
        body = matrix
        kind = ExistsFO if rng.random() < 0.7 else ForallFO
        for v in reversed(fo_vars):
            body = kind(v, body)
        return body

    def build(depth, set_names):
        if depth == 0:
            parts = [fo_block(set_names) for _ in range(rng.randint(1, 2))]
        else:
            parts = []
            for _ in range(rng.randint(1, 2)):
                if rng.random() < 0.75:
                    x = f"X{next(fresh)}"
                    inner = build(depth - 1, set_names + [x])
                    parts.append(ExistsSet(x, inner) if rng.random() < 0.7
                                 else ForallSet(x, inner))
                else:
                    parts.append(fo_block(set_names))
        parts = [Not(p) if rng.random() < 0.3 else p for p in parts]
        if len(parts) == 1:
            return parts[0]
        return And(tuple(parts)) if rng.random() < 0.5 else Or(tuple(parts))

    return build(d, [])


# ---------------------------------------------------------------------------
# S-expression reader/printer
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_CONST = re.compile(r"^c(\d+)$")
_PSET = re.compile(r"^P(\d+)$")


def parse_formula(text: str):
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty formula")
    pos = [0]

    def next_tok():
        if pos[0] >= len(tokens):
            raise ParseError("unexpected end of formula")
        tok = tokens[pos[0]]
        pos[0] += 1
        return tok

    def peek():
        if pos[0] >= len(tokens):
            raise ParseError("unexpected end of formula")
        return tokens[pos[0]]

    def parse_term(tok):
        m = _CONST.match(tok)
        return Cst(int(m.group(1))) if m else Var(tok)

    def parse_sref(tok):
        m = _PSET.match(tok)
        return PSet(int(m.group(1))) if m else SVar(tok)

    def parse():
        tok = next_tok()
        if tok != "(":
            raise ParseError(f"expected '(', got {tok!r}")
        head = next_tok()
        if head in ("and", "or"):
            parts = []
            while peek() != ")":
                parts.append(parse())
            next_tok()
            return (And if head == "and" else Or)(tuple(parts))
        if head == "not":
            body = parse()
            _expect_close(next_tok())
            return Not(body)
        if head in ("imp", "iff"):
            left, right = parse(), parse()
            _expect_close(next_tok())
            return (Imp if head == "imp" else Iff)(left, right)
        if head in ("exists", "forall", "existsS", "forallS"):
            var = next_tok()
            body = parse()
            _expect_close(next_tok())
            return {"exists": ExistsFO, "forall": ForallFO,
                    "existsS": ExistsSet, "forallS": ForallSet}[head](var, body)
        if head == "=":
            left, right = parse_term(next_tok()), parse_term(next_tok())
            _expect_close(next_tok())
            return Eq(left, right)
        if head == "in":
            sref = parse_sref(next_tok())
            term = parse_term(next_tok())
            _expect_close(next_tok())
            return InSet(sref, term)
        # relation atom
        terms = []
        while peek() != ")":
            terms.append(parse_term(next_tok()))
        next_tok()
        return Rel(head, tuple(terms))

    phi = parse()
    if pos[0] != len(tokens):
        raise ParseError("trailing tokens after formula")
    return phi


def _expect_close(tok):
    if tok != ")":
        raise ParseError(f"expected ')', got {tok!r}")


def _fmt_term(t) -> str:
    return f"c{t.index}" if isinstance(t, Cst) else t.name


def format_formula(phi) -> str:
    if isinstance(phi, Rel):
        return "(" + " ".join([phi.name] + [_fmt_term(t) for t in phi.terms]) + ")"
    if isinstance(phi, Eq):
        return f"(= {_fmt_term(phi.left)} {_fmt_term(phi.right)})"
    if isinstance(phi, InSet):
        s = f"P{phi.sref.index}" if isinstance(phi.sref, PSet) else phi.sref.name
        return f"(in {s} {_fmt_term(phi.term)})"
    if isinstance(phi, Not):
        return f"(not {format_formula(phi.body)})"
    if isinstance(phi, (And, Or)):
        head = "and" if isinstance(phi, And) else "or"
        return "(" + " ".join([head] + [format_formula(p) for p in phi.parts]) + ")"
    if isinstance(phi, (Imp, Iff)):
        head = "imp" if isinstance(phi, Imp) else "iff"
        return f"({head} {format_formula(phi.left)} {format_formula(phi.right)})"
    if isinstance(phi, (ExistsFO, ForallFO, ExistsSet, ForallSet)):
        head = {ExistsFO: "exists", ForallFO: "forall",
                ExistsSet: "existsS", ForallSet: "forallS"}[type(phi)]
        return f"({head} {phi.var} {format_formula(phi.body)})"
    raise HintikkaError(f"cannot format {phi!r}")
