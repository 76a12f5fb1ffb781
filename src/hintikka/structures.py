"""Finite relational structures with named constants and unary set expansions.

The universe is always {0..size-1}. Relations are sets of tuples, constants
a list of elements, sets a list of element subsets. Values are immutable
after construction and safe to share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .config import DEFAULT, Config
from .errors import HintikkaError, ParseError
from .lineformat import LineReader


@dataclass(frozen=True)
class Vocabulary:
    """Predicate symbols plus counts of constants and distinguished sets.

    ``predicates`` is a tuple of (name, arity) pairs; the distinguished unary
    set predicates are implicitly named P0..P{num_sets-1}.
    """

    predicates: tuple
    num_consts: int = 0
    num_sets: int = 0

    def __post_init__(self):
        object.__setattr__(self, "predicates", tuple((str(n), int(a)) for n, a in self.predicates))
        names = [n for n, _ in self.predicates]
        if len(set(names)) != len(names):
            raise HintikkaError(f"duplicate predicate names in {names}")
        for n, a in self.predicates:
            if a < 1:
                raise HintikkaError(f"predicate {n} has arity {a} < 1")
            if n.startswith("P") and n[1:].isdigit():
                raise HintikkaError(f"predicate name {n} collides with set-predicate naming")
        if self.num_consts < 0 or self.num_sets < 0:
            raise HintikkaError("negative constant or set count")

    @property
    def arity(self) -> int:
        return max([1] + [a for _, a in self.predicates])

    def pred_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.predicates):
            if n == name:
                return i
        raise HintikkaError(f"unknown predicate {name!r}")

    def with_sets(self, num_sets: int) -> "Vocabulary":
        return Vocabulary(self.predicates, self.num_consts, num_sets)

    def with_consts(self, num_consts: int) -> "Vocabulary":
        return Vocabulary(self.predicates, num_consts, self.num_sets)

    def key(self) -> tuple:
        return self.predicates

    def sig(self) -> str:
        return ",".join(f"{n}/{a}" for n, a in self.predicates) or "-"


def parse_vocab_sig(text: str) -> tuple:
    """Parse "E/2,S/1" (or "-" for empty) into a predicate tuple."""
    text = text.strip()
    if text in ("", "-"):
        return ()
    preds = []
    for item in text.replace(",", " ").split():
        if "/" not in item:
            raise ParseError(f"expected Name/arity, got {item!r}")
        name, arity = item.rsplit("/", 1)
        try:
            preds.append((name, int(arity)))
        except ValueError:
            raise ParseError(f"bad arity in {item!r}")
    return tuple(preds)


@dataclass(frozen=True)
class Structure:
    """A finite model: relations, constants, and set expansions over {0..size-1}."""

    vocab: Vocabulary
    size: int
    relations: tuple = ()   # per predicate, frozenset of tuples
    consts: tuple = ()      # element per constant
    sets: tuple = ()        # per set predicate, frozenset of elements

    def __post_init__(self):
        rels = list(self.relations) + [frozenset()] * (len(self.vocab.predicates) - len(self.relations))
        object.__setattr__(self, "relations", tuple(frozenset(map(tuple, r)) for r in rels))
        object.__setattr__(self, "consts", tuple(self.consts))
        ss = list(self.sets) + [frozenset()] * (self.vocab.num_sets - len(self.sets))
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in ss))
        if len(self.relations) != len(self.vocab.predicates):
            raise HintikkaError("relation count does not match vocabulary")
        if len(self.consts) != self.vocab.num_consts:
            raise HintikkaError(f"expected {self.vocab.num_consts} constants, got {len(self.consts)}")
        if len(self.sets) != self.vocab.num_sets:
            raise HintikkaError(f"expected {self.vocab.num_sets} sets, got {len(self.sets)}")
        if self.size < 0:
            raise HintikkaError("negative size")
        if self.size == 0 and self.consts:
            raise HintikkaError("empty universe requires zero constants")
        for (name, arity), rel in zip(self.vocab.predicates, self.relations):
            for tup in rel:
                if len(tup) != arity:
                    raise HintikkaError(f"arity mismatch in {name}: {tup}")
                if any(not (0 <= e < self.size) for e in tup):
                    raise HintikkaError(f"out-of-range element in {name}: {tup}")
        for i, c in enumerate(self.consts):
            if not (0 <= c < self.size):
                raise HintikkaError(f"constant {i} out of range: {c}")
        for j, s in enumerate(self.sets):
            if any(not (0 <= e < self.size) for e in s):
                raise HintikkaError(f"set {j} has out-of-range element")

    def rel(self, name: str) -> frozenset:
        return self.relations[self.vocab.pred_index(name)]

    def key(self) -> tuple:
        """Canonical hashable identity (used for memoisation)."""
        return (
            self.vocab.key(), self.size,
            tuple(tuple(sorted(r)) for r in self.relations),
            self.consts,
            tuple(tuple(sorted(s)) for s in self.sets),
        )


def serialize_structure(m: Structure) -> str:
    lines = [f"vocab {' '.join(f'{n}/{a}' for n, a in m.vocab.predicates)}".rstrip()]
    lines.append(f"consts {m.vocab.num_consts}")
    lines.append(f"sets {m.vocab.num_sets}")
    lines.append(f"size {m.size}")
    for i, c in enumerate(m.consts):
        lines.append(f"const {i} = {c}")
    for (name, _), rel in zip(m.vocab.predicates, m.relations):
        if rel:
            body = " ".join("(" + ",".join(map(str, t)) + ")" for t in sorted(rel))
            lines.append(f"rel {name}: {body}")
    for j, s in enumerate(m.sets):
        if s:
            lines.append(f"set {j}: {' '.join(map(str, sorted(s)))}")
    return "\n".join(lines) + "\n"


def parse_structure(text: str) -> Structure:
    """Parse the line-oriented structure grammar (see serialize_structure)."""
    reader = LineReader(text, ("vocab", "consts", "sets", "size"), ("const", "rel", "set"))
    with reader:
        size = reader.number("size")
        num_consts, num_sets = reader.number("consts", 0), reader.number("sets", 0)
        sig = " ".join(reader.header("vocab"))
        try:
            vocab = Vocabulary(parse_vocab_sig(sig), num_consts, num_sets)
        except HintikkaError as exc:
            raise reader.error(str(exc))
        consts = {}
        relations = [set() for _ in vocab.predicates]
        sets = [set() for _ in range(vocab.num_sets)]
        names = [name for name, _ in vocab.predicates]
        for kw, *args in reader:
            if kw == "const":
                index, eq, element = args
                if eq != "=":
                    raise reader.error("expected 'const <i> = <element>'")
                i = reader.integer(index, "constant index", 0, vocab.num_consts - 1)
                reader.once(("const", i), f"constant {i}")
                consts[i] = reader.integer(element, f"constant {i}", 0, size - 1)
                continue
            head, _, body = " ".join(args).partition(":")
            if kw == "rel":
                name = head.strip()
                if name not in names:
                    raise reader.error(f"unknown relation {name!r}")
                idx = names.index(name)
                arity = vocab.predicates[idx][1]
                for token in body.split():
                    if not (token.startswith("(") and token.endswith(")")):
                        raise reader.error(f"expected (e,...,e), got {token!r}")
                    tup = tuple(int(x) for x in token[1:-1].split(",") if x != "")
                    if len(tup) != arity:
                        raise reader.error(f"arity mismatch for {name}: {token}")
                    if not all(0 <= e < size for e in tup):
                        raise reader.error(f"out-of-range element in {name}: {tup}")
                    relations[idx].add(tup)
            else:
                j = reader.integer(head.strip(), "set index", 0, vocab.num_sets - 1)
                sets[j].update(reader.integer(x, f"element of set {j}", 0, size - 1)
                               for x in body.split())
    if len(consts) != vocab.num_consts:
        raise ParseError("missing 'const' line for some constant")
    try:
        return Structure(vocab, size, tuple(relations),
                         tuple(consts[i] for i in range(vocab.num_consts)), tuple(sets))
    except HintikkaError as exc:
        raise ParseError(str(exc))


def incidence_graph(n: int) -> Structure:
    """Incidence graph of the complete graph K_n.

    Nodes 0..n-1 are the K_n vertices; node n + t is the subdivision point of
    the t-th pair (i, j), i < j, in lexicographic order. Edges join each pair
    node to its two endpoints (both orientations stored).
    """
    if n < 2:
        raise HintikkaError(f"incidence graph needs n >= 2, got {n}")
    vocab = Vocabulary((("E", 2),))
    pairs = list(itertools.combinations(range(n), 2))
    size = n + len(pairs)
    edges = set()
    for t, (i, j) in enumerate(pairs):
        c = n + t
        edges.update([(i, c), (c, i), (j, c), (c, j)])
    return Structure(vocab, size, (frozenset(edges),))


def path_graph(n: int, num_consts: int = 0, const_elems: tuple = ()) -> Structure:
    """Path on n vertices 0-1-...-(n-1) as a symmetric edge relation."""
    vocab = Vocabulary((("E", 2),), num_consts)
    edges = set()
    for i in range(n - 1):
        edges.update([(i, i + 1), (i + 1, i)])
    return Structure(vocab, n, (frozenset(edges),), tuple(const_elems))


def apply_permutation(m: Structure, pi) -> Structure:
    """Relabel every element through the bijection pi on {0..size-1}."""
    pi = tuple(pi)
    if sorted(pi) != list(range(m.size)):
        raise HintikkaError(f"not a bijection on 0..{m.size - 1}: {pi}")
    rels = tuple(frozenset(tuple(pi[e] for e in t) for t in r) for r in m.relations)
    consts = tuple(pi[c] for c in m.consts)
    sets = tuple(frozenset(pi[e] for e in s) for s in m.sets)
    return Structure(m.vocab, m.size, rels, consts, sets)


def enumeration_count(vocab: Vocabulary, size: int) -> int:
    total = 1
    for _, arity in vocab.predicates:
        total *= 2 ** (size ** arity)
    total *= size ** vocab.num_consts if vocab.num_consts else 1
    if vocab.num_consts and size == 0:
        total = 0
    total *= 2 ** (size * vocab.num_sets)
    return total


def enumerate_structures(vocab: Vocabulary, size: int, config: Config = DEFAULT):
    """Yield every labeled structure of the given size exactly once.

    Order: constant assignments (lexicographic), then set assignments
    (bitmask order per set), then relation subsets (bitmask order per
    predicate, tuples lexicographic). Refuses if the relation-subset space
    exceeds the enumeration budget.
    """
    yield from _enumerate(vocab, size, config, orderly=False)


def enumerate_representatives(vocab: Vocabulary, size: int, config: Config = DEFAULT):
    """Yield one structure per isomorphism class: the first member of the
    class in ``enumerate_structures`` order, in that order, under the same
    budget checks.

    Orderly generation (McKay, J. Algorithms 26, 1998): a structure is
    yielded when no permutation of the universe maps its enumeration key to
    a lexicographically smaller one, and a key prefix that some permutation
    lowers is skipped with everything under it.
    """
    yield from _enumerate(vocab, size, config, orderly=True)


def _enumerate(vocab, size, config, orderly):
    rel_bits = sum(size ** a for _, a in vocab.predicates)
    config.check("enum_bits", rel_bits, config.enum_bits_max)
    config.check("enum_bits", size * vocab.num_sets, config.enum_bits_max)

    if size == 0:
        if vocab.num_consts == 0:
            yield Structure(vocab, 0)
        return

    tuple_lists = [sorted(itertools.product(range(size), repeat=a)) for _, a in vocab.predicates]
    universe = list(range(size))
    k, s = vocab.num_consts, vocab.num_sets
    # The key is (consts, set_masks, rel_masks), and enumeration order is its
    # lexicographic order. Every coordinate is a mask over the tuples of its
    # arity: constant c is the mask 1 << c, which keeps the order of c.
    coords = ([(1, [1 << e for e in universe])] * k + [(1, range(2 ** size))] * s
              + [(a, range(2 ** len(tl))) for (_, a), tl in zip(vocab.predicates, tuple_lists)])
    if orderly:
        keys = _orderly_keys(coords, size)
    else:
        keys = itertools.product(*(values for _, values in coords))
    for key in keys:
        consts = tuple(mask.bit_length() - 1 for mask in key[:k])
        sets = tuple(frozenset(e for e in universe if mask >> e & 1) for mask in key[k:k + s])
        rels = tuple(
            frozenset(t for b, t in enumerate(tl) if mask >> b & 1)
            for mask, tl in zip(key[k + s:], tuple_lists)
        )
        yield Structure(vocab, size, rels, consts, sets)


def _orderly_keys(coords, size):
    """The keys over ``coords`` ((arity, values) pairs) in lexicographic
    order that no permutation of {0..size-1} maps to a smaller key.

    A permutation that maps the prefix before a coordinate higher can never
    lower the key; one that maps it lower has pruned the prefix already. So
    each coordinate is checked only against the stabiliser of its prefix.
    While every coordinate so far is unary, that stabiliser is the product
    of the symmetric groups of ``cells``, the blocks of elements that the
    prefix does not tell apart (only blocks of two or more are kept). The
    first coordinate of higher arity lists the stabiliser's permutations
    instead; the enum_bits budget on size ** arity keeps the size, and so
    their number, small.
    """
    n = len(coords)

    def rest(i, prefix):
        for tail in itertools.product(*(values for _, values in coords[i:])):
            yield prefix + tail

    def by_cells(i, cells, prefix):
        if not cells:
            yield from rest(i, prefix)
            return
        if i == n:
            yield prefix
            return
        arity, values = coords[i]
        if arity > 1:
            maps = [[_mask_map(pi, a, size) for a, _ in coords] for pi in _cell_perms(cells, size)]
            yield from by_perms(i, maps, prefix)
            return
        for v in values:
            # the least image of v keeps, in each cell, its members lowest
            if all(not (c & ~v) & ((1 << (v & c).bit_length()) - 1) for c in cells):
                cells2 = [part for c in cells for part in (c & v, c & ~v) if part & (part - 1)]
                yield from by_cells(i + 1, cells2, prefix + (v,))

    def by_perms(i, perms, prefix):
        # perms: per-coordinate image maps of each non-identity permutation
        # that fixes the prefix
        if not perms:
            yield from rest(i, prefix)
            return
        if i == n:
            yield prefix
            return
        for v in coords[i][1]:
            fixing = []
            for maps in perms:
                w = _image(maps[i], v)
                if w < v:
                    break
                if w == v:
                    fixing.append(maps)
            else:
                yield from by_perms(i + 1, fixing, prefix + (v,))

    return by_cells(0, [(1 << size) - 1] if size > 1 else [], ())


def _cell_perms(cells, size):
    """Every non-identity permutation of {0..size-1} that maps each cell
    (a bitmask) onto itself."""
    blocks = [[e for e in range(size) if c >> e & 1] for c in cells]
    for images in itertools.product(*(itertools.permutations(b) for b in blocks)):
        pi = list(range(size))
        for block, image in zip(blocks, images):
            for e, f in zip(block, image):
                pi[e] = f
        if pi != list(range(size)):
            yield pi


def _mask_map(pi, arity, size):
    """Byte tables taking a mask over the arity-tuples of {0..size-1}, in
    lexicographic order, to the mask of their images under pi."""
    image = [sum(pi[e] * size ** (arity - 1 - j) for j, e in enumerate(t))
             for t in itertools.product(range(size), repeat=arity)]
    return [[sum(1 << bit for j, bit in enumerate(image[lo:lo + 8]) if x >> j & 1)
             for x in range(1 << len(image[lo:lo + 8]))]
            for lo in range(0, len(image), 8)]


def _image(tables, mask):
    out = 0
    for table in tables:
        out |= table[mask & 255]
        mask >>= 8
    return out
