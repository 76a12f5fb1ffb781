"""Depth-n monadic theories: computation, canonical interning, formal spaces.

A depth-0 theory is the set of quantifier-free diagrams realized by tuples
of length arity+1 (repetitions allowed) together with the constant diagram.
A depth-(n+1) theory over m set columns is the finite set of depth-n
theories over m+1 columns, one per subset of the universe. Theories are
hereditarily finite values; the ``Interner``, an argument of every function
that builds one, gives them stable identities and platform-independent digests.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field

from .config import DEFAULT, Config
from .diagrams import (SHAPE_BITS, SHAPE_MASK, DiagramEngine, bits_word, column_count,
                       complete_diagrams, diagram_bits, nclasses, partitions, set_word, subdiagram,
                       unpack_bits, unpack_rel)
from .errors import BudgetError, HintikkaError, SignatureError
from .structures import Structure, Vocabulary


class Interner:
    """Append-only canonical store for one thread.

    Quantifier-free diagrams are interned to ints in first-seen order
    (hash-consing) in two steps: a shape (v, eq, rel) gets a shape id once,
    keeping one copy of each equality type and tuple of relation words (an
    int per predicate: shapes hold no bool form), and a diagram is keyed by
    one int, its shape id with its set word above it (see ``diagrams``). A
    diagram's id is the id of its key: ``DiagramEngine`` and the transfer
    kernel hand keys to ``key_id``, and ``diagram_id`` gives a diagram in
    bool form the same id; ``bool_forms`` rebuilds it. A theory is
    keyed by its ``ids`` (and a depth-0 theory by its ``const_id`` too), and
    the interner builds one ``Theory`` per key. Ids are local to one
    interner, and every layer refuses theories of another. Digests hash the
    canonical structural form (diagrams sorted in bool form, member
    digests, not ids), so they are stable across runs, platforms, and
    interner instances.

    The memos of every layer live here too. Th^0 keeps one row template
    per (size, r, constants, arities) for every structure that has them
    (``row_templates``), and the pieces that templates share: the atom
    reads per (size, class representatives, arities) (``class_reads``),
    the subset rows per (size, class representatives) (``subset_rows``),
    and the rows and equality types, among the kept components (``part``).
    The transfer kernel keeps one memo per sequence of result classes of
    each scheme config key (``config_memos``), and one per part recipe
    (``part_memos``) that the config memos of every scheme with that recipe
    share, so a projection is packed once per part recipe.

    Digests are made when first read, never at interning. A new depth-0
    theory waits on a pending list; the first read of any depth-0 digest
    digests every pending theory in one batch (``_digest_pending``).

    Nothing here is locked: the package runs in one thread and imports no
    thread or process pool.
    """

    def __init__(self):
        self._ids = {}
        self._theories = []
        self._pending = []          # depth-0 theories not yet digested
        self._shape_ids = {}        # (v, eq, rel words) -> shape id
        self._shapes = []           # shape id -> (v, eq, rel words), components kept
        self._diagram_ids = {}      # diagram key -> diagram id
        self._keys = []             # diagram id -> diagram key
        self._columns = {}          # (class count, set word) -> set columns in bool form
        self._parts = {}            # one kept copy of each eq, rel and template row
        self.theory_memo = {}
        self.transfer_memo = {}
        # memos of the depth-0 transfer kernel (composition._transfer_base),
        # keyed by this interner's ids: config_memos holds, per scheme config
        # key, one memo per sequence of result classes that serves every lift
        # (its equality types, recipe and join table); part_memos holds one
        # memo per part recipe, shared by the config memos of every scheme
        # (its atom indices, base packs and pack ids with lifted bits);
        # pattern_skeletons one copy of each table entry's pattern skeleton
        self.config_memos = {}
        self.part_memos = {}
        self.pattern_skeletons = {}
        self.diagram_projections = {}
        self.side_tables = {}
        self.sub_diagrams = {}
        self.table_values = {}
        # memos of Th^0 (diagrams.DiagramEngine): see the class docstring
        self.row_templates = {}
        self.class_reads = {}
        self.subset_rows = {}

    def _insert(self, key, build) -> int:
        """The id of ``key``'s theory; a new one is ``build(id)``."""
        tid = self._ids.get(key)
        if tid is None:
            tid = self._ids[key] = len(self._theories)
            self._theories.append(build(tid))
        return tid

    def shape_id(self, v: int, eq, rel) -> int:
        """The id of a shape, assigned on first sight."""
        shape = (v, eq, rel)
        sid = self._shape_ids.get(shape)
        if sid is None:
            shape = (v, self.part(eq), self.part(rel))
            sid = self._shape_ids[shape] = len(self._shapes)
            self._shapes.append(shape)
        return sid

    def part(self, obj):
        """The one kept copy of an immutable diagram component."""
        return self._parts.setdefault(obj, obj)

    def key_id(self, key: int) -> int:
        """The id of a diagram key, assigned on first sight."""
        did = self._diagram_ids.get(key)
        if did is None:
            did = self._diagram_ids[key] = len(self._keys)
            self._keys.append(key)
        return did

    def diagram_id(self, diag) -> int:
        """The id of a diagram in bool form."""
        v, eq, rel, sets = diag
        n = nclasses(eq)
        bits = sum(b << j * n + c for j, col in enumerate(sets) for c, b in enumerate(col))
        sid = self.shape_id(v, eq, tuple(bits_word(reversed(atoms)) for atoms in rel))
        return self.key_id(sid | set_word(bits, len(sets), n) << SHAPE_BITS)

    def split(self, did: int) -> tuple:
        """(v, eq, rel words, set word) of a diagram."""
        key = self._keys[did]
        return (*self._shapes[key & SHAPE_MASK], key >> SHAPE_BITS)

    def bool_forms(self):
        """A function from a diagram id to its bool form (v, eq, rel, sets):
        equal set columns shared, and each tuple of relation words unpacked
        once per function."""
        keys, shapes, rels, columns = self._keys, self._shapes, {}, self._columns

        def form(did: int) -> tuple:
            key = keys[did]
            v, eq, rel = shapes[key & SHAPE_MASK]
            rel_form = rels.get(rel)
            if rel_form is None:
                rel_form = rels[rel] = unpack_rel(rel)
            n, word = nclasses(eq), key >> SHAPE_BITS
            sets = columns.get((n, word))
            if sets is None:
                sets = columns[(n, word)] = tuple(unpack_bits(word >> j * n, n)
                                                  for j in range(column_count(word, n)))
            return (v, eq, rel_form, sets)

        return form

    def diagram(self, did: int) -> tuple:
        """The bool form (v, eq, rel, sets) of a diagram."""
        return self.bool_forms()(did)

    def extend(self, did: int, lifted: int) -> int:
        """The id of a diagram with the columns of set word ``lifted`` after its own."""
        key = self._keys[did]
        low = SHAPE_BITS + (key >> SHAPE_BITS).bit_length() - 1      # its sentinel bit
        return self.key_id(key ^ 1 << low | lifted << low)

    def restrict(self, did: int, m: int) -> int:
        """The id of a diagram with its first m set columns only."""
        key = self._keys[did]
        sentinel = 1 << SHAPE_BITS + m * (nclasses(self._shapes[key & SHAPE_MASK][1]) or 1)
        return self.key_id(key & sentinel - 1 | sentinel)

    def intern_depth0(self, vocab_key, m, k, diagram_ids, const_diag: int) -> int:
        """The depth-0 theory realizing the set ``diagram_ids`` with the
        constant diagram ``const_diag``, all of them diagram ids."""
        payload = tuple(sorted(diagram_ids))
        key = (0, vocab_key, m, k, payload, const_diag)

        def build(tid):
            theory = Theory(self, tid, 0, vocab_key, m, k, payload, const_diag)
            self._pending.append(theory)
            return theory

        return self._insert(key, build)

    def _digest_pending(self) -> None:
        """Digest every pending depth-0 theory: the sha256 of repr(("t0",
        vocab_key, m, k, sorted diagrams, const_diag)) in bool form. The union
        of the pending diagram ids is sorted and formatted once; a theory
        lists its diagrams by their positions in that order, an int sort."""
        pending = self._pending
        form = self.bool_forms()
        union = sorted(set().union(*(t.ids for t in pending)), key=form)
        position = {did: pos for pos, did in enumerate(union)}
        texts = list(map(repr, map(form, union)))
        for t in pending:
            items = list(map(texts.__getitem__, sorted(map(position.__getitem__, t.ids))))
            text = (f"('t0', {t.vocab_key!r}, {t.m!r}, {t.k!r}, "
                    f"{_tuple_repr(items)}, {form(t.const_id)!r})")
            t._digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self._pending = []

    def intern_node(self, depth, vocab_key, m, k, child_ids) -> int:
        payload = tuple(sorted(set(child_ids)))
        key = (depth, vocab_key, m, k, payload)

        def build(tid):
            const_id = None
            if payload:
                inner = self._theories[payload[0]].const_id
                if inner is not None:
                    const_id = self.restrict(inner, m)
            return Theory(self, tid, depth, vocab_key, m, k, payload, const_id)

        return self._insert(key, build)

    def rec(self, tid: int) -> Theory:
        """The theory with id ``tid``."""
        return self._theories[tid]

    def sizes(self) -> dict:
        """Length of every table and memo: interned theories, diagrams and
        their kept components, then each memo by attribute name."""
        sizes = {"theories": len(self._theories), "shapes": len(self._shapes),
                 "diagrams": len(self._keys), "diagram_parts": len(self._parts)}
        sizes.update((name, len(memo)) for name, memo in vars(self).items()
                     if not name.startswith("_"))
        return sizes

    def __len__(self):
        return len(self._theories)


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


def _tuple_repr(item_reprs) -> str:
    """repr of a tuple, from the reprs of its items."""
    if len(item_reprs) == 1:
        return f"({item_reprs[0]},)"
    return "(" + ", ".join(item_reprs) + ")"


_DEFAULT_INTERNER = Interner()


def default_interner() -> Interner:
    """The CLI's interner; ``small_model_theories`` given none fills it too."""
    return _DEFAULT_INTERNER


def reset_default_interner() -> None:
    """Empty the default interner; earlier theories are refused by later ones."""
    global _DEFAULT_INTERNER
    _DEFAULT_INTERNER = Interner()


class Theory:
    """One interned theory value. Its interner builds exactly one per
    value, so two theories of one interner are equal exactly when they are
    one object; ids mean nothing across interners.

    ``ids`` holds the sorted diagram ids at depth 0 and the sorted member
    ids deeper, and ``const_id`` the constant diagram's id (None for an
    empty node). The digest is made on the first read: a node's from the
    digests of its members, a depth-0 theory's in one batch with every
    other depth-0 theory of its interner not yet digested."""

    __slots__ = ("interner", "intern_id", "depth", "vocab_key", "m", "k", "ids", "const_id",
                 "_digest")

    def __init__(self, interner, intern_id, depth, vocab_key, m, k, ids, const_id):
        self.interner = interner
        self.intern_id = intern_id
        self.depth = depth
        self.vocab_key = vocab_key
        self.m = m
        self.k = k
        self.ids = ids
        self.const_id = const_id
        self._digest = None

    @property
    def digest(self) -> str:
        if self._digest is None:
            if self.depth == 0:
                self.interner._digest_pending()
            else:
                child_digests = tuple(sorted(c.digest for c in self.children()))
                self._digest = _sha(("t", self.depth, self.vocab_key, self.m, self.k,
                                     child_digests))
        return self._digest

    @property
    def payload(self):
        """Depth 0: the realized diagrams, sorted as tuples; deeper: the
        sorted member ids."""
        if self.depth == 0:
            return tuple(sorted(map(self.interner.bool_forms(), self.ids)))
        return self.ids

    @property
    def const_diag(self):
        """The constant diagram in bool form (None for an empty node)."""
        return None if self.const_id is None else self.interner.diagram(self.const_id)

    def children(self) -> tuple:
        if self.depth == 0:
            raise HintikkaError("depth-0 theory has no member theories")
        return tuple(map(self.interner.rec, self.ids))

    def sig_str(self) -> str:
        return ",".join(f"{n}/{a}" for n, a in self.vocab_key) or "-"

    def dump(self) -> str:
        header = (
            f"theory depth={self.depth} tau={self.sig_str()} "
            f"m={self.m} k={self.k} digest={self.digest}"
        )
        return header + "\n" + self._render() + "\n"

    def _render(self) -> str:
        """Depth-0 members by digest; every set of members ordered by digest."""
        if self.depth == 0:
            return self.digest
        members = sorted(self.children(), key=lambda c: c.digest)
        return "{" + ",".join(c._render() for c in members) + "}"


def compute_theory(m: Structure, n: int, interner: Interner,
                   config: Config = DEFAULT) -> Theory:
    """Th^n(M, sets, consts): definition-faithful, exponential in n."""
    if n < 0:
        raise HintikkaError("theory depth must be a natural number")
    config.check("theory_depth", n, config.n_max)
    if n >= 2:
        config.check("theory_depth2_size", m.size, config.depth2_size_max)
    config.check("theory_bits", m.size * max(n, 1), config.theory_bits_max)

    memo_key = (m.key(), n)
    cached = interner.theory_memo.get(memo_key)
    if cached is not None:
        return interner.rec(cached)

    vocab = m.vocab
    r = vocab.arity + 1
    engine = DiagramEngine(m, r, interner)
    vocab_key = vocab.key()
    k = vocab.num_consts
    base_m = vocab.num_sets
    all_masks = tuple(range(2 ** m.size))
    depth0 = {}     # (diagram ids, constant-diagram id) -> theory id

    def rec(extra, depth):
        m_eff = base_m + len(extra)
        if depth == 0:
            key = engine.th0_local(extra)
            tid = depth0.get(key)
            if tid is None:
                ids, cid = key
                tid = depth0[key] = interner.intern_depth0(vocab_key, m_eff, k, ids, cid)
            return tid
        children = {rec(extra + (u,), depth - 1) for u in all_masks}
        return interner.intern_node(depth, vocab_key, m_eff, k, children)

    tid = interner.theory_memo[memo_key] = rec((), n)
    return interner.rec(tid)


# ---------------------------------------------------------------------------
# Formal theory spaces (Claim: TH^{n+1} is the powerset of TH^n one set up)
# ---------------------------------------------------------------------------

def _diagram_universe(vocab: Vocabulary, r: int, interner: Interner, config: Config):
    """The ids of every syntactically complete diagram over r variables + k
    constants."""
    arities = tuple(a for _, a in vocab.predicates)
    diagrams = []
    for eq in partitions(r + vocab.num_consts):
        config.check("formal_space", diagram_bits(max(eq) + 1, arities, vocab.num_sets), 24)
        diagrams.extend(map(interner.diagram_id,
                            complete_diagrams(r, eq, arities, vocab.num_sets)))
    return diagrams


def _substitution_closure(interner: Interner, diagrams, r: int, arities, k: int):
    """Per diagram, the frozenset of the indices of all its substitution
    images (the diagram of (a_{f(0)},...,a_{f(r-1)}) for every slot map f).
    The slot maps include the identity and are closed under composition, so
    the images are already transitively closed."""
    index = {d: i for i, d in enumerate(diagrams)}
    const_slots = list(range(r, r + k))
    maps = list(itertools.product(range(r), repeat=r))
    return [frozenset(index[subdiagram(interner, d, list(f) + const_slots, arities, new_v=r)]
                      for f in maps)
            for d in diagrams]


@dataclass(frozen=True)
class FormalTheorySpace:
    """Formally possible theory values at one signature.

    Depth 0 is materialized (interned ids); deeper spaces are symbolic
    powersets of the space one set-column up, with membership decided
    recursively and cardinality available without materialization.
    """

    vocab: Vocabulary
    depth: int
    cardinality: int
    base_ids: frozenset = None
    inner: "FormalTheorySpace" = None
    interner: Interner = field(default=None, repr=False, compare=False)

    def contains(self, theory: Theory) -> bool:
        if theory.interner is not self.interner:
            raise SignatureError("theories come from different interners")
        if theory.depth != self.depth or theory.vocab_key != self.vocab.key():
            return False
        if theory.m != self.vocab.num_sets or theory.k != self.vocab.num_consts:
            return False
        if self.depth == 0:
            return theory.intern_id in self.base_ids
        return all(self.inner.contains(c) for c in theory.children())

    def members(self):
        """Iterate the member theories (materializes; keep spaces small)."""
        if self.depth == 0:
            yield from map(self.interner.rec, sorted(self.base_ids))
            return
        inner_ids = sorted(t.intern_id for t in self.inner.members())
        vk = self.vocab.key()
        for n_take in range(len(inner_ids) + 1):
            for combo in itertools.combinations(inner_ids, n_take):
                yield self.interner.rec(self.interner.intern_node(
                    self.depth, vk, self.vocab.num_sets, self.vocab.num_consts, combo))


def enumerate_formal(vocab: Vocabulary, n: int, interner: Interner, budget: int = None,
                     config: Config = DEFAULT) -> FormalTheorySpace:
    """The space of formally possible depth-n theories over vocab's (m, k).

    Depth 0 applies local consistency closure (substitution closure, constant
    coherence, nonemptiness when k >= 1); depth n+1 is the full powerset of
    the depth-n space over m+1 sets. Refuses when the cardinality exceeds the
    budget. Soundness contract: every realizable theory is a member.
    """
    budget = budget if budget is not None else config.formal_budget
    if n > 0:
        inner = enumerate_formal(vocab.with_sets(vocab.num_sets + 1), n - 1,
                                 interner, budget, config)
        if inner.cardinality > max(budget.bit_length(), 1):
            raise BudgetError("formal_space", f"2^{inner.cardinality}", budget)
        card = 2 ** inner.cardinality
        if card > budget:
            raise BudgetError("formal_space", card, budget)
        return FormalTheorySpace(vocab, n, card, inner=inner, interner=interner)

    r = vocab.arity + 1
    k = vocab.num_consts
    arities = tuple(a for _, a in vocab.predicates)

    # Refuse before materializing anything once a cheap lower bound on the
    # count exceeds the budget. A diagram is full when its r + k slots are
    # pairwise distinct. Substitution images of a full diagram are its own
    # permutations, and those of any other diagram repeat a slot, so no
    # other orbit requires a full orbit: distinct sets of full orbits close
    # to distinct selections. A constant group whose k constants are
    # distinct holds 2^(full_bits - const_bits) full diagrams, in orbits of
    # at most r! members; with L orbits it alone has at least 2^L - 1
    # nonempty selections, which exceeds the budget once
    # L >= (budget + 1).bit_length().
    full_bits = diagram_bits(r + k, arities, vocab.num_sets)
    const_bits = diagram_bits(k, arities, vocab.num_sets)
    lb_orbits = 2 ** (full_bits - const_bits) // math.factorial(r)
    if lb_orbits >= (budget + 1).bit_length():
        raise BudgetError("formal_space", f">=2^{lb_orbits}-1", budget)

    diagrams = _diagram_universe(vocab, r, interner, config)
    closures = _substitution_closure(interner, diagrams, r, arities, k)

    # group mutually-substitutable diagrams (permutation orbits) into one unit
    orbit_of = {}
    orbits = []
    for i in range(len(diagrams)):
        if i in orbit_of:
            continue
        members = frozenset(j for j in closures[i] if i in closures[j])
        oid = len(orbits)
        orbits.append(members)
        for j in members:
            orbit_of[j] = oid
    orbit_closure = []
    for oid, members in enumerate(orbits):
        req = set()
        for i in members:
            req.update(orbit_of[j] for j in closures[i])
        req.discard(oid)
        orbit_closure.append(frozenset(req))

    order = sorted(range(len(orbits)), key=lambda o: (len(orbit_closure[o]), sorted(orbits[o])))
    pos = {o: p for p, o in enumerate(order)}
    req_masks = []
    for p, o in enumerate(order):
        mask = 0
        for dep in orbit_closure[o]:
            if pos[dep] > p:
                raise HintikkaError("internal: closure ordering violated")
            mask |= 1 << pos[dep]
        req_masks.append(mask)

    const_slots = list(range(r, r + k))
    group_of = [subdiagram(interner, d, const_slots, arities, new_v=0) for d in diagrams]
    orbit_group = []
    for members in orbits:
        gs = {group_of[i] for i in members}
        if len(gs) != 1:
            raise HintikkaError("internal: orbit mixes constant restrictions")
        orbit_group.append(gs.pop())

    groups = sorted(set(orbit_group), key=lambda g: repr(interner.diagram(g)))
    member_ids = set()
    count = 0
    vk = vocab.key()
    mm = vocab.num_sets

    for group in groups:
        idxs = [p for p, o in enumerate(order) if orbit_group[o] == group]

        def selections(i, mask):
            """Downward-closed orbit selections of this group, as bitmasks
            over ``order``; nonempty when k >= 1."""
            if i == len(idxs):
                if not (mask == 0 and k >= 1):
                    yield mask
                return
            yield from selections(i + 1, mask)
            p = idxs[i]
            if req_masks[p] & ~mask == 0:
                yield from selections(i + 1, mask | (1 << p))

        # count with abort before materializing
        count += sum(1 for _ in itertools.islice(selections(0, 0), budget + 1))
        if count > budget:
            raise BudgetError("formal_space", f">{count}", budget)

        for mask in selections(0, 0):
            realized = set()
            for p in idxs:
                if mask >> p & 1:
                    realized.update(map(diagrams.__getitem__, orbits[order[p]]))
            tid = interner.intern_depth0(vk, mm, k, realized, group)
            member_ids.add(tid)

    return FormalTheorySpace(vocab, 0, count, base_ids=frozenset(member_ids),
                             interner=interner)


# ---------------------------------------------------------------------------
# Small-model theory tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmallModels:
    """Theories of all models with at most k_star elements, with realized
    sizes and one witness structure per theory: the first structure in
    enumeration order (smallest size first) that realizes it. One
    structure per isomorphism class is computed; the first in enumeration
    order with a given theory is always the first member of its class."""

    entries: tuple          # ((theory_id, sorted sizes tuple), ...)
    witnesses: dict = field(compare=False)


def small_model_theories(vocab: Vocabulary, n: int, k_star: int,
                         interner: Interner = None, config: Config = DEFAULT) -> SmallModels:
    from .structures import enumerate_representatives

    interner = default_interner() if interner is None else interner  # census passes none
    sizes_by_theory = {}
    witnesses = {}
    lo = 0 if (config.include_empty_model and vocab.num_consts == 0) else 1
    for size in range(lo, k_star + 1):
        for m in enumerate_representatives(vocab, size, config):
            tid = compute_theory(m, n, interner, config).intern_id
            sizes_by_theory.setdefault(tid, set()).add(size)
            if tid not in witnesses:
                witnesses[tid] = m
    entries = tuple(sorted((tid, tuple(sorted(s))) for tid, s in sizes_by_theory.items()))
    return SmallModels(entries, witnesses)


# ---------------------------------------------------------------------------
# Sentence-level agreement (bridge to the oracle)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgreementReport:
    theories_equal: bool
    samples: int
    agreements: int
    disagreements: tuple

    @property
    def ok(self):
        return not self.disagreements


def theories_equal_on_sentences(m1: Structure, m2: Structure, d: int,
                                samples: int, seed: int, interner: Interner,
                                config: Config = DEFAULT) -> AgreementReport:
    """If Th^d(M1) = Th^d(M2), random depth-<=d sentences must agree."""
    from .oracle import eval_formula, random_sentence

    if m1.vocab != m2.vocab:
        raise SignatureError("structures have different vocabularies")
    t1 = compute_theory(m1, d, interner, config)
    t2 = compute_theory(m2, d, interner, config)
    if t1 is not t2:
        return AgreementReport(False, 0, 0, ())
    disagreements = []
    agreements = 0
    for i in range(samples):
        phi = random_sentence(m1.vocab, d, seed * 1_000_003 + i)
        if eval_formula(m1, phi, config=config) == eval_formula(m2, phi, config=config):
            agreements += 1
        else:
            disagreements.append(phi)
    return AgreementReport(True, samples, agreements, tuple(disagreements))
