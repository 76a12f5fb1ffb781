"""Reachable number sets under rules n = n1 + n2 - j, with derivation-tree
witnesses, pumping, and eventual-periodicity certificates.

A quadruple system has labels 0..m-1, rules (l1, l2, l3, j) producing
n1 + n2 - j at label l3 from values at labels l1, l2, and finite base sets.
Values can locally decrease when j exceeds a child value, so reachability
saturates over an enlarged window [0, max(bound, largest base value) +
slack] before filtering; the computation retries once with doubled slack
and reports whether the answer below the bound changed; that is no proof,
and ``reach_is_exact`` says when the answer is proved exact. Certificates
record exactly what was verified; periodicity beyond the scan bound is
never claimed.

Number sets are bitsets from saturation to certificate: the values of a
label are one int (bit n set when n is reachable), and a rule adds the
sumset of its operands shifted down by j. Rounds are semi-naive (only
rules with an operand that changed in the last round are applied), and
the values new in each round are kept as stages, from which witness trees
are rebuilt. ``reach`` hands on one int per label, ``find_period`` and
``verify_certificate`` test periodicity with shifts and masks, and values
are decoded only where they are printed (``ReachResult.values``).

A ``QuadrupleSystem`` indexes itself once, when it is made: its largest
base value and deficit, its base sets ascending, per label the rules that
produce it and the rules that read it, and the labels that reach no cycle
of the producer graph (edges l3 -> l1 and l3 -> l2 per rule), which the
pump search skips. Of a rule (l1, l2, l3, j) and its mirror (l2, l1, l3,
j), which make the same values, only one is listed as reading. It also
carries two memos that fill as it is used: the saturation per limit, and
the finished derivation-tree lists of the pump search, which every later
search of the same system replays. Index and memos stay outside its
equality, hash and repr, so a system equals, hashes and prints like a
fresh copy of itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import DEFAULT, Config
from .errors import HintikkaError, ParseError
from .lineformat import LineReader


def _derived():
    """A field that ``__post_init__`` computes or fills, outside equality,
    hash and repr."""
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class QuadrupleSystem:
    m: int
    rules: tuple        # (l1, l2, l3, j)
    base: tuple         # per label, frozenset of naturals
    max_base: int = _derived()      # the largest base value (0 with none)
    max_j: int = _derived()         # the largest deficit (0 with no rules)
    _bases: tuple = _derived()      # per label, its base values ascending
    _producers: tuple = _derived()  # per label, (idx, l1, l2, j) of the rules making it
    _by_operand: tuple = _derived()  # per label, the rules reading it, one of a mirrored pair
    _acyclic: frozenset = _derived()  # labels that reach no cycle of the producer graph
    _saturated: dict = _derived()   # limit -> (members, stages) of _saturate
    _trees: dict = _derived()       # (label, nodes) -> finished list of _search_pump

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(sorted(tuple(map(int, r)) for r in self.rules)))
        object.__setattr__(self, "base", tuple(frozenset(map(int, b)) for b in self.base))
        if len(self.base) != self.m:
            raise HintikkaError("base sets do not match label count")
        for l1, l2, l3, j in self.rules:
            if not (0 <= l1 < self.m and 0 <= l2 < self.m and 0 <= l3 < self.m):
                raise HintikkaError(f"rule label out of range: {(l1, l2, l3, j)}")
            if j < 0:
                raise HintikkaError("rule deficit must be a natural number")
        if any(v < 0 for b in self.base for v in b):
            raise HintikkaError("base values must be naturals")
        producers = [[] for _ in range(self.m)]
        by_operand = [set() for _ in range(self.m)]
        waiting = [0] * self.m      # per label, its indexed operand edges not yet settled
        rules = set(self.rules)
        for idx, (l1, l2, l3, j) in enumerate(self.rules):
            producers[l3].append((idx, l1, l2, j))
            # a rule and its mirror (l2, l1, l3, j) make the same sumset,
            # and one is touched exactly when the other is: index one
            if l1 <= l2 or (l2, l1, l3, j) not in rules:
                by_operand[l1].add(idx)
                by_operand[l2].add(idx)
                waiting[l3] += 1 if l1 == l2 else 2
        # a label reaches no cycle of the producer graph once every operand
        # of every rule making it does: settle operands before the labels
        # they make, one edge at a time (a rule left out of the index has
        # the operands of its mirror)
        settled = [label for label in range(self.m) if not waiting[label]]
        for label in settled:
            for idx in by_operand[label]:
                made = self.rules[idx][2]
                waiting[made] -= 1
                if not waiting[made]:
                    settled.append(made)
        bases = tuple(tuple(sorted(b)) for b in self.base)
        for name, value in (
                ("max_base", max((b[-1] for b in bases if b), default=0)),
                ("max_j", max((r[3] for r in self.rules), default=0)),
                ("_bases", bases),
                ("_producers", tuple(map(tuple, producers))),
                ("_by_operand", tuple(map(frozenset, by_operand))),
                ("_acyclic", frozenset(settled)),
                ("_saturated", {}),
                ("_trees", {})):
            object.__setattr__(self, name, value)

    def default_slack(self) -> int:
        return (self.max_j + 1) * self.m * self.max_j


@dataclass(frozen=True)
class ReachResult:
    members: tuple       # per label, the bitset of its values <= bound
    bound: int
    slack: int
    slack_stable: bool   # doubling the slack did not change the answer

    def values(self, *labels) -> tuple:
        """The values reached at any of ``labels``, ascending."""
        bits = 0
        for label in labels:
            bits |= self.members[label]
        return tuple(_bits(bits))


def _bits(x: int):
    """Positions of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _sumset(a: int, b: int) -> int:
    """The bitset of {x + y : x in a, y in b}."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out |= b * low          # b shifted up by the position of low
        a ^= low
    return out


def _saturate(sys: QuadrupleSystem, limit: int):
    """Least fixpoint of the rules restricted to values <= limit, memoized
    on ``sys`` per limit.

    Returns ``(members, stages)``: per label the bitset of reached values,
    and per round the per-label bitsets of the values first reached in it
    (round 0 is the base). Round r applies each rule whose operand changed
    in round r-1 as ``((D1 + A2) | (A1 + D2)) >> j`` over everything found
    before round r (A) and in round r-1 (D), masked to the limit after the
    shift, since n1 + n2 may exceed the limit before j brings it back. Of
    a rule and its mirror only one is applied: their sumsets are equal.
    """
    done = sys._saturated.get(limit)
    if done is not None:
        return done
    mask = (1 << (limit + 1)) - 1
    delta = [sum(1 << v for v in b if v <= limit) for b in sys.base]
    members = list(delta)
    stages = [tuple(delta)]
    by_operand = sys._by_operand
    while True:
        touched = set()
        for label, d in enumerate(delta):
            if d:
                touched |= by_operand[label]
        new = [0] * sys.m
        for idx in touched:
            l1, l2, l3, j = sys.rules[idx]
            if l1 == l2:
                sums = _sumset(delta[l1], members[l1])
            else:
                sums = _sumset(delta[l1], members[l2]) | _sumset(members[l1], delta[l2])
            new[l3] |= (sums >> j) & mask
        for label in range(sys.m):
            new[label] &= ~members[label]
            members[label] |= new[label]
        if not any(new):
            break
        stages.append(tuple(new))
        delta = new
    done = (tuple(members), tuple(stages))
    sys._saturated[limit] = done
    return done


def reach(sys: QuadrupleSystem, bound: int, slack: int = None) -> ReachResult:
    """Values <= bound reachable at each label (deterministic).

    Saturates over [0, top + slack], where top is the larger of the bound
    and the largest base value, so that no base value is cut off; retries
    once with doubled slack and records whether that changed anything at
    or below the bound.
    """
    if bound < 0:
        raise HintikkaError("bound must be a natural number")
    slack = sys.default_slack() if slack is None else slack
    if slack < 0:
        raise HintikkaError("slack must be a natural number")
    top = max(bound, sys.max_base)
    members, _ = _saturate(sys, top + slack)
    members2, _ = _saturate(sys, top + 2 * slack)
    low = (1 << (bound + 1)) - 1
    stable = all(a & low == b & low for a, b in zip(members, members2))
    return ReachResult(tuple(ms & low for ms in members2), bound, slack, stable)


def reach_is_exact(sys: QuadrupleSystem, bound: int) -> bool:
    """Whether ``reach(sys, bound)`` is proved exact, whatever its slack.

    Saturates over [0, L], L = max(bound, largest base value, largest
    deficit); mins[l] is the least value found at label l, or L + 1 if
    none. If every rule (l1, l2, l3, j) has j <= min(mins[l1], mins[l2]),
    then by induction on height each node of a derivation tree is at least
    each of its children (n = c1 + c2 - j >= c1 + mins[l2] - j >= c1) and
    at least its label's mins, so every value <= bound is derived by a tree
    inside [0, bound], which every window of ``reach`` covers.
    """
    if bound < 0:
        raise HintikkaError("bound must be a natural number")
    limit = max(bound, sys.max_base, sys.max_j)
    members, _ = _saturate(sys, limit)
    mins = [(ms & -ms).bit_length() - 1 if ms else limit + 1 for ms in members]
    return all(j <= min(mins[l1], mins[l2]) for l1, l2, _, j in sys.rules)


# ---------------------------------------------------------------------------
# Derivation trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    label: int
    value: int
    rule: int = None          # index into sys.rules; None for leaves
    left: "Node" = None
    right: "Node" = None

    @property
    def is_leaf(self) -> bool:
        return self.rule is None


@dataclass(frozen=True)
class Violation:
    clause: str
    path: str
    detail: str


def _path_str(path) -> str:
    return "".join(map(str, path)) or "e"


def iter_nodes(tree: Node, path=()):
    yield path, tree
    if not tree.is_leaf:
        yield from iter_nodes(tree.left, path + (0,))
        yield from iter_nodes(tree.right, path + (1,))


def node_at(tree: Node, path) -> Node:
    cur = tree
    for step in path:
        cur = cur.left if step == 0 else cur.right
        if cur is None:
            raise HintikkaError(f"no node at path {_path_str(path)}")
    return cur


def validate_tree(sys: QuadrupleSystem, tree: Node):
    """Check every witness clause; None when valid, else the first violation
    (leaf values in base, rule labels/arithmetic at internal nodes)."""
    for path, node in iter_nodes(tree):
        p = _path_str(path)
        if not (0 <= node.label < sys.m):
            return Violation("b", p, f"label {node.label} out of range")
        if node.value < 0:
            return Violation("c", p, f"value {node.value} is not a natural number")
        if node.is_leaf:
            if node.left is not None or node.right is not None:
                return Violation("d", p, "leaf with children")
            if node.value not in sys.base[node.label]:
                return Violation("e", p,
                                 f"leaf value {node.value} not in base of label {node.label}")
        else:
            if node.left is None or node.right is None:
                return Violation("f", p, "internal node missing a child")
            if not (0 <= node.rule < len(sys.rules)):
                return Violation("d", p, f"rule index {node.rule} out of range")
            l1, l2, l3, j = sys.rules[node.rule]
            if (node.left.label, node.right.label, node.label) != (l1, l2, l3):
                return Violation("f", p, "rule labels do not match children")
            if node.value != node.left.value + node.right.value - j:
                return Violation(
                    "f", p,
                    f"value {node.value} != {node.left.value}+{node.right.value}-{j}")
    return None


def witness_tree(sys: QuadrupleSystem, label: int, value: int, bound: int) -> Node:
    """A derivation tree for a reachable value, rebuilt from the stages of
    the saturation: a value first reached in round r > 0 takes the first
    rule (by index), then the smallest n1, whose two children were both
    reached before round r; a base value is a leaf. It reads the wider
    saturation of ``reach`` with the default slack."""
    members, stages = _saturate(sys, max(bound, sys.max_base) + 2 * sys.default_slack())
    if value < 0 or not (members[label] >> value) & 1:
        raise HintikkaError(f"value {value} not reachable at label {label}")
    before = [(0,) * sys.m]          # before[r]: values reached before round r
    for stage in stages[:-1]:
        before.append(tuple(a | b for a, b in zip(before[-1], stage)))

    def build(l, v):
        r = next(r for r, stage in enumerate(stages) if (stage[l] >> v) & 1)
        if r == 0:
            return Node(l, v)
        seen = before[r]
        for idx, l1, l2, j in sys._producers[l]:
            for n1 in _bits(seen[l1]):
                n2 = v + j - n1
                if n2 < 0:
                    break
                if (seen[l2] >> n2) & 1:
                    return Node(l, v, idx, build(l1, n1), build(l2, n2))
        raise AssertionError(f"no derivation of {v} at label {l} in round {r}")

    return build(label, value)


# ---------------------------------------------------------------------------
# Pumping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PumpPair:
    """A repeatable context: ``low`` is a strict descendant of ``high`` with
    the same label and strictly smaller value; replicating the context
    between them adds delta to the root value each time."""

    low: tuple     # path of the smaller-valued (deeper) node
    high: tuple    # path of the larger-valued ancestor
    delta: int


def peak_nodes(tree: Node) -> set:
    """Paths of nodes all of whose proper descendants carry strictly
    smaller values (the proof's chain set; leaves qualify vacuously)."""
    out = set()

    def rec(node, path):
        best = node.value
        if not node.is_leaf:
            sub0 = rec(node.left, path + (0,))
            sub1 = rec(node.right, path + (1,))
            best = max(best, sub0, sub1)
            if max(sub0, sub1) < node.value:
                out.add(path)
        else:
            out.add(path)
        return best

    rec(tree, ())
    return out


def chain_rank(tree: Node) -> dict:
    """t(nu): the maximum count of peak nodes on a descending chain from nu
    (inclusive) to a strict descendant. Leaves rank 0."""
    peaks = peak_nodes(tree)
    ranks = {}

    def rec(node, p):
        # s(nu): best peak count over maximal chains from nu, counting nu
        if node.is_leaf:
            s = 1 if p in peaks else 0
            ranks[p] = 0
            return s
        s0 = rec(node.left, p + (0,))
        s1 = rec(node.right, p + (1,))
        s = (1 if p in peaks else 0) + max(s0, s1)
        ranks[p] = s
        return s

    rec(tree, ())
    return ranks


def find_pump(tree: Node):
    """A pump pair, or None: both endpoints are peak nodes with equal
    labels, the high node a proper ancestor of the low one. Peakness of the
    ancestor forces n_low < n_high. The low node is the deepest that has
    such an ancestor, the first by path among equals, and the high node its
    nearest such ancestor, so output is canonical.

    One walk, children before parents: each subtree hands up its largest
    value and, per label, the deepest-then-first of its peaks that has no
    peak ancestor of that label inside it. Those peaks all share their
    nearest such ancestor above, so only that one of them can be the
    answer; a peak parent closes the entry of its own label and takes its
    place.
    """
    best = None         # ((-depth, path, value) of the low node, high path, high value)

    def rec(node, path):
        nonlocal best
        if node.rule is None:
            return node.value, {node.label: (-len(path), path, node.value)}
        top, opened = rec(node.left, path + (0,))
        top1, right = rec(node.right, path + (1,))
        for label, low in right.items():
            held = opened.get(label)
            if held is None or low < held:
                opened[label] = low
        if top1 > top:
            top = top1
        if top < node.value:
            low = opened.get(node.label)
            if low is not None and (best is None or low < best[0]):
                best = low, path, node.value
            opened[node.label] = (-len(path), path, node.value)
            top = node.value
        return top, opened

    rec(tree, ())
    if best is None:
        return None
    (_, low, low_value), high, high_value = best
    return PumpPair(low, high, high_value - low_value)


def pump(tree: Node, pair: PumpPair, i: int) -> Node:
    """Replicate the context between the pair i extra times.

    Root value grows by i * delta; the result validates against the same
    system (values inside inserted copies only increase).
    """
    if i < 0:
        raise HintikkaError("repetition count must be a natural number")
    high = node_at(tree, pair.high)
    low = node_at(tree, pair.low)
    if len(pair.low) <= len(pair.high) or pair.low[:len(pair.high)] != pair.high:
        raise HintikkaError("pump pair nodes are not ancestor-descendant")
    if high.label != low.label:
        raise HintikkaError("pump pair labels differ")
    rel_path = pair.low[len(pair.high):]
    return _replace(tree, pair.high, _stack(high, rel_path, low, i))


def _stack(high: Node, rel_path, low: Node, i: int) -> Node:
    """high with the context high->low inserted i extra times above low."""
    plug = low
    for _ in range(i + 1):
        plug = _replace(high, rel_path, plug)
    return plug


def _replace(tree: Node, path, new_sub: Node) -> Node:
    if not path:
        return new_sub
    step, rest = path[0], path[1:]
    if step == 0:
        left = _replace(tree.left, rest, new_sub)
        right = tree.right
    else:
        left = tree.left
        right = _replace(tree.right, rest, new_sub)
    value = left.value + right.value - (tree.left.value + tree.right.value - tree.value)
    return Node(tree.label, value, tree.rule, left, right)


# ---------------------------------------------------------------------------
# Periodicity certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PumpWitness:
    tree: Node
    pair: PumpPair


@dataclass(frozen=True)
class PeriodicityCertificate:
    label: int
    threshold: int
    period: int
    verified_to: int
    status: str                       # certified-progression | empirical | finite
    pump: PumpWitness = None

    def describe(self) -> str:
        line = (f"periodicity label={self.label} threshold={self.threshold} "
                f"period={self.period} verified_to={self.verified_to} status={self.status}")
        if self.pump is not None:
            line += (f" pump_low={_path_str(self.pump.pair.low)}"
                     f" pump_high={_path_str(self.pump.pair.high)}"
                     f" pump_delta={self.pump.pair.delta}")
        return line


def find_period(sys: QuadrupleSystem, label: int, scan_bound: int,
                window: int, config: Config = DEFAULT):
    """Smallest (period, threshold) making membership periodic on the scan
    range, or None when inconclusive.

    For each period p, t0 is one past the last x <= scan_bound - p whose
    membership differs from that of x + p, read off the bitset as the
    length of ``vals ^ vals >> p`` masked to those x. The threshold is the
    first member at or past t0 (t0 itself when there is none), and at least
    three full periods must fit below the scan bound. A pattern with no
    member from its threshold on is finite unless a derivation-tree pump of
    any increment exists within budget: such a pump proves the set
    infinite, so the scan goes on to the next period (that search runs
    once, with period 1). Otherwise the status is certified-progression
    when a pump with increment a multiple of the period exists within
    budget, else empirical. A label that reaches no cycle of the producer
    graph has finitely many derivation trees, none with a pump: its set is
    finite whatever the budget, so its ``finite`` certificate is proved.
    """
    if not 0 <= label < sys.m:
        raise HintikkaError(f"label {label} out of range 0..{sys.m - 1}")
    if window < 1:
        raise HintikkaError("window must be at least 1")
    if scan_bound < 2 * window:
        raise HintikkaError("scan bound must be at least twice the window")
    vals = reach(sys, scan_bound).members[label]
    infinite = None             # whether some pump exists; searched at most once
    for period in range(1, window + 1):
        t0 = ((vals ^ vals >> period) & ((1 << scan_bound - period + 1) - 1)).bit_length()
        rest = vals >> t0
        threshold = t0 + (rest & -rest).bit_length() - 1 if rest else t0
        if threshold + 3 * period > scan_bound:
            continue
        if not rest:
            if infinite is None:
                infinite = _search_pump(sys, label, 1, scan_bound, config) is not None
            if infinite:
                continue
            return PeriodicityCertificate(label, threshold, period, scan_bound, "finite")
        pumpw = _search_pump(sys, label, period, scan_bound, config)
        status = "empirical" if pumpw is None else "certified-progression"
        return PeriodicityCertificate(label, threshold, period, scan_bound, status, pumpw)
    return None


def _search_pump(sys: QuadrupleSystem, label: int, period: int,
                 scan_bound: int, config: Config):
    """Breadth-first over derivation trees by node count, looking for a pump
    whose increment the period divides.

    ``trees(lab, n)`` yields the trees of at most n nodes at ``lab``: the
    base leaves, then per rule (by index) and per split of the n - 1 child
    nodes, every left tree against every right tree, skipping negative
    values; a tree of fewer than n nodes comes again under each larger
    split. ``pump_tree_cap`` counts every tree yielded at any level, repeats
    from these nested enumerations included, and the search stops once it
    is spent, so the count decides which pumps are found. The cap is checked
    at the start of each enumeration and before each (left, right) pair.

    A run of ``trees(lab, n)`` records, per tree, the count spent while it
    ran (its own trees and its subtrees', not its consumer's) and the count
    spent after its last tree. When the run ends with the cap unspent, no
    enumeration inside it was cut short, so the list is the whole
    enumeration; it is kept on the system (``_trees``) and shared by every
    later search of that system, whatever its label, period or cap. A call
    that finds the cap unspent replays a kept list, spending the recorded
    counts at the same points, so a replayed list counts the same as a run.
    A run that ends with the cap spent may have been cut short anywhere
    below, so its list is dropped: a later search with a larger cap would
    replay too few trees.
    A replay checks the cap only at its start, but its consumer is always a
    run (a replay calls nothing), which checks before each tree it makes,
    and the call at the top of each search always runs, even where a list
    of an earlier search is kept for it: so no tree made after the cap is
    spent reaches ``find_pump``. Only runs build trees, and a kept list was
    built by a run of an earlier search or of this one, so the searches of
    one system build no tree that their plain enumerations would not.

    A label that reaches no cycle of the producer graph (``_acyclic``) is
    not searched. A pump pair is two nodes of one label, one a proper
    descendant of the other, and the path between them is a cycle of that
    graph below the root's label; so no tree of such a label has a pump,
    whatever the cap, period or value cap, and the search is None. Skipping
    it changes only which search first keeps a list: a later search that
    finds none kept runs that enumeration instead, and a run counts the cap
    exactly as a replay does, so no search finds another pump.
    """
    if label in sys._acyclic:
        return None
    budget = [config.pump_tree_cap]
    bases, producers, kept = sys._bases, sys._producers, sys._trees

    def trees(lab, max_nodes, replay=True):
        if budget[0] <= 0:
            return
        key = (lab, max_nodes)
        if replay and key in kept:
            items, costs, tail = kept[key]
            for tree, cost in zip(items, costs):
                budget[0] -= cost
                yield tree
            budget[0] -= tail
            return
        items, costs = [], []
        for v in bases[lab]:
            budget[0] -= 1
            items.append(Node(lab, v))
            costs.append(1)
            yield items[-1]
        mark = budget[0]
        for idx, l1, l2, j in producers[lab]:
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
                        items.append(Node(lab, value, idx, lt, rt))
                        costs.append(mark - budget[0])
                        yield items[-1]
                        mark = budget[0]
        if budget[0] > 0:
            kept[key] = (items, costs, mark - budget[0])

    value_cap = max((2 ** sys.m) * sys.max_base + sys.max_j, scan_bound)
    for max_nodes in (1, 3, 5, 7, 9, 11):
        for tree in trees(label, max_nodes, replay=False):
            if tree.value > value_cap:
                continue
            pair = find_pump(tree)
            if pair is not None and pair.delta % period == 0:
                return PumpWitness(tree, pair)
        if budget[0] <= 0:
            break
    return None


def verify_certificate(sys: QuadrupleSystem, cert: PeriodicityCertificate) -> bool:
    """Independent re-check: a fresh saturation (of a copy of ``sys``, so no
    memo filled while the certificate was made is read), exact periodicity
    on the verified range (one masked XOR of the label's bitset), no member
    from the threshold on and no pump for a finite certificate, and (when
    present) pump validity, increment divisibility, and a few pumped
    members landing back in the reach set. A certificate that fails any of
    these, or whose period or threshold is not a positive or a natural
    number, is refused with False."""
    if cert.period < 1 or cert.threshold < 0:
        return False
    fresh = QuadrupleSystem(sys.m, sys.rules, sys.base)     # empty memo
    vals = reach(fresh, cert.verified_to).members[cert.label]
    span = cert.verified_to - cert.period + 1 - cert.threshold
    if span > 0 and ((vals ^ vals >> cert.period) >> cert.threshold) & ((1 << span) - 1):
        return False
    if cert.status == "finite" and (cert.pump is not None or vals >> cert.threshold):
        return False
    if cert.pump is not None:
        tree, pair = cert.pump.tree, cert.pump.pair
        if validate_tree(sys, tree) is not None:
            return False
        if tree.label != cert.label:
            return False
        if pair.delta <= 0 or pair.delta % cert.period != 0:
            return False
        for i in range(1, 4):
            try:
                pumped = pump(tree, pair, i)
            except HintikkaError:           # a path names no node, or no pump pair
                return False
            if validate_tree(sys, pumped) is not None:
                return False
            if pumped.value != tree.value + i * pair.delta:
                return False
            if pumped.value <= cert.verified_to and not (vals >> pumped.value) & 1:
                return False
    return True


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def parse_system(text: str, config: Config = DEFAULT) -> QuadrupleSystem:
    """Read a quadruple system (see serialize_system). Labels, deficits and
    base values are checked at their own line; a label count above
    ``config.system_labels_max`` is refused before anything is built."""
    reader = LineReader(text, ("labels",), ("rule", "base"))
    rules = []
    with reader:
        m = reader.number("labels")
        config.check("system_labels", m, config.system_labels_max)
        base = {}
        for kw, *args in reader:
            if kw == "rule":
                l1, l2, l3, j = args
                rules.append(tuple(reader.integer(x, "rule label", 0, m - 1) for x in (l1, l2, l3))
                             + (reader.integer(j, "rule deficit"),))
            else:
                label = reader.integer(args[0].rstrip(":"), "base label", 0, m - 1)
                base.setdefault(label, set()).update(
                    reader.integer(x, "base value") for x in args[1:])
    try:
        return QuadrupleSystem(m, tuple(rules),
                               tuple(frozenset(base.get(l, ())) for l in range(m)))
    except HintikkaError as exc:
        raise ParseError(str(exc))


def serialize_system(sys: QuadrupleSystem) -> str:
    lines = [f"labels {sys.m}"]
    for l1, l2, l3, j in sys.rules:
        lines.append(f"rule {l1} {l2} {l3} {j}")
    for label, b in enumerate(sys.base):
        if b:
            lines.append(f"base {label}: {' '.join(map(str, sorted(b)))}")
    return "\n".join(lines) + "\n"


def dump_tree(tree: Node) -> str:
    lines = []
    for path, node in iter_nodes(tree):
        indent = "  " * len(path)
        rule = "" if node.is_leaf else f" rule={node.rule}"
        lines.append(f"{indent}node {_path_str(path)} label={node.label} "
                     f"value={node.value}{rule}")
    return "\n".join(lines) + "\n"
