import itertools
import random

import pytest
from hypothesis import strategies as st

from hintikka.structures import Structure, Vocabulary


def rand_structure(vocab, size, rng):
    """Seeded random structure; constants sampled without replacement."""
    rels = []
    for _, ar in vocab.predicates:
        tuples = list(itertools.product(range(size), repeat=ar))
        rels.append(frozenset(t for t in tuples if rng.random() < 0.4))
    consts = tuple(rng.sample(range(size), vocab.num_consts))
    sets = tuple(frozenset(e for e in range(size) if rng.random() < 0.5)
                 for _ in range(vocab.num_sets))
    return Structure(vocab, size, tuple(rels), consts, sets)


@pytest.fixture
def graphs():
    return Vocabulary((("E", 2),))


def triangle(num_consts=0, consts=()):
    v = Vocabulary((("E", 2),), num_consts)
    edges = frozenset({(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)})
    return Structure(v, 3, (edges,), tuple(consts))


def k2_graph(num_consts=0, consts=()):
    v = Vocabulary((("E", 2),), num_consts)
    return Structure(v, 2, (frozenset({(0, 1), (1, 0)}),), tuple(consts))


def matching_graph(pairs):
    """Disjoint union of `pairs` single edges."""
    v = Vocabulary((("E", 2),))
    edges = set()
    for i in range(pairs):
        edges |= {(2 * i, 2 * i + 1), (2 * i + 1, 2 * i)}
    return Structure(v, 2 * pairs, (frozenset(edges),))


# Characters and keywords the line formats are made of, for mutation fuzzing.
FUZZ_ALPHABET = tuple(" =:,()#-/~.\n0123456789abstx") + (
    "rule", "base", "labels", "fact", "t=", "size=", "j=", "vocab", "size",
    "consts", "sets", "const", "rel", "set", "E/2",
    "scheme", "k1=", "k2=", "k=", "ident", "drop1", "drop2", "result", "table",
    "default=", "random=", "pattern", "union", "true", "false", '"', "1.", "2.",
)


def _apply_edits(text, edits):
    for op, pos, token in edits:
        i = pos % (len(text) + 1)
        if op == "delete":
            text = text[:i] + text[i + 1:]
        elif op == "insert":
            text = text[:i] + token + text[i:]
        elif op == "replace":
            text = text[:i] + token + text[i + 1:]
        else:                                   # cut a span of up to 8 characters
            text = text[:i] + text[i + 8:]
    return text


def mutated(text):
    """Strategy: ``text`` after one to three character-level edits."""
    edit = st.tuples(st.sampled_from(("delete", "insert", "replace", "cut")),
                     st.integers(min_value=0, max_value=len(text)),
                     st.sampled_from(FUZZ_ALPHABET))
    return st.lists(edit, min_size=1, max_size=3).map(
        lambda edits: _apply_edits(text, edits))
