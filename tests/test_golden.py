"""Golden values: digests and outputs pinned byte for byte, so that a change
to diagram construction, pattern order or formal-space interning is always
deliberate.

Claims:
    - theory digests of seeded structures at depths 0-2 (constants, repeated
      constants, a set column) are fixed
    - pattern-dump and schemes-enumerate stdout is fixed
    - theory --dump stdout of a ternary model, whose relation words hold
      more than 64 atoms (125 over five classes), is fixed at depths 0 and 1
    - formal theory spaces have fixed cardinalities and member digests
"""

import hashlib
import random

import pytest

from conftest import rand_structure
from hintikka.cli import run
from hintikka.composition import random_table_scheme, serialize_scheme
from hintikka.structures import Structure, Vocabulary
from hintikka.theory import Interner, compute_theory, enumerate_formal

GRAPHS = (("E", 2),)
UNARY = (("S", 1),)

# (predicates, constants, set columns) -> digests of the seeded structures
# of sizes 3, 4, 3 at depths 0, 1, 2, drawn in this order from Random(4)
SEEDED_DIGESTS = {
    (GRAPHS, 0, 0): (
        "c01bd3f318a252a9399ab1ba8eae5d6b97e785a474c440a09b9a2ac7388390d4",
        "15456faa2bfab4890915d503bb6b6053bfe2ec3e62868fabad153cda5ab13d2b",
        "1027e89637139cb3c0549a0eaf54415a2ecb7e41fb3a5a12d4bf67e089ed36c0",
    ),
    (GRAPHS, 1, 1): (
        "5e2ccb4ae9b65e5187be3dfc2a0d4f6581dce712cc8e4646f846b1c177186828",
        "ab9f4c10f120cd4a047403fef82532d224f5b070164bfb78a2a2921f1711d6db",
        "9bbd7867b98b97f33845ea75e1ba59ea8f6e9b40274345a78b83f2d01b8caa8b",
    ),
    (UNARY, 2, 1): (
        "caff63ba0b102ddf4dc138e426b37a6869b5e928f1fc4f9e174552c9fab73aa6",
        "c6ea6343d4b03a9670f48ebe392389001023c60b5117a8d3675ea51e42aceca2",
        "2d89077e60576d6dc3d1fd1ddce067bfbab924a8e1509a824440fa1b1abee690",
    ),
    (GRAPHS + UNARY, 1, 1): (
        "cc4603a33be0ddfb76c12641c6351ae96a90f6ca446fe192fd0c7cc8484a25ff",
        "8d7de6c244ea4be2b1ad0a175e92d2cad39b3f4d66a88dc34f122eb2eb9b63f9",
        "ac4a0f348af67334283e620bac0b625b93cf53fd018132354a97ba8b2ce69b46",
    ),
}


def test_seeded_theory_digests():
    rng = random.Random(4)
    for (preds, k, nsets), digests in SEEDED_DIGESTS.items():
        vocab = Vocabulary(preds, k, nsets)
        for (size, depth), digest in zip(((3, 0), (4, 1), (3, 2)), digests):
            m = rand_structure(vocab, size, rng)
            assert compute_theory(m, depth, Interner()).digest == digest, (vocab, depth)


@pytest.mark.parametrize("depth, digest", [
    (0, "4e538162fd27bb681e247cd0f01c62676389dcb275be5eb39313a1730ece0e09"),
    (1, "464873d643367d345710084d0246d5df3cc8dfa2406b47b7f9df22eb2937debd"),
    (2, "254151c1219b2d77de6e408906e7086c793ff51e513d94833183623498d01a05"),
])
def test_repeated_constants_digest(depth, digest):
    """Two constants naming one element: the constant core has one class."""
    vocab = Vocabulary(GRAPHS + UNARY, 2, 1)
    m = Structure(vocab, 3, (frozenset({(0, 1), (1, 1), (2, 0)}), frozenset({(1,)})),
                  (1, 1), (frozenset({0, 1}),))
    assert compute_theory(m, depth, Interner()).digest == digest


def _stdout_sha(capsys, argv):
    assert run(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


# a ternary predicate over the five classes of a 4-tuple and two constants
# has 125 atoms, more than one machine word holds
TERNARY_TEXT = """vocab R/3 E/2
consts 2
size 5
const 0 = 0
const 1 = 3
rel R: (0,1,2) (2,2,1) (1,0,0) (4,3,2) (3,4,4) (2,4,0)
rel E: (0,1) (1,2) (2,2) (4,0) (3,1)
"""


@pytest.mark.parametrize("depth, stdout_sha", [
    (0, "047265a0699d2950fd1ac36b754dc1dcd57204f0c5dfd662c5cb54e94800fd34"),
    (1, "13b14138be79248c0cd0e083ab042df7fd8248af705259af888407c2892d1c4f"),
])
def test_wide_relation_words_dump_golden(capsys, tmp_path, depth, stdout_sha):
    path = tmp_path / "ternary.struct"
    path.write_text(TERNARY_TEXT)
    assert _stdout_sha(capsys, ["theory", "--model", str(path), "--depth", str(depth),
                                "--dump"]) == stdout_sha


def test_pattern_dump_golden(capsys, tmp_path):
    """Patterns of a PRF scheme with an identified pair, over a vocabulary
    with a set column: relations first, then set columns."""
    vocab = Vocabulary(GRAPHS, 1, 1)
    scheme = random_table_scheme(vocab, 1, 1, 1, 7, ident=((0, 0),),
                                 result_refs=(("s", 0, 0),))
    path = tmp_path / "prf.scm"
    path.write_text(serialize_scheme(scheme))
    assert _stdout_sha(capsys, ["pattern-dump", "--vocab", "E/2", "--sets", "1",
                                "--scheme", str(path)]) == (
        "b3304cdd8a4047399091dae56da3e7662626f7ba380c2b9d716177893634b166")


def test_schemes_enumerate_golden(capsys):
    assert _stdout_sha(capsys, ["schemes-enumerate", "--vocab", "S/1", "--k1", "1",
                                "--k2", "1", "--k", "1", "--kstar", "2"]) == (
        "c7e9c4aba386bf485c45e380b9217cba8f2808593cad749657fb5300f50377d6")


@pytest.mark.parametrize("preds, k, depth, cardinality, members_sha", [
    ((), 0, 0, 3, "f53854f7d22d670fc5f829d112e31d21b263938c73970f033a47b76186b990f9"),
    (UNARY, 0, 0, 13, "c48751afd883eda5c71a9d36c7fbbc97f002ea316f8dd087756dbd1b23196ac5"),
    ((), 1, 0, 7, "e08d34ca2a15d5a7b8e1b83b9bceece257e6390a09a12760c3d64630e11ecdaf"),
    ((), 2, 0, 37, "5240810c8297a36e0a9bd16af77915fcc67a6af67d76ced68d687f0ed7150e79"),
    ((), 0, 1, 8192, "9d3e5da9a5809c93317cc32572e89f1ceaed573bfbc05ea9719b7bc9efb27886"),
])
def test_formal_space_golden(preds, k, depth, cardinality, members_sha):
    space = enumerate_formal(Vocabulary(preds, k), depth, budget=2 ** 22,
                             interner=Interner())
    digests = sorted(t.digest for t in space.members())
    assert space.cardinality == len(digests) == cardinality
    assert hashlib.sha256("\n".join(digests).encode("utf-8")).hexdigest() == members_sha
