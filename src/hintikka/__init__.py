"""Depth-n monadic theories of finite structures: gluing, closure, spectra."""

from .closure import (
    ClosureState,
    CompositionFact,
    close,
    minimal_derivations,
    parse_facts,
    replay_witness,
    validate_replay,
    write_facts,
)
from .composition import (
    Scheme,
    disjoint_union_scheme,
    enumerate_patterns,
    enumerate_schemes,
    glue,
    parse_scheme,
    pattern_key,
    plain_union_scheme,
    random_table_scheme,
    serialize_scheme,
    table_extension,
    transfer,
)
from .config import DEFAULT, Config, load_config
from .decomp import (
    Split,
    decompose,
    decomposability_profile,
    find_small_equivalent,
    naive_decomposable,
    validate_split,
)
from .errors import BudgetError, HintikkaError, ParseError, SignatureError
from .numbersets import (
    PeriodicityCertificate,
    PumpPair,
    QuadrupleSystem,
    chain_rank,
    dump_tree,
    find_period,
    find_pump,
    parse_system,
    peak_nodes,
    pump,
    reach,
    reach_is_exact,
    serialize_system,
    validate_tree,
    verify_certificate,
    witness_tree,
)
from .oracle import (
    eval_formula,
    format_formula,
    fragment_depth,
    parse_formula,
    quantifier_depth,
    random_sentence,
    set_depth,
    spectrum_bruteforce,
)
from .spectra import (
    GapAuditResult,
    SpectrumReport,
    audit_gaps,
    class_spectrum,
    induce_system,
    sentence_spectrum,
    spectrum,
    spectrum_from_facts,
)
from .structures import (
    Structure,
    Vocabulary,
    apply_permutation,
    enumerate_representatives,
    enumerate_structures,
    enumeration_count,
    incidence_graph,
    parse_structure,
    parse_vocab_sig,
    path_graph,
    serialize_structure,
)
from .theory import (
    AgreementReport,
    FormalTheorySpace,
    Interner,
    SmallModels,
    Theory,
    compute_theory,
    default_interner,
    enumerate_formal,
    small_model_theories,
    theories_equal_on_sentences,
)

__all__ = [name for name in dir() if not name.startswith("_")]
