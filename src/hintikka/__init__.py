"""Depth-n monadic theories of finite structures: gluing, closure, spectra.

Names load on first use (PEP 562): ``import hintikka`` imports none of the
package's modules, and the first read of ``hintikka.transfer`` imports
``hintikka.composition``, as the first read of ``hintikka.theory`` imports
that module.
"""

import importlib

# module -> the names the package exports from it; every module named here
# is exported too
_EXPORTS = {
    "closure": ("ClosureState", "CompositionFact", "close", "minimal_derivations",
                "parse_facts", "replay_witness", "validate_replay", "write_facts"),
    "composition": ("Scheme", "disjoint_union_scheme", "enumerate_patterns",
                    "enumerate_schemes", "glue", "parse_scheme", "pattern_key",
                    "plain_union_scheme", "random_table_scheme", "serialize_scheme",
                    "table_extension", "transfer"),
    "config": ("DEFAULT", "Config", "load_config"),
    "decomp": ("Split", "decompose", "decomposability_profile", "find_small_equivalent",
               "naive_decomposable", "validate_split"),
    "diagrams": (),
    "errors": ("BudgetError", "HintikkaError", "ParseError", "SignatureError"),
    "lineformat": (),
    "numbersets": ("PeriodicityCertificate", "PumpPair", "QuadrupleSystem", "chain_rank",
                   "dump_tree", "find_period", "find_pump", "parse_system", "peak_nodes",
                   "pump", "reach", "reach_is_exact", "serialize_system", "validate_tree",
                   "verify_certificate", "witness_tree"),
    "oracle": ("eval_formula", "format_formula", "fragment_depth", "parse_formula",
               "quantifier_depth", "random_sentence", "set_depth", "spectrum_bruteforce"),
    "spectra": ("GapAuditResult", "SpectrumReport", "audit_gaps", "class_spectrum",
                "induce_system", "sentence_spectrum", "spectrum", "spectrum_from_facts"),
    "structures": ("Structure", "Vocabulary", "apply_permutation",
                   "enumerate_representatives", "enumerate_structures", "enumeration_count",
                   "incidence_graph", "parse_structure", "parse_vocab_sig", "path_graph",
                   "serialize_structure"),
    "theory": ("AgreementReport", "FormalTheorySpace", "Interner", "SmallModels", "Theory",
               "compute_theory", "default_interner", "enumerate_formal",
               "small_model_theories", "theories_equal_on_sentences"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _OWNER:
        value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
