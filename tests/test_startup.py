"""Start-up cost: the package loads its modules on first use.

Claims, each checked in a fresh interpreter:
    - ``import hintikka`` imports none of the package's modules
    - the CLI and the modules the benchmark imports load neither the oracle,
      the decomposition search, the self-check nor ``fractions``: only the
      commands that run them import them
    - every exported name is its module's object, ``__all__`` and ``dir``
      list the same names as the eager package did, a module of the package
      resolves as an attribute, and an unknown name raises AttributeError
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the package's __all__ when it imported every module up front: 86 names
# and 12 modules
ALL = [
    "AgreementReport", "BudgetError", "ClosureState", "CompositionFact", "Config", "DEFAULT",
    "FormalTheorySpace", "GapAuditResult", "HintikkaError", "Interner", "ParseError",
    "PeriodicityCertificate", "PumpPair", "QuadrupleSystem", "Scheme", "SignatureError",
    "SmallModels", "SpectrumReport", "Split", "Structure", "Theory", "Vocabulary",
    "apply_permutation", "audit_gaps", "chain_rank", "class_spectrum", "close", "closure",
    "composition", "compute_theory", "config", "decomp", "decomposability_profile",
    "decompose", "default_interner", "diagrams", "disjoint_union_scheme", "dump_tree",
    "enumerate_formal", "enumerate_patterns", "enumerate_representatives",
    "enumerate_schemes", "enumerate_structures", "enumeration_count", "errors",
    "eval_formula", "find_period", "find_pump", "find_small_equivalent", "format_formula",
    "fragment_depth", "glue", "incidence_graph", "induce_system", "lineformat",
    "load_config", "minimal_derivations", "naive_decomposable", "numbersets", "oracle",
    "parse_facts", "parse_formula", "parse_scheme", "parse_structure", "parse_system",
    "parse_vocab_sig", "path_graph", "pattern_key", "peak_nodes", "plain_union_scheme",
    "pump", "quantifier_depth", "random_sentence", "random_table_scheme", "reach",
    "reach_is_exact", "replay_witness", "sentence_spectrum", "serialize_scheme",
    "serialize_structure", "serialize_system", "set_depth", "small_model_theories",
    "spectra", "spectrum", "spectrum_bruteforce", "spectrum_from_facts", "structures",
    "table_extension", "theories_equal_on_sentences", "theory", "transfer",
    "validate_replay", "validate_split", "validate_tree", "verify_certificate",
    "witness_tree", "write_facts",
]

UNUSED_BY_THE_BENCHMARK = ["fractions", "hintikka.decomp", "hintikka.oracle",
                           "hintikka.selfcheck"]


def fresh(code: str):
    """What ``code`` prints as JSON, run in a fresh interpreter that imports
    the package from this checkout."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def benchmark_imports() -> list:
    """The package modules that ``perfbench/workloads.py`` imports."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    return sorted(alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) and node.module == "hintikka"
                  for alias in node.names)


def test_import_loads_no_module_of_the_package():
    assert fresh("import json, sys, hintikka\n"
                 "print(json.dumps(sorted(m for m in sys.modules "
                 "if m.startswith('hintikka.'))))") == []


def test_cli_and_benchmark_modules_load_only_what_they_run():
    modules = benchmark_imports()
    assert "cli" in modules and "spectra" in modules
    loaded = fresh(f"import json, sys\nfrom hintikka import {', '.join(modules)}\n"
                   f"print(json.dumps(sorted(sys.modules)))")
    assert [m for m in UNUSED_BY_THE_BENCHMARK if m in loaded] == []
    assert [m for m in (f"hintikka.{name}" for name in modules) if m not in loaded] == []


def test_every_export_is_its_modules_object():
    assert fresh("import importlib, json, hintikka\n"
                 "print(json.dumps([name for module, names in hintikka._EXPORTS.items()\n"
                 "    for name in names if getattr(hintikka, name) is not\n"
                 "    getattr(importlib.import_module('hintikka.' + module), name)]))") == []


def test_all_and_dir_list_the_eager_packages_names():
    assert len(ALL) == 98
    names, listed = fresh("import json, hintikka\n"
                          "print(json.dumps([hintikka.__all__, dir(hintikka)]))")
    assert names == ALL
    assert [name for name in ALL if name not in listed] == []


def test_module_resolves_after_a_bare_import():
    assert fresh("import json, hintikka\n"
                 "print(json.dumps([hintikka.theory.__name__, hintikka.transfer.__module__]))"
                 ) == ["hintikka.theory", "hintikka.composition"]


def test_unknown_name_raises_attribute_error():
    assert fresh("import json, hintikka\n"
                 "try:\n    hintikka.no_such_name\nexcept AttributeError as exc:\n"
                 "    print(json.dumps(str(exc)))\n"
                 "else:\n    print(json.dumps(None))"
                 ) == "module 'hintikka' has no attribute 'no_such_name'"
