"""Source hygiene of the package.

Claims:
    - no module under src/hintikka imports a name it never reads (the
      package ``__init__`` re-exports its imports, and ``__future__``
      imports are directives, so both are exempt)
    - every private function, method or class under src/hintikka (a name
      with a leading underscore, dunders exempt) is read somewhere in the
      package
    - every public attribute that ``Interner.__init__`` declares (its
      tables and memos) is read somewhere in the package outside the
      ``Interner`` class, so a memo that was folded into another cannot
      linger
    - every ``__slots__`` entry of a class under src/hintikka is read
      somewhere in the package outside that class's ``__init__``, so a slot
      that is only ever set cannot linger
    - every public module-level function or class under src/hintikka that
      the export table of the package ``__init__`` does not list is read
      somewhere in the package outside its own definition
    - no module under src/hintikka but the line reader (``lineformat.py``)
      calls ``.splitlines()`` or passes ``"#"`` to a string method, so input
      lines are split and comments stripped in one place
    - neither ``composition.py`` nor ``DiagramEngine`` calls ``unpack_bits``,
      and neither ``DiagramEngine``, ``subdiagram``, ``_join`` nor
      ``_pack_side`` calls ``unpack_rel``, so the transfer kernel and Th^0
      read set columns and relation words as bits and never turn them back
      into bool tuples
    - no module under src/hintikka imports ``concurrent``,
      ``multiprocessing`` or ``threading``, so every command runs in one
      thread of one process and the unlocked ``Interner`` stays safe
    - no module under src/hintikka but ``theory.py`` calls ``Theory``: the
      interner builds one object per theory value, and a second object for
      one value would break identity equality
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hintikka"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == \
        [(1, "os"), (2, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(tree) -> list:
    """(line, name) of every function, method or class named with a leading
    underscore, dunders excluded."""
    return [(node.lineno, node.name) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def names_read(tree) -> set:
    """Every name or attribute the module reads."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            read.add(node.attr)
    return read


def dead_private_helpers(sources: dict) -> list:
    """(module, line, name) of each private definition that no module of
    ``sources`` (module name -> source text) reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(names_read, trees.values()))
    return sorted((name, line, defined) for name, tree in trees.items()
                  for line, defined in private_definitions(tree) if defined not in read)


def test_scan_finds_a_dead_private_helper():
    sources = {
        "a.py": "def _used():\n    pass\ndef _dead():\n    pass\n",
        "b.py": ("from a import _used\nclass _C:\n    def __init__(self):\n"
                 "        self._slot = _used()\n    def _unread(self):\n        pass\n"
                 "_C()\n"),
    }
    assert dead_private_helpers(sources) == [("a.py", 3, "_dead"), ("b.py", 5, "_unread")]


def test_no_dead_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert dead_private_helpers(sources) == []


def unread_interner_attributes(sources: dict) -> list:
    """(line, name) of each public attribute that ``Interner.__init__`` in
    ``theory.py`` assigns and that no module of ``sources`` reads outside
    the ``Interner`` class (``sizes()`` reads them all through ``vars``)."""
    read = set()
    declared = []
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "Interner":
                if name == "theory.py":
                    init = next(f for f in node.body
                                if isinstance(f, ast.FunctionDef) and f.name == "__init__")
                    declared += [(t.lineno, t.attr) for t in ast.walk(init)
                                 if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                                 and not t.attr.startswith("_")]
                node.body = []
        read |= names_read(tree)
    return [(line, attr) for line, attr in declared if attr not in read]


def test_scan_finds_an_unread_interner_attribute():
    sources = {
        "theory.py": ("class Interner:\n    def __init__(self):\n        self._lock = None\n"
                      "        self.used = {}\n        self.unused = {}\n"
                      "    def size(self):\n        return len(self.unused)\n"),
        "kernel.py": "def f(interner):\n    return interner.used.get(1)\n",
    }
    assert unread_interner_attributes(sources) == [(5, "unused")]


def test_no_unread_interner_attributes():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_interner_attributes(sources) == []


def unread_slots(sources: dict) -> list:
    """(module, line, name) of each ``__slots__`` entry of a class of
    ``sources`` that no module reads as an attribute outside the
    ``__init__`` of that class."""
    def attribute_reads(tree) -> Counter:
        return Counter(node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store))

    reads = Counter()
    slots = []      # (module, line, name, reads inside the class's __init__)
    for module, source in sources.items():
        tree = ast.parse(source)
        reads += attribute_reads(tree)
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            init = Counter()
            for f in cls.body:
                if isinstance(f, ast.FunctionDef) and f.name == "__init__":
                    init = attribute_reads(f)
            for stmt in cls.body:
                if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets):
                    slots += [(module, elt.lineno, elt.value, init[elt.value])
                              for elt in stmt.value.elts]
    return sorted((module, line, name) for module, line, name, in_init in slots
                  if reads[name] <= in_init)


def test_scan_finds_an_unread_slot():
    sources = {
        "kernel.py": ("class _Memo:\n    __slots__ = ('packs', 'lifted', 'joins')\n\n"
                      "    def __init__(self):\n        self.packs, self.joins = [], {}\n"
                      "        self.lifted = []\n        self.lifted.append(self.packs)\n\n"
                      "    def size(self):\n        return len(self.packs)\n"),
        "theory.py": "def joined(memo):\n    return memo.joins\n",
    }
    assert unread_slots(sources) == [("kernel.py", 2, "lifted")]


def test_no_unread_slots():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_slots(sources) == []


def unread_unexported_definitions(sources: dict) -> list:
    """(module, line, name) of each public module-level function or class
    of ``sources`` (module name -> source text) that the export table
    ``_EXPORTS`` of ``__init__.py`` (module -> names) does not list and
    that no top-level statement other than its own definition reads."""
    table = next(stmt.value for stmt in ast.parse(sources["__init__.py"]).body
                 if isinstance(stmt, ast.Assign)
                 and any(getattr(t, "id", None) == "_EXPORTS" for t in stmt.targets))
    exported = {name for names in ast.literal_eval(table).values() for name in names}
    read = set()
    defined = []
    for name, source in sources.items():
        if name == "__init__.py":
            continue
        for stmt in ast.parse(source).body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not own.startswith("_") and own not in exported:
                defined.append((name, stmt.lineno, own))
            read |= names_read(stmt) - {own}
    return sorted(d for d in defined if d[2] not in read)


def test_scan_finds_an_unread_unexported_definition():
    sources = {
        "__init__.py": "_EXPORTS = {'a': ('exported',), 'b': ()}\n",
        "a.py": ("def exported():\n    return helper()\ndef helper():\n    pass\n"
                 "def dead(n):\n    return dead(n - 1)\nclass Unused:\n    pass\n"),
        "b.py": "import a\nclass Kept:\n    pass\nKEPT = Kept()\n",
    }
    assert unread_unexported_definitions(sources) == [("a.py", 5, "dead"), ("a.py", 7, "Unused")]


def test_no_unread_unexported_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_unexported_definitions(sources) == []


READER = "lineformat.py"


def private_line_readers(source: str) -> list:
    """(line, method) of each ``.splitlines()`` call and each call given the
    comment mark ``"#"``: the ways a module would split or strip input text
    on its own instead of through the line reader."""
    return sorted((node.lineno, node.func.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and (node.func.attr == "splitlines"
                       or any(isinstance(arg, ast.Constant) and arg.value == "#"
                              for arg in node.args)))


def test_scan_finds_a_private_line_reader():
    source = ("def parse(text):\n    for raw in text.splitlines():\n"
              "        line = raw.split('#', 1)[0]\n        key = line.partition('=')\n")
    assert private_line_readers(source) == [(2, "splitlines"), (3, "split")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != READER], ids=lambda p: p.name)
def test_only_the_line_reader_splits_input_lines(path):
    assert private_line_readers(path.read_text(encoding="utf-8")) == []


def calls_to(tree, name: str) -> list:
    """Lines of the calls to function ``name`` under an AST node, by name or
    as an attribute."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == name)


def test_scan_finds_an_unpack_bits_call():
    source = ("from .diagrams import unpack_bits\nfrom . import diagrams\n"
              "def join(word, n):\n"
              "    return unpack_bits(word, n), diagrams.unpack_bits(word, 1)\n")
    assert calls_to(ast.parse(source), "unpack_bits") == [4, 4]


def test_scan_finds_an_unpack_rel_call():
    source = ("from .diagrams import unpack_rel\nfrom . import diagrams\n"
              "class Engine:\n    def row(self, rel):\n"
              "        return diagrams.unpack_rel(rel), [unpack_rel(w) for w in (rel,)]\n")
    assert calls_to(ast.parse(source), "unpack_rel") == [5, 5]
    assert calls_to(ast.parse(source), "unpack_bits") == []


def definitions(tree, names) -> dict:
    """The module-level function and class definitions of ``tree`` named in
    ``names``, by name."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names}


def test_kernel_and_engine_keep_set_columns_as_bits():
    composition = ast.parse((PACKAGE / "composition.py").read_text(encoding="utf-8"))
    diagrams = ast.parse((PACKAGE / "diagrams.py").read_text(encoding="utf-8"))
    bit_readers = {**definitions(composition, ("_join", "_pack_side")),
                   **definitions(diagrams, ("DiagramEngine", "subdiagram"))}
    assert len(bit_readers) == 4
    assert calls_to(composition, "unpack_bits") == []
    assert calls_to(bit_readers["DiagramEngine"], "unpack_bits") == []
    for name, node in bit_readers.items():
        assert calls_to(node, "unpack_rel") == [], name


CONCURRENCY = ("concurrent", "multiprocessing", "threading")


def concurrency_imports(source: str) -> list:
    """(line, module) of each absolute import of a thread or process pool
    package (``CONCURRENCY``) or of one of its submodules, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[0] in CONCURRENCY]
    return sorted(found)


def test_scan_finds_a_concurrency_import():
    source = ("import os, threading as t\nfrom concurrent.futures import ProcessPoolExecutor\n"
              "from .threading import local\ndef run():\n    import multiprocessing.pool\n")
    assert concurrency_imports(source) == [
        (1, "threading"), (2, "concurrent.futures"), (5, "multiprocessing.pool")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_concurrency_imports(path):
    assert concurrency_imports(path.read_text(encoding="utf-8")) == []


def theory_constructions(source: str) -> list:
    """Lines of the calls to ``Theory``, by name or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Theory")


def test_scan_finds_a_theory_construction():
    source = ("from .theory import Theory\nfrom . import theory\n"
              "def handle(interner, tid):\n"
              "    return Theory(interner, tid), theory.Theory(interner, tid)\n")
    assert theory_constructions(source) == [4, 4]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "theory.py"],
                         ids=lambda p: p.name)
def test_only_the_interner_builds_theories(path):
    assert theory_constructions(path.read_text(encoding="utf-8")) == []


# the functions that build theories, with the position of their interner
# argument; ``small_model_theories`` alone still falls back to the default
INTERNER_POSITIONS = {"compute_theory": 2, "enumerate_formal": 2, "small_model_theories": 3,
                      "theories_equal_on_sentences": 5, "find_small_equivalent": 3}
TESTS = Path(__file__).resolve().parent
TEST_MODULES = sorted(TESTS.glob("test_*.py"))
# the one test that reads the default interner: census calls
# small_model_theories with no interner and reads the default's sizes
CONTRACT_TEST = ("test_theory.py", "test_small_models_without_interner_fill_the_default")


def top_level_owner(tree):
    """Map from each node under ``tree`` to the name of the module-level
    definition holding it (None at module level)."""
    owner = {}
    for stmt in tree.body:
        name = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            owner[node] = name
    return owner


def default_interner_reads(source: str) -> list:
    """(line, owner) of each read or import of ``default_interner``, with the
    module-level definition that holds it (None at module level)."""
    tree = ast.parse(source)
    owner = top_level_owner(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Store):
            names = [getattr(node, "id", getattr(node, "attr", None))]
        else:
            continue
        found += [(node.lineno, owner[node]) for name in names if name == "default_interner"]
    return sorted(found, key=lambda f: f[0])


def test_scan_finds_a_default_interner_read():
    source = ("from .theory import default_interner\nfrom . import theory\n"
              "def default_interner():\n    return 'defined, not read'\n"
              "def build(m, interner=None):\n"
              "    return theory.default_interner() if interner is None else interner\n"
              "NAMES = ['default_interner']\n")
    assert default_interner_reads(source) == [(1, None), (6, "build")]


def test_only_the_cli_and_small_model_fallback_read_the_default_interner():
    owners = {(p.name, owner) for p in PACKAGE.glob("*.py") if p.name != "cli.py"
              for _, owner in default_interner_reads(p.read_text(encoding="utf-8"))}
    assert owners == {("theory.py", "small_model_theories")}


def test_only_the_contract_test_reads_the_default_interner():
    owners = {(p.name, owner) for p in TEST_MODULES
              for _, owner in default_interner_reads(p.read_text(encoding="utf-8"))}
    assert owners == {CONTRACT_TEST}


def interner_or(source: str) -> list:
    """Lines of each ``or`` whose left operand is a name or attribute ending
    in ``interner``: an empty ``Interner`` is falsy, so ``interner or x``
    swaps a fresh interner for ``x``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or)
                  and any(getattr(v, "id", getattr(v, "attr", "")).endswith("interner")
                          for v in node.values[:-1]))


def test_scan_finds_an_interner_or():
    source = ("def f(interner=None, t=None):\n    a = interner or default()\n"
              "    b = t.interner or default()\n    c = default() or interner\n"
              "    return interner if interner is not None else default()\n")
    assert interner_or(source) == [2, 3]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_interner_or(path):
    assert interner_or(path.read_text(encoding="utf-8")) == []


def load_time_interners(source: str) -> list:
    """Lines of each ``Interner()`` call that runs when the module is loaded:
    at module or class level, or in a default argument value or decorator."""
    found = []

    def visit(node):
        if isinstance(node, ast.Call) and \
                getattr(node.func, "id", getattr(node.func, "attr", None)) == "Interner":
            found.append(node.lineno)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            children = [*node.args.defaults, *filter(None, node.args.kw_defaults),
                        *getattr(node, "decorator_list", ())]
        else:
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child)

    visit(ast.parse(source))
    return sorted(found)


def test_scan_finds_a_load_time_interner():
    source = ("from . import theory\nSHARED = theory.Interner()\n"
              "class Cache:\n    interner = Interner()\n"
              "def build(m, interner=Interner()):\n    return Interner()\n"
              "fresh = lambda: Interner()\n")
    assert load_time_interners(source) == [2, 4, 5]


@pytest.mark.parametrize("path", [*sorted(PACKAGE.glob("*.py")), *TEST_MODULES],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_load_time_interner_but_the_default(path):
    source = path.read_text(encoding="utf-8")
    allowed = [n + 1 for n, line in enumerate(source.splitlines())
               if line == "_DEFAULT_INTERNER = Interner()"] if path.name == "theory.py" else []
    assert load_time_interners(source) == allowed


def calls_without_interner(tree) -> list:
    """(line, function) of each call under ``tree`` to a function of
    ``INTERNER_POSITIONS`` that passes no interner, neither by keyword nor at
    its position (a starred argument counts as passing one)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name not in INTERNER_POSITIONS:
            continue
        if len(node.args) > INTERNER_POSITIONS[name] \
                or any(isinstance(arg, ast.Starred) for arg in node.args) \
                or any(kw.arg in ("interner", None) for kw in node.keywords):
            continue
        found.append((node.lineno, name))
    return sorted(found)


def test_scan_finds_a_call_without_interner():
    source = ("from hintikka import theory\n"
              "def test_it(interner):\n"
              "    theory.compute_theory(m, 0)\n    compute_theory(m, 0, interner)\n"
              "    enumerate_formal(v, 1, budget=8)\n"
              "    enumerate_formal(v, 1, interner=interner)\n"
              "    small_model_theories(v, 0, 2, config=c)\n    small_model_theories(*args)\n"
              "    find_small_equivalent(m, 0, 3)\n    find_small_equivalent(m, 0, 3, **kw)\n"
              "    theories_equal_on_sentences(a, b, 0, 10, 3)\n")
    assert calls_without_interner(ast.parse(source)) == [
        (3, "compute_theory"), (5, "enumerate_formal"), (7, "small_model_theories"),
        (9, "find_small_equivalent"), (11, "theories_equal_on_sentences")]


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_tests_pass_an_interner(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    tree.body = [stmt for stmt in tree.body
                 if (path.name, getattr(stmt, "name", None)) != CONTRACT_TEST]
    assert calls_without_interner(tree) == []
