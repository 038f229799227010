"""Static checks over the library source."""

import ast
import re
from collections import Counter
from pathlib import Path

import pinforms
from pinforms import verify

SOURCES = sorted(Path(pinforms.__file__).parent.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_library_has_no_assert_statements():
    # an assert vanishes under python -O; runtime checks raise InvariantViolation instead
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _float_dtypes(path: Path) -> list[str]:
    """Float dtypes: ``np.float*`` attributes, ``"float*"`` dtype strings, and ``float`` passed to ``astype`` or ``dtype``."""
    tree = _tree(path)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            if node.attr.startswith("float"):
                lines.add(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"float\d*", node.value):
            lines.add(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            passed = list(node.args) if func in ("astype", "dtype") else []
            passed += [k.value for k in node.keywords if k.arg == "dtype"]
            if any(isinstance(a, ast.Name) and a.id == "float" for a in passed):
                lines.add(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_library_uses_no_float_dtype():
    # every kernel works over GF(2) or Z/m in integer arrays; a float product is exact only below a bound
    assert [found for path in SOURCES for found in _float_dtypes(path)] == []


def test_float_dtype_check_sees_each_kind_of_use(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "a = np.float32(1)\n"
        "b = x.astype(np.float64)\n"
        "c = x.astype('float32')\n"
        "d = np.zeros(3, dtype='float')\n"
        "e = x.astype(float)\n"
        "f = np.array(x, dtype=float)\n"
        "g = np.dtype(float)\n"
        "h = x.astype(np.uint32)\n"
        "i = 'a float32 product is exact'\n"
        "j = float(x)\n"
        "k = numpy.float16\n"
        "m = np.zeros(3, dtype=int)\n",
        encoding="utf-8",
    )
    assert _float_dtypes(source) == [f"probe.py:{line}" for line in (1, 2, 3, 4, 5, 6, 7, 11)]


def _import_time_statements(statements):
    """The statements that run when a module is imported: its body, with class bodies and the blocks of
    ``if``, ``try``, ``with``, loops and ``match``, but no function body."""
    for node in statements:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for block in ("body", "orelse", "finalbody", "handlers", "cases"):
                yield from _import_time_statements(getattr(node, block, ()))


def _module_level_numpy_imports(path: Path) -> list[str]:
    """``import numpy``, ``import numpy as np``, ``import numpy.x`` and ``from numpy import x`` that run at import."""
    found = []
    for node in _import_time_statements(_tree(path).body):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.partition(".")[0] == "numpy" for module in modules):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_library_imports_numpy_only_inside_functions():
    # import pinforms and a one-structure query must not load numpy: each kernel that uses it imports it itself
    assert [found for path in SOURCES for found in _module_level_numpy_imports(path)] == []


def test_numpy_import_check_sees_each_kind_of_import(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import numpy\n"
        "import numpy as np\n"
        "from numpy import x\n"
        "import os, numpy.linalg\n"
        "class Host:\n"
        "    import numpy\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    from numpy import y\n"
        "def kernel():\n"
        "    import numpy as np\n"
        "class Other:\n"
        "    def method(self):\n"
        "        import numpy\n"
        "from .numpy import z\n"
        "import numpyish\n",
        encoding="utf-8",
    )
    assert _module_level_numpy_imports(source) == [f"probe.py:{line}" for line in (1, 2, 3, 4, 6, 8, 10, 12)]


def test_orbits_leaves_the_code_convention_to_the_structure_classes():
    # orbit closure is theory-free: diagonal, modulus and cross terms belong to surfaces.QuadraticStructure
    path = Path(pinforms.__file__).parent / "orbits.py"
    tree = _tree(path)
    convention = {"diagonal", "modulus", "cross_pairs"}
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in convention)
        or (isinstance(node, ast.Name) and node.id in convention)
        or (isinstance(node, ast.alias) and node.name in convention)
    ]
    assert found == []


MODULUS_NAMES = {"modulus", "half"}


def _holds_modulus(node) -> bool:
    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    return bool(names & MODULUS_NAMES)


def _is_literal(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return all(_is_literal(e) for e in node.elts)
    return isinstance(node, ast.Constant)


def _modulus_branches(path: Path) -> list[str]:
    """Comparisons of an expression holding ``modulus`` or ``half`` with a literal, and ``match`` statements on one.

    A chained comparison is read pair by pair, so a range check 0 <= x < modulus compares no literal with m.
    """
    tree = _tree(path)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for a, b in zip(operands, operands[1:]):
                if _holds_modulus(a) and _is_literal(b) or _is_literal(a) and _holds_modulus(b):
                    lines.add(node.lineno)
        elif isinstance(node, ast.Match) and _holds_modulus(node.subject):
            lines.add(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_quadratic_structure_leaves_each_theory_to_its_subclass():
    # QuadraticStructure reads m only through m and m/2; a rule for one modulus belongs to Refinement or Enhancement
    path = Path(pinforms.__file__).parent / "surfaces.py"
    assert _modulus_branches(path) == []
    assert _theory_dispatches(path) == []


def test_modulus_branch_check_sees_each_kind_of_branch(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "a = half == 2\n"
        "b = 4 != self.modulus\n"
        "c = x if cls.modulus // 2 > 1 else 0\n"
        "d = modulus in (2, 4)\n"
        "match cls.modulus:\n"
        "    case 2:\n"
        "        pass\n"
        "e = values >= half\n"
        "f = x == 2\n"
        "g = 0 <= x < self.modulus\n"
        "h = 0 <= x < half <= 2\n",
        encoding="utf-8",
    )
    assert _modulus_branches(source) == [f"probe.py:{line}" for line in (1, 2, 3, 4, 5, 11)]


def test_verify_writes_each_suite_name_once():
    # the SUITES registration names a suite's rows, so no suite repeats its own name
    path = Path(verify.__file__)
    constants = Counter(
        node.value
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    assert {name: constants[name] for name in verify.SUITES} == dict.fromkeys(verify.SUITES, 1)


THEORY_NAMES = {"spin", "pin-"}
STRUCTURE_CLASSES = {"Refinement", "Enhancement"}


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _is_theory_operand(node) -> bool:
    # a theory name, a THEORY_* constant holding one, or a structure class
    if isinstance(node, ast.Constant):
        return node.value in THEORY_NAMES
    return isinstance(node, ast.Name) and (node.id in STRUCTURE_CLASSES or node.id.startswith("THEORY_"))


def _theory_dispatches(path: Path) -> list[str]:
    """Comparisons with a theory name or a structure class, and isinstance tests against one, outside ``THEORIES``."""
    tree = _tree(path)
    table = {
        id(node)
        for statement in tree.body
        if isinstance(statement, ast.Assign) and any(_names(t) == {"THEORIES"} for t in statement.targets)
        for node in ast.walk(statement)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in table:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(_is_theory_operand(o) for o in operands):
                found.append(f"{path.name}:{node.lineno}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("isinstance", "issubclass"):
            if len(node.args) == 2 and _names(node.args[1]) & STRUCTURE_CLASSES:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_theories_are_read_from_the_table():
    # census, orbits, invariant and bordism_class read a census.THEORIES record, and verify takes the
    # structure class as a parameter; a new theory is one record there, not one more branch in each caller
    package = Path(pinforms.__file__).parent
    assert [found for name in ("cli.py", "census.py", "verify.py") for found in _theory_dispatches(package / name)] == []


def test_theory_dispatch_check_sees_each_kind_of_branch(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "THEORIES = ('spin', Refinement)\n"
        "a = theory == 'spin'\n"
        "b = 'pin-' != theory\n"
        "c = kind is Enhancement\n"
        "d = isinstance(s, Refinement)\n"
        "e = isinstance(s, (Refinement, Enhancement))\n"
        "f = theory.name == name\n"
        "g = isinstance(s, theory.structure)\n"
        "h = args.theory == THEORY_SPIN\n",
        encoding="utf-8",
    )
    assert _theory_dispatches(source) == [f"probe.py:{line}" for line in (2, 3, 4, 5, 6, 9)]


CACHE_DECORATORS = {"lru_cache", "cache"}


def _decorator_name(node) -> str | None:
    # lru_cache, lru_cache(maxsize=None), functools.lru_cache(...), functools.cache
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _uncleared_caches(path: Path) -> list[str]:
    """Module-level cached functions whose ``cache_clear()`` is not called in ``run_suites``."""
    tree = _tree(path)
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    cached = [f for f in functions if any(_decorator_name(d) in CACHE_DECORATORS for d in f.decorator_list)]
    cleared = {
        node.func.value.id
        for f in functions
        if f.name == "run_suites"
        for node in ast.walk(f)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "cache_clear"
        and isinstance(node.func.value, ast.Name)
    }
    return [f"{path.name}:{f.lineno} {f.name}" for f in cached if f.name not in cleared]


def test_every_verify_cache_is_cleared_by_run_suites():
    # a per-run cache that run_suites does not clear would let one run read what an earlier run built
    path = Path(verify.__file__)
    assert {"_values", "_histograms"} <= {
        node.name
        for node in _tree(path).body
        if isinstance(node, ast.FunctionDef) and node.decorator_list
    }
    assert _uncleared_caches(path) == []


def test_cache_check_sees_each_kind_of_decorator(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "@lru_cache(maxsize=None)\n"
        "def a(): pass\n"
        "@functools.lru_cache\n"
        "def b(): pass\n"
        "@cache\n"
        "def c(): pass\n"
        "@lru_cache\n"
        "def d(): pass\n"
        "@staticmethod\n"
        "def e(): pass\n"
        "def run_suites():\n"
        "    d.cache_clear()\n"
        "    e.cache_clear()\n",
        encoding="utf-8",
    )
    assert _uncleared_caches(source) == ["probe.py:2 a", "probe.py:4 b", "probe.py:6 c"]


def _uncalled_helpers(paths) -> list[str]:
    """Module-level ``def _name`` helpers and ``_NAME = ...`` constants that no code in ``paths`` names outside
    their own definition."""
    trees = {path: _tree(path) for path in paths}

    def named(node) -> Counter:
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        )

    def defined(node) -> list[str]:
        if isinstance(node, ast.FunctionDef):
            return [node.name]
        if isinstance(node, ast.Assign):
            return [t.id for t in node.targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            return [node.target.id]
        return []

    everywhere = sum((named(tree) for tree in trees.values()), Counter())
    return [
        f"{path.name}:{node.lineno} {name}"
        for path, tree in trees.items()
        for node in tree.body
        for name in defined(node)
        if name.startswith("_") and not name.startswith("__")
        if everywhere[name] == named(node)[name]
    ]


def test_every_private_helper_has_a_caller_in_the_library():
    # a helper that only tests call is dead weight in the library; the tests should exercise what the library runs
    assert _uncalled_helpers(SOURCES) == []


def test_uncalled_helper_check_sees_each_kind_of_use(tmp_path):
    first, second = tmp_path / "probe.py", tmp_path / "other.py"
    first.write_text(
        "def _called(): pass\n"
        "def _unused(): pass\n"
        "def _only_recursive(n): return _only_recursive(n - 1)\n"
        "def _read_as_attribute(): pass\n"
        "def _called_from_the_other_module(): pass\n"
        "def __getattr__(name): pass\n"
        "def public(): return _called() + probe._read_as_attribute()\n"
        "class Host:\n"
        "    def _method(self): pass\n"
        "_UNREAD = 1\n"
        "_READ: int = 2\n"
        "_READ_ELSEWHERE = 3\n"
        "__all__ = ['public']\n"
        "LIMIT = _READ\n",
        encoding="utf-8",
    )
    second.write_text(
        "from .probe import _unused\nvalue = _called_from_the_other_module\nlimit = probe._READ_ELSEWHERE\n",
        encoding="utf-8",
    )
    assert _uncalled_helpers([first, second]) == [
        "probe.py:2 _unused",
        "probe.py:3 _only_recursive",
        "probe.py:10 _UNREAD",
    ]
