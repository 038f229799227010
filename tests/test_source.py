"""Static checks over the library source."""

import ast
from collections import Counter
from pathlib import Path

import pinforms
from pinforms import verify

SOURCES = sorted(Path(pinforms.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # an assert vanishes under python -O; runtime checks raise InvariantViolation instead
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_orbits_leaves_the_code_convention_to_the_structure_classes():
    # orbit closure is theory-free: diagonal, modulus and cross terms belong to surfaces.QuadraticStructure
    path = Path(pinforms.__file__).parent / "orbits.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    convention = {"diagonal", "modulus", "cross_pairs"}
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in convention)
        or (isinstance(node, ast.Name) and node.id in convention)
        or (isinstance(node, ast.alias) and node.name in convention)
    ]
    assert found == []


def test_verify_writes_each_suite_name_once():
    # the SUITES registration names a suite's rows, so no suite repeats its own name
    path = Path(verify.__file__)
    constants = Counter(
        node.value
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
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
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
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
    # census, orbits, invariant, bordism_class and verify read a census.THEORIES record;
    # a new theory is one record there, not one more branch in each caller
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
