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
