"""Surfaces, mod-2 intersection forms, and homology class plumbing."""

import ast
from pathlib import Path

import numpy as np
import pytest

import pinforms
from pinforms import (
    H1Class,
    IntersectionForm,
    LimitError,
    Surface,
    direct_sum,
    enumerate_classes,
    hyperbolic_form,
    identity_form,
    intersection,
    nonorientable_surface,
    orientable_surface,
)
from pinforms.surfaces import (
    class_bit_matrix,
    cross_pairs,
    cross_parity_table,
    is_alternating,
    is_hyperbolic_form,
    is_identity_form,
    self_pairing_table,
)


def test_h1class_basics():
    x = H1Class.from_coeffs([1, 0, 1])
    assert x.bits == 0b101
    assert x.coeffs == (1, 0, 1)
    y = H1Class.from_coeffs([1, 1, 0])
    assert (x + y).coeffs == (0, 1, 1)
    assert H1Class.zero(3).bits == 0


def test_hyperbolic_form_matrix():
    f = hyperbolic_form(1)
    assert f.matrix.tolist() == [[0, 1], [1, 0]]
    g2 = hyperbolic_form(2)
    assert g2.dim == 4
    # block diagonal with hyperbolic planes on (0,1) and (2,3)
    assert g2.entry(0, 1) == g2.entry(2, 3) == 1
    assert g2.entry(0, 2) == g2.entry(1, 3) == 0


def test_identity_form_matrix():
    f = identity_form(3)
    assert f.matrix.tolist() == np.eye(3, dtype=int).tolist()
    assert f.diagonal == (1, 1, 1)
    assert hyperbolic_form(2).diagonal == (0, 0, 0, 0)


def test_form_validation_rejects_degenerate_and_asymmetric():
    with pytest.raises(ValueError):
        IntersectionForm.from_matrix([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        IntersectionForm.from_matrix([[1, 1], [0, 1]])


def test_form_predicates():
    assert is_hyperbolic_form(hyperbolic_form(2))
    assert not is_hyperbolic_form(identity_form(2))
    assert is_identity_form(identity_form(4))
    assert not is_identity_form(hyperbolic_form(1))
    assert is_alternating(hyperbolic_form(3))
    assert not is_alternating(identity_form(1))


def test_direct_sum_blocks():
    f = direct_sum(hyperbolic_form(1), identity_form(2))
    assert f.dim == 4
    m = f.matrix
    assert m[:2, :2].tolist() == [[0, 1], [1, 0]]
    assert m[2:, 2:].tolist() == [[1, 0], [0, 1]]
    assert not m[:2, 2:].any()


def test_intersection_values():
    f = hyperbolic_form(1)
    a = H1Class.from_coeffs([1, 0])
    b = H1Class.from_coeffs([0, 1])
    assert intersection(f, a, b) == 1
    assert intersection(f, a, a) == 0
    assert intersection(f, a + b, a + b) == 0

    e = identity_form(2)
    x = H1Class.from_coeffs([1, 1])
    assert intersection(e, x, x) == 0
    assert intersection(e, H1Class.from_coeffs([1, 0]), x) == 1


def test_surface_constructors():
    s = orientable_surface(2)
    assert s.kind == "orientable"
    assert s.genus == 2
    assert s.label == "S:2"
    assert is_hyperbolic_form(s.form)

    n = nonorientable_surface(3)
    assert n.label == "N:3"
    assert is_identity_form(n.form)

    sphere = orientable_surface(0)
    assert sphere.form.dim == 0

    with pytest.raises(ValueError):
        nonorientable_surface(0)
    with pytest.raises(ValueError):
        orientable_surface(-1)


def test_enumerate_classes_order_and_count():
    f = identity_form(2)
    classes = list(enumerate_classes(f))
    assert [c.bits for c in classes] == [0, 1, 2, 3]
    assert all(isinstance(c, H1Class) for c in classes)


def test_enumerate_classes_limit():
    with pytest.raises(LimitError):
        enumerate_classes(identity_form(21))


def test_cross_pairs_examples():
    f = identity_form(3)
    # identity form has no off-diagonal pairs
    assert cross_pairs(f, 0b111) == 0
    h = hyperbolic_form(1)
    assert cross_pairs(h, 0b11) == 1
    assert cross_pairs(h, 0b01) == 0


def test_cached_tables_match_scalar_paths():
    f = direct_sum(hyperbolic_form(1), identity_form(1))
    n = f.dim
    bits = class_bit_matrix(n)
    assert bits.shape == (1 << n, n)
    cross = cross_parity_table(f)
    selfp = self_pairing_table(f)
    for x in range(1 << n):
        assert cross[x] == cross_pairs(f, x)
        assert selfp[x] == f.pairing_bits(x, x)


def test_class_bit_matrix_is_write_protected():
    bits = class_bit_matrix(3)
    with pytest.raises(ValueError):
        bits[0, 0] = 1


def test_library_has_no_assert_statements():
    # assert statements vanish under python -O; consistency checks raise InvariantViolation
    sources = sorted(Path(pinforms.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
