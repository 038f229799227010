"""Surfaces, mod-2 intersection forms, and homology class plumbing."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings

from pinforms import (
    Enhancement,
    H1Class,
    IntersectionForm,
    LimitError,
    Refinement,
    Surface,
    arf_normal_form,
    arf_spectrum,
    brown_normal_form,
    brown_spectrum,
    direct_sum,
    enumerate_classes,
    enumerate_enhancements,
    enumerate_refinements,
    gf2,
    hyperbolic_form,
    identity_form,
    intersection,
    nonorientable_surface,
    orientable_surface,
    surfaces,
    value_histograms,
)
from pinforms.cli import main
from pinforms.surfaces import (
    class_bit_matrix,
    cross_pairs,
    cross_parity_table,
    is_alternating,
    is_hyperbolic_form,
    is_identity_form,
    self_pairing_table,
)
from strategies import congruent_form, congruent_forms


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


@pytest.mark.parametrize(
    "kind,genus,form,message",
    [
        ("nonorientable", 2, hyperbolic_form(1), "nonorientable surface needs a non-alternating rank-k pairing"),
        ("orientable", 1, identity_form(2), "orientable surface needs an alternating rank-2g pairing"),
    ],
)
def test_surface_kind_must_match_the_pairing_parity(kind, genus, form, message):
    # the kind must follow the pairing, or "N:2" on a hyperbolic pairing would get a spin bordism class
    with pytest.raises(ValueError, match=f"^{message}$"):
        Surface(kind, genus, form)


def test_surface_accepts_any_pairing_of_its_parity():
    odd = direct_sum(identity_form(1), hyperbolic_form(1))
    assert Surface("nonorientable", 3, odd).label == "N:3"
    alternating = IntersectionForm.from_matrix([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]])
    assert Surface("orientable", 2, alternating).label == "S:2"


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


# the batch value table and the one-pass evaluation against per-structure and naive routes

STANDARD_FORMS = [identity_form(k) for k in range(11)] + [hyperbolic_form(g) for g in range(1, 6)]


def form_id(form):
    return f"dim{form.dim}-{'odd' if any(form.diagonal) else 'alternating'}"


def structure_kinds(form):
    return (Enhancement, Refinement) if is_alternating(form) else (Enhancement,)


def sample_codes(form):
    """Every code up to dimension 6; above it code 0, the all-ones code and 14 seeded codes."""
    size = 1 << form.dim
    if size <= 64:
        return list(range(size))
    return [0, size - 1, *random.Random(form.dim).sample(range(1, size - 1), 14)]


def assert_value_table_matches_each_structure(form):
    for kind in structure_kinds(form):
        structures = [kind.from_code(form, code) for code in sample_codes(form)]
        table = kind.value_table(form, [s.values for s in structures])
        assert table.shape == (len(structures), 1 << form.dim)
        for s, row in zip(structures, table):
            assert np.array_equal(row, s.values_on_all())
            assert row.tolist() == [s(x) for x in range(1 << form.dim)]


def naive_value(s, xbits):
    """The sum of basis values over the set bits of x plus (m/2) cross_pairs(x), mod m."""
    linear = sum(v for i, v in enumerate(s.values) if (xbits >> i) & 1)
    return (linear + s.modulus // 2 * cross_pairs(s.form, xbits)) % s.modulus


def assert_call_matches_naive(form):
    n = form.dim
    points = [0, *(1 << i for i in range(n)), (1 << n) - 1]
    for kind in structure_kinds(form):
        for code in sample_codes(form):
            s = kind.from_code(form, code)
            for x in points:
                assert s(x) == s(H1Class(n, x)) == naive_value(s, x), (kind.__name__, code, x)


@pytest.mark.parametrize("form", STANDARD_FORMS, ids=form_id)
def test_value_table_rows_match_each_structure_on_standard_forms(form):
    assert_value_table_matches_each_structure(form)


@pytest.mark.parametrize("form", STANDARD_FORMS, ids=form_id)
def test_call_matches_the_naive_sum_on_standard_forms(form):
    assert_call_matches_naive(form)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(congruent_forms(max_dim=8))
def test_value_table_and_call_on_congruent_forms(case):
    base, m = case
    assume(gf2.rank(m) == len(m))
    form = congruent_form(base, m)
    assert_value_table_matches_each_structure(form)
    assert_call_matches_naive(form)


# one table kernel: no value route builds the 2**n x n class bit matrix

CLI_CASES = [
    ("census", "-s", "N:4", "-t", "pin-", "--compare"),
    ("census", "-s", "S:2", "-t", "spin", "--compare"),
    ("orbits", "-s", "N:4", "-t", "pin-", "--format", "json"),
    ("orbits", "-s", "S:2", "-t", "spin", "--format", "json"),
]


def test_value_routes_build_no_class_bit_matrix(capsys, monkeypatch):
    expected = []
    for argv in CLI_CASES:
        assert main(list(argv)) == 0
        expected.append(capsys.readouterr())

    def refuse(*args, **kwargs):
        raise AssertionError("value tables must not build the class bit matrix")

    monkeypatch.setattr(surfaces, "class_bit_matrix", refuse)
    form, spin = identity_form(4), hyperbolic_form(2)
    enhancements = enumerate_enhancements(form)
    values = [e.values for e in enhancements]
    table = Enhancement.value_table(form, values)
    assert table.tolist() == [[e(x) for x in range(1 << form.dim)] for e in enhancements]
    assert all(np.array_equal(e.values_on_all(), row) for e, row in zip(enhancements, table))
    assert value_histograms(form, values).tolist() == [np.bincount(row, minlength=4).tolist() for row in table]
    assert brown_spectrum(form).tolist() == [brown_normal_form(e) for e in enhancements]
    assert arf_spectrum(spin).tolist() == [arf_normal_form(q) for q in enumerate_refinements(spin)]
    for argv, before in zip(CLI_CASES, expected):
        assert main(list(argv)) == 0
        assert capsys.readouterr() == before, argv


def test_one_value_table_row_at_dimension_20_stays_small():
    # the (2**20, 20) class bit matrix alone would take 20 MiB
    surfaces.class_bit_matrix.cache_clear()
    surfaces.cross_parity_table.cache_clear()
    e = Enhancement.from_code(identity_form(20), 0)
    tracemalloc.start()
    try:
        values = e.values_on_all()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    points = [0, 1, 0b11, 1 << 19, (1 << 20) - 1]
    assert [int(values[x]) for x in points] == [e(x) for x in points]
