"""Surfaces, mod-2 intersection forms, and homology class plumbing."""

import dataclasses
import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings

from pinforms import (
    Enhancement,
    IntersectionForm,
    Refinement,
    Surface,
    arf_normal_form,
    arf_spectrum,
    brown_normal_form,
    brown_spectrum,
    direct_sum,
    enumerate_enhancements,
    enumerate_refinements,
    gf2,
    hyperbolic_form,
    identity_form,
    intersection,
    nonorientable_surface,
    orientable_surface,
    surfaces,
    transvection,
    value_histograms,
)
from pinforms.cli import main
from pinforms.surfaces import (
    _butterflies,
    _xor_permuted,
    class_bit_matrix,
    cross_pairs,
    cross_parity_table,
    is_alternating,
    is_hyperbolic_form,
    is_identity_form,
    self_pairing_table,
)
from strategies import congruent_form, congruent_forms


def test_hyperbolic_form_matrix():
    f = hyperbolic_form(1)
    assert f.matrix.tolist() == [[0, 1], [1, 0]]
    g2 = hyperbolic_form(2)
    assert g2.dim == 4
    # block diagonal with hyperbolic planes on (0,1) and (2,3)
    assert g2.entry(0, 1) == g2.entry(2, 3) == 1
    assert g2.entry(0, 2) == g2.entry(1, 3) == 0


def test_form_hash_taken_once_keeps_the_dataclass_contract():
    # the hash is stored at construction; fields, repr, equality and the hash value stay the generated ones
    form = IntersectionForm(4, [2, 1, 8, 4])
    assert [f.name for f in dataclasses.fields(form)] == ["dim", "rows"]
    assert repr(form) == "IntersectionForm(dim=4, rows=(2, 1, 8, 4))"
    assert form == hyperbolic_form(2) and hash(form) == hash(hyperbolic_form(2)) == hash((4, (2, 1, 8, 4)))
    assert form != IntersectionForm(4, (1, 2, 4, 8)) and {form: 1}[hyperbolic_form(2)] == 1


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
    a, b = 0b01, 0b10
    assert intersection(f, a, b) == 1
    assert intersection(f, a, a) == 0
    assert intersection(f, a ^ b, a ^ b) == 0

    e = identity_form(2)
    x = 0b11
    assert intersection(e, x, x) == 0
    assert intersection(e, 0b01, x) == 1


# Every entry point that takes a class reads it through ``surfaces.as_bits``, as an integer bit mask.
CLASS_ENTRY_POINTS = {
    "intersection": (4, lambda x: intersection(hyperbolic_form(2), x, 0b0011)),
    "transvection": (4, lambda x: transvection(hyperbolic_form(2), x)),
    "structure-call": (3, Enhancement(identity_form(3), (1, 3, 1))),
    "isometry-call": (4, transvection(hyperbolic_form(2), 0b0001)),
}


@pytest.mark.parametrize("n,entry", CLASS_ENTRY_POINTS.values(), ids=list(CLASS_ENTRY_POINTS))
@pytest.mark.parametrize("bad", ["negative", "too-wide"])
def test_class_entry_points_refuse_bits_out_of_range(n, entry, bad):
    x = -1 if bad == "negative" else 1 << n
    with pytest.raises(ValueError, match=f"^class bits {x:#x} out of range for dimension {n}$"):
        entry(x)


@pytest.mark.parametrize("n,entry", CLASS_ENTRY_POINTS.values(), ids=list(CLASS_ENTRY_POINTS))
def test_class_entry_points_take_numpy_integers(n, entry):
    for x in (1, 0b011, (1 << n) - 1):
        assert entry(np.int64(x)) == entry(np.uint8(x)) == entry(x)


@pytest.mark.parametrize("n,entry", CLASS_ENTRY_POINTS.values(), ids=list(CLASS_ENTRY_POINTS))
def test_class_entry_points_refuse_non_integers(n, entry):
    with pytest.raises(TypeError):
        entry(1.5)


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
                assert s(x) == s(np.int64(x)) == naive_value(s, x), (kind.__name__, code, x)


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


# the batch code rule: basis value i is diag_i + (m/2) * bit i of the code


def assert_code_values_match_from_code(form, codes):
    for kind in structure_kinds(form):
        half = kind.modulus // 2
        rows = kind.code_values(form, codes)
        assert rows.dtype == np.uint8 and rows.shape == (len(codes), form.dim)
        for code, row in zip(codes, rows.tolist()):
            assert tuple(row) == kind.from_code(form, code).values
            assert row == [d + half * (code >> i & 1) for i, d in enumerate(form.diagonal)]
            # the constructor validates the row, and ``code`` reads it back
            assert kind(form, row).code == code


@pytest.mark.parametrize("form", STANDARD_FORMS, ids=form_id)
def test_code_values_match_from_code_on_every_code_of_standard_forms(form):
    assert_code_values_match_from_code(form, range(1 << form.dim))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(congruent_forms(max_dim=10))
def test_code_values_match_from_code_on_every_code_of_congruent_forms(case):
    base, m = case
    assume(gf2.rank(m) == len(m))
    form = congruent_form(base, m)
    assert_code_values_match_from_code(form, range(1 << form.dim))


@pytest.mark.parametrize("form", [identity_form(k) for k in (1, 2, 3)] + [hyperbolic_form(g) for g in (0, 1, 2)],
                         ids=form_id)
def test_constructor_and_value_rows_state_one_rule(form):
    # every value tuple over {-1, ..., m}: one structure is refused exactly when its values as a row are, and an
    # accepted structure's code gives its values back and rebuilds it
    for kind in structure_kinds(form):
        accepted = []
        for values in itertools.product(range(-1, kind.modulus + 1), repeat=form.dim):
            try:
                kind.value_rows(form, [values])
            except ValueError:
                with pytest.raises(ValueError):
                    kind(form, values)
                continue
            s = kind(form, values)
            assert tuple(kind.code_values(form, [s.code])[0].tolist()) == values
            assert kind.from_code(form, s.code) == s
            accepted.append(s.code)
        assert sorted(accepted) == list(range(1 << form.dim))


@pytest.mark.parametrize("form", [identity_form(64), hyperbolic_form(32), identity_form(256)], ids=form_id)
def test_code_values_read_every_bit_of_a_wide_code(form):
    rng = random.Random(form.dim)
    assert_code_values_match_from_code(form, [0, (1 << form.dim) - 1, *(rng.getrandbits(form.dim) for _ in range(8))])


@pytest.mark.parametrize("code", [-1, 1 << 5, 1 << 70])
def test_code_values_refuse_an_out_of_range_code_as_from_code_does(code):
    form = identity_form(5)
    message = f"^code {re.escape(f'{code:#x}')} out of range for dimension 5$"
    with pytest.raises(ValueError, match=message):
        Enhancement.from_code(form, code)
    # the first bad code of a batch is named
    with pytest.raises(ValueError, match=message):
        Enhancement.code_values(form, [0, 31, code, -2])


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
    assert brown_spectrum(form).tolist() == [brown_normal_form(form, e.code) for e in enhancements]
    assert arf_spectrum(spin).tolist() == [arf_normal_form(spin, q.code) for q in enumerate_refinements(spin)]
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


# the transform against its defining O(4**n) sum


def naive_transform(values):
    """Entry c is the sum over x of values[..., x] * (-1)**popcount(c & x), in Python ints."""
    size = values.shape[-1]
    flat = values.reshape(-1, size).tolist()
    out = [[sum(v if (c & x).bit_count() % 2 == 0 else -v for x, v in enumerate(row)) for c in range(size)] for row in flat]
    return np.array(out, dtype=object).reshape(values.shape)


@pytest.mark.parametrize("n", range(9))
def test_walsh_hadamard_matches_the_defining_sum(n):
    # the butterflies overwrite their input, so each call gets an int64 copy
    rng = np.random.default_rng(n)
    for shape in [(1 << n,), (2, 3, 1 << n)]:
        values = rng.integers(-9, 10, size=shape)
        got = _butterflies(values.astype(np.int64))
        assert got.dtype == np.int64 and got.shape == shape
        assert got.tolist() == naive_transform(values).tolist()
    signs = 1 - 2 * rng.integers(0, 2, size=(4, 1 << n))
    assert _butterflies(signs.astype(np.int64)).tolist() == naive_transform(signs).tolist()


def test_butterflies_stay_exact_beyond_int32():
    # 2**40 * 2**4 overflows int32 many times over; in int64 every sum stays exact
    values = np.array([2**40, -(2**40), 2**40 - 3, 7] * 4, dtype=np.int64)
    got = _butterflies(values.copy())
    assert got.dtype == np.int64
    assert got.tolist() == naive_transform(values).tolist()


@pytest.mark.parametrize("n", range(8))
def test_xor_permuted_matches_the_index_gather(n):
    values = np.random.default_rng(n).integers(0, 1 << 16, 1 << n)
    classes = np.arange(1 << n)
    assert _xor_permuted(values, 0) is values
    for mask in range(1, 1 << n):
        assert _xor_permuted(values, mask).tolist() == values[classes ^ mask].tolist()
    # the diagonal of a standard surface is 0 or all ones, so brown_spectrum reads Q as a view of P
    for mask in (0, (1 << n) - 1):
        assert np.shares_memory(_xor_permuted(values, mask), values)
