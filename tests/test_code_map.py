"""Code maps built by the structure classes, and the checked inverse of an isometry."""

import random

import numpy as np
import pytest

from pinforms import (
    Enhancement,
    InvariantViolation,
    Isometry,
    Refinement,
    act,
    gf2,
    hyperbolic_form,
    identity_form,
    isometry_generators,
    orbits,
    surfaces,
)
from pinforms.cli import main
from pinforms.orbits import _image_row, group_rows, orbit_labels
from strategies import congruent_form, dense_invertible

CASES = [pytest.param(identity_form(k), Enhancement, id=f"N:{k}-pin-") for k in range(1, 8)] + [
    pytest.param(hyperbolic_form(g), kind, id=f"S:{g}-{theory}")
    for g in range(1, 4)
    for kind, theory in ((Enhancement, "pin-"), (Refinement, "spin"))
]


@pytest.mark.parametrize("form, kind", CASES)
def test_code_map_equals_act_code_by_code(form, kind):
    for g in isometry_generators(form):
        (row,) = _image_row(*kind.code_map(form, [g.rows])).tolist()
        assert row == [act(g, kind.from_code(form, c)).code for c in range(1 << form.dim)]


@pytest.mark.parametrize(
    "form, kind",
    [
        pytest.param(hyperbolic_form(2), Enhancement, id="S:2-pin-"),
        pytest.param(hyperbolic_form(2), Refinement, id="S:2-spin"),
        pytest.param(identity_form(4), Enhancement, id="N:4-pin-"),
    ],
)
def test_batch_code_map_equals_act_over_the_whole_brute_group(form, kind):
    rows = group_rows(form, "brute")
    columns, shifts = kind.code_map(form, rows)
    assert columns.shape == rows.shape and shifts.shape == (len(rows),)
    images = _image_row(columns, shifts).tolist()
    for row, image in zip(rows.tolist(), images):
        g = Isometry(form, row)
        assert image == [act(g, kind.from_code(form, c)).code for c in range(1 << form.dim)]
        # one isometry's rows are a batch of one
        (one,) = _image_row(*kind.code_map(form, [g.rows])).tolist()
        assert one == image


# every standard surface up to dimension 8, with each of its theories
PULL_BACK_CASES = [pytest.param(identity_form(k), Enhancement, id=f"N:{k}-pin-") for k in range(1, 9)] + [
    pytest.param(hyperbolic_form(g), kind, id=f"S:{g}-{theory}")
    for g in range(5)
    for kind, theory in ((Enhancement, "pin-"), (Refinement, "spin"))
]


def _preimages(rows, n) -> tuple[int, ...]:
    """A^-1 e_i for each unit vector e_i: column i of the inverse, read off its rows by ``gf2.inverse``."""
    return gf2.transpose(gf2.inverse(tuple(rows), n), n)


def _assert_pull_back_is_code_map(form, kind, rows):
    # two evaluations of one rule that share no code: pure-Python restriction and the batched adjoint
    rows = np.array(rows, dtype=np.uint32).reshape(len(rows), form.dim)
    columns, shifts = kind.code_map(form, rows)
    for row, column, shift in zip(rows.tolist(), columns.tolist(), shifts.tolist()):
        assert kind.pull_back(form, _preimages(row, form.dim)) == (tuple(column), shift), row


@pytest.mark.parametrize("form, kind", PULL_BACK_CASES)
def test_pull_back_onto_the_preimages_is_code_map_on_the_generators(form, kind):
    _assert_pull_back_is_code_map(form, kind, [g.rows for g in isometry_generators(form)])


@pytest.mark.parametrize("form, kind", [p for p in PULL_BACK_CASES if p.values[0].dim <= 4])
def test_pull_back_onto_the_preimages_is_code_map_over_the_brute_group(form, kind):
    _assert_pull_back_is_code_map(form, kind, group_rows(form, "brute"))


# dense congruent forms, whose standard basis is not the unit basis, with each theory their layout allows
DENSE_CASES = [
    pytest.param(congruent_form("identity", dense_invertible(n, random.Random(n))), Enhancement, id=f"identity-{n}-pin-")
    for n in (2, 7, 12, 20)
] + [
    pytest.param(congruent_form("hyperbolic", dense_invertible(n, random.Random(n))), kind, id=f"hyperbolic-{n}-{theory}")
    for n in (2, 12, 20)
    for kind, theory in ((Enhancement, "pin-"), (Refinement, "spin"))
]


@pytest.mark.parametrize("form, kind", DENSE_CASES)
def test_pull_back_onto_the_unit_basis_is_the_identity_code_map_on_dense_forms(form, kind):
    # the unit basis returns before the per-vector loop, on any pairing; code_map's adjoint shares no code with it
    _assert_pull_back_is_code_map(form, kind, [gf2.identity(form.dim)])


def test_pull_back_onto_the_unit_basis_takes_its_shift_from_the_diagonal():
    # code 0 of a refinement has value diag_i on e_i, its code bit on a pairing with an odd diagonal
    assert Refinement.pull_back(identity_form(3), (1, 2, 4)) == ((1, 2, 4), 7)
    assert Enhancement.pull_back(identity_form(3), (1, 2, 4)) == ((1, 2, 4), 0)


@pytest.mark.parametrize(
    "rows, message",
    [
        # bit 3 on a 3-dimensional pairing must not be dropped, nor a Python -1 surface as numpy's OverflowError
        pytest.param([[9, 2, 4]], "^row mask out of range$", id="mask-9"),
        pytest.param([[-1, 2, 4]], "^row mask out of range$", id="mask-minus-1"),
        pytest.param([[1, 2]], r"^row array of shape \(1, 2\) is not a batch of 3-by-3 matrices$", id="short-row"),
        pytest.param([1, 2, 4], r"^row array of shape \(3,\) is not a batch", id="one-matrix-unbatched"),
        # invertible, but it sends x2 to x1 + x2, whose self-pairing is 0
        pytest.param([[3, 2, 4]], "^matrix does not preserve the pairing$", id="non-isometry"),
    ],
)
def test_code_map_refuses_a_wrong_shape_or_a_row_mask_out_of_range(rows, message):
    with pytest.raises(ValueError, match=message):
        Enhancement.code_map(identity_form(3), rows)


@pytest.mark.parametrize(
    "rows, dtype",
    [
        # a float mask must not truncate to another matrix: [[1.9, 2.2]] would read as the identity [[1, 2]]
        pytest.param([[1.9, 2.2]], "float64", id="float"),
        pytest.param(np.array([[1, 2]], dtype=np.float32), "float32", id="whole-float32"),
        pytest.param([["1", "2"]], "<U1", id="strings"),
        pytest.param(np.array([[True, True]]), "bool", id="bool"),
    ],
)
def test_code_map_and_orbit_labels_refuse_rows_of_a_non_integer_dtype(rows, dtype):
    message = f"^row masks must be integers, got dtype {dtype}$"
    with pytest.raises(ValueError, match=message):
        Refinement.code_map(hyperbolic_form(1), rows)
    with pytest.raises(ValueError, match=message):
        orbit_labels(hyperbolic_form(1), Refinement, rows)


def test_code_map_reads_an_empty_batch_of_any_dtype():
    # np.asarray of an empty batch is float64; with no mask to read, it is no float mask
    columns, shifts = Enhancement.code_map(identity_form(0), [[]] * 2)
    assert columns.shape == (2, 0) and shifts.tolist() == [0, 0]


def test_orbit_labels_rejects_a_generator_of_another_pairing():
    (g, *_) = isometry_generators(identity_form(3))
    with pytest.raises(ValueError, match="generator and pairing differ"):
        orbit_labels(identity_form(4), Enhancement, [g])


def test_orbit_labels_builds_one_isometry_per_generator(monkeypatch):
    form = identity_form(6)
    expected = len(isometry_generators(form))
    built = []
    original = Isometry.__post_init__

    def counting(self):
        built.append(self.rows)
        original(self)

    monkeypatch.setattr(Isometry, "__post_init__", counting)
    orbit_labels(form, Enhancement)
    assert len(built) == expected


def test_orbit_labels_checks_a_row_array_once(monkeypatch):
    form = identity_form(6)
    rows = np.array([g.rows for g in isometry_generators(form)])
    calls = []
    matrix_rows, preserves_pairing = surfaces.matrix_rows, orbits._preserves_pairing

    def counted(name, function):
        return lambda *args: calls.append(name) or function(*args)

    monkeypatch.setattr(surfaces, "matrix_rows", counted("matrix_rows", matrix_rows))
    monkeypatch.setattr(orbits, "_preserves_pairing", counted("_preserves_pairing", preserves_pairing))
    orbit_labels(form, Enhancement, rows)
    # the shape and range check, then code_map's own product is the isometry test
    assert calls == ["matrix_rows"]


_true_inverse = gf2.inverse


def _wrong_inverse(rows, n):
    # flipping entry (i, 0) of every row adds rows . (all ones) to column 0 of the product
    return tuple(r ^ 1 for r in _true_inverse(rows, n))


def test_inverse_columns_checks_the_product(monkeypatch):
    (g, *_) = isometry_generators(identity_form(4))
    monkeypatch.setattr(orbits.gf2, "inverse", _wrong_inverse)
    with pytest.raises(InvariantViolation, match="inverse"):
        g.inverse_columns


def test_orbits_exit_one_on_a_wrong_inverse(monkeypatch, capsys):
    monkeypatch.setattr(orbits.gf2, "inverse", _wrong_inverse)
    code = main(["orbits", "-s", "N:4", "-t", "pin-"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith("error: isometry inverse")
