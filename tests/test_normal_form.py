"""The normal-form route to the bordism invariants, checked against the Gauss-sum routes."""

import random
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings

from pinforms import (
    Enhancement,
    IntersectionForm,
    InvariantViolation,
    LimitError,
    QuadraticStructure,
    Refinement,
    arf_majority,
    arf_normal_form,
    arf_spectrum,
    bordism_class,
    brown_gauss_many,
    brown_spectrum,
    cobordant,
    enumerate_enhancements,
    enumerate_refinements,
    gf2,
    hyperbolic_form,
    identity_form,
    nonorientable_surface,
    orientable_surface,
    surfaces,
    value_histograms,
)
from pinforms.cli import OutputRecord, main
from pinforms.enhancements import ValueHistogram, brown_normal_form, histogram_from_brown
from pinforms.surfaces import MAX_NORMAL_FORM_DIM, MAX_TABLE_DIM, is_alternating, standard_basis
from strategies import congruent_form, congruent_forms, dense_invertible

SURFACES = [orientable_surface(g) for g in range(6)] + [nonorientable_surface(k) for k in range(1, 11)]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def invariant_rows(capsys, *argv) -> dict:
    code, out, err = run_cli(capsys, "invariant", *argv, "--format", "json")
    assert (code, err) == (0, "")
    return dict(OutputRecord.from_json(out).rows)


# the additive formulas on the standard layouts, written out independently of the library


def brown_additive(surface, values) -> int:
    if surface.kind == "nonorientable":
        return sum(1 if v == 1 else -1 for v in values) % 8
    return 4 * sum(1 for a, b in zip(values[0::2], values[1::2]) if a == b == 2) % 8


def arf_additive(values) -> int:
    return sum(a * b for a, b in zip(values[0::2], values[1::2])) % 2


# ``codes_on_standard_basis`` reads the cached pull-back; the oracle walks the quadratic identity per basis vector


def walked_basis_values(s) -> list[int]:
    return [s(v) for v in standard_basis(s.form)[1]]


def walked_code_bits(s) -> list[int]:
    """Bit i of a structure's code on the standard basis, s(v_i) // (m/2), from the walked values."""
    return [v // (s.modulus // 2) for v in walked_basis_values(s)]


def code_bits(kind, form, codes) -> list:
    """The pulled code of one structure's code as n bits, or of an array of codes as one list of n bits per code."""
    pulled = kind.codes_on_standard_basis(form, codes)
    if isinstance(pulled, int):
        return [pulled >> i & 1 for i in range(form.dim)]
    assert pulled.shape == (len(codes),) and pulled.dtype == np.uint32
    return [[c >> i & 1 for i in range(form.dim)] for c in pulled.tolist()]


def assert_normal_forms_match_the_walk(form, enhancements, refinements=()):
    layout, _ = standard_basis(form)
    # the batch form, on an array of codes, gives the form of each structure's code; like every batch
    # kernel it stops at MAX_TABLE_DIM
    codes = [e.code for e in enhancements]
    if form.dim <= MAX_TABLE_DIM:
        assert brown_normal_form(form, codes).tolist() == [brown_normal_form(form, c) for c in codes]
        assert code_bits(Enhancement, form, codes) == [walked_code_bits(e) for e in enhancements]
    else:
        with pytest.raises(LimitError, match="^batch normal forms capped"):
            brown_normal_form(form, codes)
    for e in enhancements:
        walked = walked_basis_values(e)
        assert code_bits(Enhancement, form, e.code) == walked_code_bits(e), e.values
        if layout == "identity":
            beta = sum(1 if v == 1 else -1 for v in walked) % 8
        else:
            beta = 4 * sum(1 for a, b in zip(walked[0::2], walked[1::2]) if a == b == 2) % 8
        assert brown_normal_form(form, e.code) == beta, e.values
    if refinements and form.dim <= MAX_TABLE_DIM:
        codes = [q.code for q in refinements]
        assert arf_normal_form(form, codes).tolist() == [arf_normal_form(form, c) for c in codes]
        assert code_bits(Refinement, form, codes) == [walked_code_bits(q) for q in refinements]
    for q in refinements:
        walked = walked_basis_values(q)
        assert code_bits(Refinement, form, q.code) == walked_code_bits(q), q.values
        assert arf_normal_form(form, q.code) == arf_additive(walked), q.values


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.label)
def test_normal_forms_equal_the_basis_walk_on_every_structure(surface):
    form = surface.form
    refinements = enumerate_refinements(form) if surface.kind == "orientable" else ()
    assert_normal_forms_match_the_walk(form, enumerate_enhancements(form), refinements)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(congruent_forms(max_dim=8))
def test_normal_forms_equal_the_basis_walk_on_congruent_forms(case):
    base, m = case
    assume(gf2.rank(m) == len(m))
    form = congruent_form(base, m)
    refinements = enumerate_refinements(form) if is_alternating(form) else ()
    assert_normal_forms_match_the_walk(form, enumerate_enhancements(form), refinements)


@pytest.mark.parametrize("surface", [nonorientable_surface(64), nonorientable_surface(256), orientable_surface(128)],
                         ids=lambda s: s.label)
def test_normal_forms_equal_the_basis_walk_on_seeded_samples(surface):
    form = surface.form
    rng = random.Random(surface.form.dim)
    codes = [rng.getrandbits(form.dim) for _ in range(20)]
    refinements = [Refinement.from_code(form, c) for c in codes] if surface.kind == "orientable" else ()
    assert_normal_forms_match_the_walk(form, [Enhancement.from_code(form, c) for c in codes], refinements)


@pytest.mark.parametrize("base", ["identity", "hyperbolic"])
def test_normal_forms_equal_the_basis_walk_on_a_congruent_form_in_dimension_64(base):
    # basis vectors with many set bits, where the pull-back does the work a walk would
    rng = random.Random(64)
    form = congruent_form(base, dense_invertible(64, rng))
    for kind in (Enhancement, Refinement) if base == "hyperbolic" else (Enhancement,):
        columns, shift = kind.pull_back(form, standard_basis(form)[1])
        assert any(column & (column - 1) for column in columns) and shift
    codes = [rng.getrandbits(64) for _ in range(20)]
    refinements = [Refinement.from_code(form, c) for c in codes] if base == "hyperbolic" else ()
    assert_normal_forms_match_the_walk(form, [Enhancement.from_code(form, c) for c in codes], refinements)


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.label)
def test_code_level_normal_form_equals_the_object_routes_on_every_structure(surface):
    # a bare code gives what the structure built from that code gives
    form = surface.form
    codes = range(1 << form.dim)
    enhancements = enumerate_enhancements(form)
    assert [e.code for e in enhancements] == list(codes)
    assert [code_bits(Enhancement, form, c) for c in codes] == [walked_code_bits(e) for e in enhancements]
    brown = [brown_normal_form(form, c) for c in codes]
    assert brown == [bordism_class(surface, e).value for e in enhancements] == brown_spectrum(form).tolist()
    if surface.kind == "orientable":
        refinements = enumerate_refinements(form)
        on_basis = [code_bits(Refinement, form, c) for c in codes]
        assert on_basis == [walked_code_bits(q) for q in refinements]
        arf = [bordism_class(surface, q).value for q in refinements]
        assert [arf_additive(bits) for bits in on_basis] == arf
        assert [arf_normal_form(form, c) for c in codes] == arf
        # the doubled refinement 2q is the enhancement of Brown invariant 4 Arf(q)
        doubled = [Enhancement(form, tuple(2 * v for v in q.values)).code for q in refinements]
        assert [brown_normal_form(form, c) for c in doubled] == [4 * a for a in arf]


@pytest.mark.parametrize("surface,fault,message", [
    (nonorientable_surface(3), 2, "enhancement values break parity 2 s(v) = 2 (v.v) mod 4: row 5 is (3, 2, 3)"),
    (orientable_surface(2), 1, "enhancement values break parity 2 s(v) = 2 (v.v) mod 4: row 5 is (2, 1, 2, 0)"),
])
def test_row_parity_fault_names_the_first_broken_row(surface, fault, message):
    # a row that breaks parity is bad input, refused with the rows, before any sum is read; the constructor
    # refuses the same values as one structure, naming the value and its index
    values = Enhancement.code_values(surface.form, range(1 << surface.form.dim))
    values[5, 1] = values[7, 0] = fault
    with pytest.raises(ValueError) as raised:
        brown_gauss_many(surface.form, values)
    assert str(raised.value) == message
    with pytest.raises(ValueError) as raised:
        Enhancement(surface.form, tuple(values[5].tolist()))
    assert str(raised.value) == f"enhancement value {fault} at index 1 breaks parity 2 s(v) = 2 (v.v) mod 4"


def poison_the_pull_back(monkeypatch):
    """Make ``pull_back`` read basis vector 0 of N:3 as e1 + e2: codes keep parity, so only a wrong value can show it."""
    pull_back = QuadraticStructure.pull_back.__func__

    def poisoned(cls, form, vectors):
        if form == identity_form(3):
            vectors = (0b011,) + vectors[1:]
        return pull_back(cls, form, vectors)

    monkeypatch.setattr(QuadraticStructure, "pull_back", classmethod(poisoned))


def test_poisoned_pull_back_gives_a_wrong_invariant_in_both_shapes(monkeypatch):
    # e(e1 + e2) reads 1 + 3 = 0 on (1, 3, 1), of Brown 1, and 1 + 1 = 2 on (1, 1, 1), of Brown 3, which then
    # reads as Brown 1 too; an array of codes and one int code read one pull-back, and no parity check is left
    # to turn the fault into an error
    rows = [[1, 3, 1], [1, 1, 1]]
    codes = [Enhancement(identity_form(3), tuple(row)).code for row in rows]
    assert codes == [2, 0]
    assert brown_normal_form(identity_form(3), codes).tolist() == [1, 3]
    poison_the_pull_back(monkeypatch)
    assert brown_normal_form(identity_form(3), codes).tolist() == [1, 1]
    assert [brown_normal_form(identity_form(3), c) for c in codes] == [1, 1]
    assert brown_gauss_many(identity_form(3), rows).tolist() == [1, 3]


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.label)
def test_normal_form_equals_the_spectra_code_by_code(surface):
    form = surface.form
    codes = range(1 << form.dim)
    brown = [bordism_class(surface, Enhancement.from_code(form, c)).value for c in codes]
    assert brown == brown_spectrum(form).tolist()
    if surface.kind == "orientable":
        arf = [bordism_class(surface, Refinement.from_code(form, c)).value for c in codes]
        assert arf == arf_spectrum(form).tolist()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(congruent_forms(max_dim=8))
def test_normal_form_equals_the_gauss_routes_on_congruent_forms(case):
    base, m = case
    assume(gf2.rank(m) == len(m))
    form = congruent_form(base, m)
    structures = enumerate_enhancements(form)
    for e, beta in zip(structures, brown_gauss_many(form, [e.values for e in structures]).tolist()):
        assert brown_normal_form(form, e.code) == beta, e.values
    if is_alternating(form):
        refinements = enumerate_refinements(form)
        majority = [arf_majority(q) for q in refinements]
        for q, arf in zip(refinements, majority):
            assert arf_normal_form(form, q.code) == arf, q.values
        # the array form on a congruent pairing, whose standard basis is not the unit basis
        assert arf_normal_form(form, [q.code for q in refinements]).tolist() == majority


@pytest.mark.parametrize(
    "surface",
    [nonorientable_surface(k) for k in range(1, 13)] + [orientable_surface(g) for g in range(7)],
    ids=lambda s: s.label,
)
def test_closed_form_histogram_equals_the_counted_one(surface):
    form = surface.form
    alternating = is_alternating(form)
    counted = value_histograms(form, Enhancement.code_values(form, range(1 << form.dim))).tolist()
    for code, (beta, expected) in enumerate(zip(brown_spectrum(form).tolist(), counted)):
        assert histogram_from_brown(form.dim, beta, alternating) == ValueHistogram(*expected), code


def test_closed_form_histogram_rejects_impossible_invariants():
    with pytest.raises(InvariantViolation):
        histogram_from_brown(2, 1, False)  # odd invariant in even dimension
    with pytest.raises(InvariantViolation):
        histogram_from_brown(4, 2, True)  # an alternating pairing has only even values


@pytest.mark.parametrize("surface", [nonorientable_surface(64), nonorientable_surface(200), orientable_surface(32)],
                         ids=lambda s: s.label)
def test_normal_form_equals_the_additive_formula_in_high_dimension(capsys, surface):
    rng = random.Random(surface.form.dim)
    n = surface.form.dim
    for _ in range(20):
        if surface.kind == "nonorientable":
            values = tuple(rng.choice((1, 3)) for _ in range(n))
        else:
            values = tuple(rng.choice((0, 2)) for _ in range(n))
            bits = tuple(rng.getrandbits(1) for _ in range(n))
            assert bordism_class(surface, Refinement(surface.form, bits)).value == arf_additive(bits)
        beta = brown_additive(surface, values)
        assert bordism_class(surface, Enhancement(surface.form, values)).value == beta
    rows = invariant_rows(capsys, "-s", surface.label, "-e", ",".join(map(str, values)))
    assert rows["beta"] == beta
    n0, n1, n2, n3 = map(int, rows["histogram"].split(","))
    assert n0 + n1 + n2 + n3 == 1 << n
    assert (n0 - n2) ** 2 + (n1 - n3) ** 2 == 1 << n


def test_cobordant_in_high_dimension():
    n200, n8 = nonorientable_surface(200), nonorientable_surface(8)
    # 200 ones is invariant 0, as is four 1s and four 3s
    assert cobordant((n200, Enhancement(n200.form, (1,) * 200)), (n8, Enhancement(n8.form, (1, 3) * 4)))
    assert not cobordant((n200, Enhancement(n200.form, (3,) + (1,) * 199)), (n8, Enhancement(n8.form, (1,) * 8)))


def test_route_builds_no_class_table(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the normal-form route must not build a class table")

    monkeypatch.setattr(QuadraticStructure, "values_on_all", refuse)
    monkeypatch.setattr(QuadraticStructure, "folded_sums", classmethod(refuse))
    for name in ("class_bit_matrix", "cross_parity_table", "self_pairing_table"):
        monkeypatch.setattr(surfaces, name, refuse)
    n21, s11 = nonorientable_surface(21), orientable_surface(11)
    assert bordism_class(n21, Enhancement(n21.form, (1,) * 21)).value == 5
    assert bordism_class(s11, Enhancement(s11.form, (2,) * 22)).value == 4
    assert bordism_class(s11, Refinement(s11.form, (1,) * 22)).value == 1
    assert invariant_rows(capsys, "-s", "N:21", "-e", ",".join(["1"] * 21))["beta"] == 5
    assert invariant_rows(capsys, "-s", "S:11", "-e", ",".join(["2"] * 22))["beta"] == 4
    assert invariant_rows(capsys, "-s", "S:11", "-q", ",".join(["1"] * 22))["arf"] == 1


@pytest.mark.parametrize("surface,flag,value,name", [
    (f"N:{MAX_NORMAL_FORM_DIM}", "-e", "3", "beta"),
    (f"S:{MAX_NORMAL_FORM_DIM // 2}", "-e", "2", "beta"),
    (f"S:{MAX_NORMAL_FORM_DIM // 2}", "-q", "1", "arf"),
])
def test_invariant_at_the_normal_form_cap(capsys, surface, flag, value, name):
    standard_basis.cache_clear()
    start = time.perf_counter()
    rows = invariant_rows(capsys, "-s", surface, flag, ",".join([value] * MAX_NORMAL_FORM_DIM))
    elapsed = time.perf_counter() - start
    # 256 values of 3 is -256 = 0 mod 8; 128 blocks of Brown 4 or of Arf 1 add up to 0
    assert rows[name] == 0
    assert elapsed < 5, f"{surface} took {elapsed:.1f} s"


def test_invariant_past_the_normal_form_cap(capsys):
    over = MAX_NORMAL_FORM_DIM + 1
    code, out, err = run_cli(capsys, "invariant", "-s", f"N:{over}", "-e", ",".join(["1"] * over))
    assert (code, out) == (3, "")
    assert err.startswith("error: normal-form reduction capped")
    code, _, _ = run_cli(capsys, "invariant", "-s", f"S:{over // 2 + 1}", "-q", ",".join(["0"] * (over + 1)))
    assert code == 3
    surface = nonorientable_surface(over)
    with pytest.raises(LimitError):
        bordism_class(surface, Enhancement(surface.form, (1,) * over))


@pytest.mark.parametrize("argv,dim", [
    (("invariant", "-s", "N:100000", "-e", "1"), 100000),
    (("census", "-s", "S:50000", "-t", "pin-"), 100000),
])
def test_oversized_surface_refused_before_its_form_is_built(capsys, argv, dim):
    # building and validating a form of dimension 100000 alone takes seconds
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert (code, out) == (3, "")
    assert err == f"error: normal-form reduction capped at dimension {MAX_NORMAL_FORM_DIM}, got {dim}\n"
    assert elapsed < 0.5, f"{argv} took {elapsed:.2f} s"


def test_poisoned_pull_back_fails_brown_compass(capsys, monkeypatch):
    # the Gauss-sum octant shares no code with the pull-back, so verify names the first code it misreads
    poison_the_pull_back(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "brown-compass", "--format", "json")
    assert (code, err) == (1, "")
    assert OutputRecord.from_json(out).rows == (
        ("brown-compass", "gauss-equals-normal-form (dim<=10)", "FAIL", "N:3 values (1, 1, 1)"),
    )


def test_gram_check_catches_a_wrong_reduction():
    # a hyperbolic plane whose diagonal claims an odd vector reduces to a basis that is not orthonormal
    # a fresh form: hyperbolic_form(1) is cached and shared, so it must not be poisoned
    form = IntersectionForm(2, (0b10, 0b01))
    form.__dict__["diagonal"] = (1, 0)
    with pytest.raises(InvariantViolation, match="Gram row"):
        standard_basis.__wrapped__(form)
    # dense congruent forms of dimension 16, whose basis vectors and images have many set bits: a diagonal that
    # claims one odd vector too many or too few yields a basis that is not orthonormal, and the message names
    # the first Gram row that breaks the layout, the row a row-by-row check of v_i.v_j finds first
    for base, flipped, row in (("hyperbolic", 0, 0), ("identity", 6, 6), ("identity", 3, 3)):
        form = congruent_form(base, dense_invertible(16, random.Random(16)))
        diagonal = list(form.diagonal)
        diagonal[flipped] ^= 1
        form.__dict__["diagonal"] = tuple(diagonal)
        with pytest.raises(InvariantViolation, match=rf"^reduced basis breaks the identity layout in Gram row {row}$"):
            standard_basis.__wrapped__(form)
    # the rows of one standard layout under a diagonal that decides the other: a pairing in its layout returns
    # at once, so this shows the early return never accepts rows the diagonal's layout contradicts; the reduction
    # then runs into a vector with no hyperbolic partner
    for n in (2, 16):
        for rows, claimed in ((gf2.identity(n), 0), (hyperbolic_form(n // 2).rows, 1)):
            form = IntersectionForm(n, rows)
            form.__dict__["diagonal"] = (claimed,) * n
            with pytest.raises(InvariantViolation, match=r"^vector 0x[13] has no hyperbolic partner"):
                standard_basis.__wrapped__(form)
    # a pairing out of its layout whose diagonal claims e0 odd: odd vectors are split off until e1 is left with no
    # partner; that is a violation, not a bare StopIteration, which a generator would turn into RuntimeError
    form = IntersectionForm(3, (0b100, 0b010, 0b001))
    form.__dict__["diagonal"] = (1, 0, 0)
    with pytest.raises(InvariantViolation, match=r"^vector 0x2 has no hyperbolic partner among the vectors left$"):
        standard_basis.__wrapped__(form)


def test_the_identity_rows_are_their_own_basis_whatever_odd_vectors_the_diagonal_claims():
    # a diagonal that claims some odd vector decides the identity layout, and the unit basis of the identity rows
    # is orthonormal: the early return answers from the rows
    form = IntersectionForm(3, (0b001, 0b010, 0b100))
    form.__dict__["diagonal"] = (1, 0, 0)
    assert standard_basis.__wrapped__(form) == ("identity", (1, 2, 4))


@pytest.mark.parametrize("form", [identity_form(MAX_NORMAL_FORM_DIM), hyperbolic_form(MAX_NORMAL_FORM_DIM // 2)],
                         ids=["N:256", "S:128"])
def test_standard_layouts_take_no_reduction_step(monkeypatch, form):
    # the one comparison of the rows with the layout is the whole answer: no product, no Gram check
    def refuse(*args, **kwargs):
        raise AssertionError("a standard layout must not be reduced")

    monkeypatch.setattr(gf2, "mat_mul", refuse)
    layout, basis = standard_basis.__wrapped__(form)
    assert basis == gf2.identity(form.dim)
    assert layout == ("hyperbolic" if is_alternating(form) else "identity")


# every batch kernel reads its value rows through QuadraticStructure.value_rows, which refuses a value
# outside Z/m and a row that breaks parity
N2, N3, S1 = identity_form(2), identity_form(3), hyperbolic_form(1)
OUT_OF_RANGE = {
    "gauss-5": (brown_gauss_many, N3, [[5, 1, 1]], r"^enhancement values live in Z/4: row 0 is \(5, 1, 1\)$"),
    # an int64 -1 must not wrap to 255 (read as 3), nor a Python -1 raise numpy's OverflowError
    "gauss-int64-minus-1": (brown_gauss_many, N3, np.array([[1, 1, 1], [-1, 1, 1]]), r"row 1 is \(-1, 1, 1\)$"),
    "gauss-python-minus-1": (brown_gauss_many, N3, [[1, 1, 1], [-1, 1, 1]], r"row 1 is \(-1, 1, 1\)$"),
    "histograms-7": (value_histograms, N2, [[1, 1], [3, 1], [1, 7]], r"Z/4: row 2 is \(1, 7\)$"),
    # a value outside Z/m is named before a parity break in an earlier row
    "histograms-7-after-parity": (value_histograms, N2, [[2, 1], [1, 7]], r"Z/4: row 1 is \(1, 7\)$"),
    # a shift past any width reads as a misfit, not as a value mod 2**64
    "gauss-uint64-2-to-the-63": (brown_gauss_many, N2, np.array([[1, 1], [1, 2**63]], dtype=np.uint64), r"Z/4: row 1"),
    "table-4": (Enhancement.value_table, N2, [[1, 4]], r"Z/4: row 0 is \(1, 4\)$"),
    "refinement-table-2": (Refinement.value_table, S1, [[0, 2]], r"^refinement values live in Z/2: row 0 is \(0, 2\)$"),
    # a value that is not an integer is refused, not cast: 1.5 must not read as 1
    "gauss-float": (brown_gauss_many, N3, [[1.5, 1, 1]], r"^enhancement values must be integers, got dtype float64$"),
}


@pytest.mark.parametrize("kernel,form,values,message", OUT_OF_RANGE.values(), ids=list(OUT_OF_RANGE))
def test_batch_kernels_refuse_values_outside_the_modulus(kernel, form, values, message):
    with pytest.raises(ValueError, match=message):
        kernel(form, values)


# one structure's values are checked once, by its constructor: count, then Z/m, then parity
OUTSIDE_THE_MODULUS = {
    "enhancement-5": (Enhancement, N3, (5, 1, 1), r"^enhancement value 5 at index 0 lies outside Z/4$"),
    "enhancement-minus-1": (Enhancement, N3, (1, -1, 1), r"^enhancement value -1 at index 1 lies outside Z/4$"),
    "enhancement-short": (Enhancement, N3, (1, 1), r"^basis value count must equal the pairing dimension$"),
    # a value outside Z/m is named before a parity break at an earlier index
    "enhancement-5-after-parity": (Enhancement, N3, (2, 1, 5), r"^enhancement value 5 at index 2 lies outside Z/4$"),
    "enhancement-uint64-2-to-the-63": (Enhancement, N2, (1, np.uint64(2**63)), r"value 9223372036854775808 at index 1 lies"),
    "refinement-2": (Refinement, S1, (0, 2), r"^refinement value 2 at index 1 lies outside Z/2$"),
    "refinement-3": (Refinement, S1, (3, 3), r"^refinement value 3 at index 0 lies outside Z/2$"),
    # no refinement lives on an odd pairing, which is refused before the out-of-range 5 is read
    "refinement-odd-pairing": (Refinement, N2, (5, 5), "^refinements need an alternating pairing"),
}


@pytest.mark.parametrize("kind,form,values,message", OUTSIDE_THE_MODULUS.values(), ids=list(OUTSIDE_THE_MODULUS))
def test_constructor_refuses_values_outside_the_modulus(kind, form, values, message):
    with pytest.raises(ValueError, match=message):
        kind(form, values)


def test_constructor_refuses_values_that_are_not_integers():
    # a value that is not an integer is refused, not cast: 1.0 must not read as 1
    with pytest.raises(TypeError):
        Enhancement(N3, (1.0, 1, 1))
    with pytest.raises(TypeError):
        Refinement(S1, (1.0, 0))


# the normal forms read codes in [0, 2**n), as an int or an array of integers
CODES_OUT_OF_RANGE = {
    "brown-8": (brown_normal_form, N3, 8, r"^code 0x8 out of range for dimension 3$"),
    "brown-array-8": (brown_normal_form, N3, [1, 8], r"^code 0x8 out of range for dimension 3$"),
    "brown-minus-1": (brown_normal_form, N3, -1, r"^code -0x1 out of range for dimension 3$"),
    # an int64 -1 must not wrap to 2**32 - 1, nor a uint64 2**63 to 0
    "brown-int64-minus-1": (brown_normal_form, N3, np.array([1, -1]), r"^code -0x1 out of range for dimension 3$"),
    "brown-uint64-2-to-the-63": (brown_normal_form, N3, np.array([1, 2**63], dtype=np.uint64), r"^code 0x8000000000000000 out"),
    "brown-numpy-int-9": (brown_normal_form, N3, np.int64(9), r"^code 0x9 out of range for dimension 3$"),
    "arf-4": (arf_normal_form, S1, 4, r"^code 0x4 out of range for dimension 2$"),
    "arf-array-4": (arf_normal_form, S1, [0, 4], r"^code 0x4 out of range for dimension 2$"),
    # a code that is not an integer is refused, not cast
    "brown-float": (brown_normal_form, N3, 1.0, r"^codes must be integers, got dtype float64$"),
    "brown-array-float": (brown_normal_form, N3, [1.5], r"^codes must be integers, got dtype float64$"),
    # no refinement lives on an odd pairing, which is refused before the out-of-range 5 is read
    "arf-odd-pairing": (arf_normal_form, N2, 5, "^refinements need an alternating pairing"),
    "arf-array-odd-pairing": (arf_normal_form, N2, [5], "^refinements need an alternating pairing"),
}


@pytest.mark.parametrize("normal_form,form,codes,message", CODES_OUT_OF_RANGE.values(), ids=list(CODES_OUT_OF_RANGE))
def test_normal_forms_refuse_codes_out_of_range(normal_form, form, codes, message):
    with pytest.raises(ValueError, match=message):
        normal_form(form, codes)


# rows inside Z/m that break the parity rule 2 s(v) = (m/2)(v.v) on a basis vector
PARITY_BREAKS = {
    "table-parity-2": (Enhancement.value_table, identity_form(1), [[2]], r"^enhancement values break parity 2 s\(v\) = 2 \(v\.v\) mod 4: row 0 is \(2,\)$"),
    "gauss-parity-0": (brown_gauss_many, identity_form(1), [[0]], r"parity .* row 0 is \(0,\)$"),
    "histograms-parity": (value_histograms, N2, [[1, 1], [1, 3], [2, 1]], r"parity .* row 2 is \(2, 1\)$"),
    "refinement-table-odd-pairing": (Refinement.value_table, N2, [[0, 0]], r"^refinement values break parity 2 s\(v\) = 1 \(v\.v\) mod 2: row 0"),
}


@pytest.mark.parametrize("kernel,form,values,message", PARITY_BREAKS.values(), ids=list(PARITY_BREAKS))
def test_batch_kernels_refuse_rows_that_break_parity(kernel, form, values, message):
    # each was accepted (a table, a wrong invariant) or raised InvariantViolation, the defect class
    with pytest.raises(ValueError, match=message):
        kernel(form, values)


@pytest.mark.parametrize("form,values,message", [
    (identity_form(3), (2, 1, 1), r"^enhancement value 2 at index 0 breaks parity 2 s\(v\) = 2 \(v\.v\) mod 4$"),
    (identity_form(3), (1, 3, 0), r"^enhancement value 0 at index 2 breaks parity"),
    (hyperbolic_form(1), (1, 0), r"^enhancement value 1 at index 0 breaks parity 2 s\(v\) = 2 \(v\.v\) mod 4$"),
    (hyperbolic_form(1), (2, 3), r"^enhancement value 3 at index 1 breaks parity"),
    (identity_form(1), (2,), r"^enhancement value 2 at index 0 breaks parity 2 s\(v\) = 2 \(v\.v\) mod 4$"),
])
def test_one_structure_that_breaks_parity_is_bad_input(form, values, message):
    # the constructor refuses it with ValueError, as the row kernels refuse the same values as a row
    with pytest.raises(ValueError, match=message):
        Enhancement(form, values)
    with pytest.raises(ValueError, match="parity"):
        brown_gauss_many(form, [values])


@pytest.mark.parametrize("surface", [orientable_surface(0), orientable_surface(2), nonorientable_surface(3)],
                         ids=lambda s: s.label)
def test_normal_form_reads_any_array_like_of_codes(surface):
    form = surface.form
    codes = np.arange(1 << form.dim)
    expected = brown_normal_form(form, codes).tolist()
    assert expected == brown_spectrum(form).tolist()
    for same in (codes.tolist(), tuple(codes.tolist()), range(1 << form.dim), codes.astype(np.uint8), codes.astype(np.uint64)):
        assert brown_normal_form(form, same).tolist() == expected
    # an int code, a numpy integer too, is one structure's, and gives an int
    assert [brown_normal_form(form, c) for c in codes] == expected
    assert all(type(brown_normal_form(form, c)) is int for c in codes)
    assert brown_normal_form(form, []).tolist() == []


def test_one_structure_normal_form_calls_no_numpy(monkeypatch):
    # bordism_class and invariant build one structure and pass its int code: the constructor's checks, the
    # pull-back and the sums stay pure Python, so they reach no `import numpy`, which a None entry in
    # sys.modules makes raise; a fresh interpreter in test_cli checks that numpy is never loaded
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert brown_normal_form(identity_form(3), Enhancement(identity_form(3), (1, 1, 3)).code) == 1
    assert brown_normal_form(hyperbolic_form(2), Enhancement(hyperbolic_form(2), (2, 2, 0, 2)).code) == 4
    assert arf_normal_form(hyperbolic_form(2), Refinement(hyperbolic_form(2), (1, 1, 0, 1)).code) == 1
    n3 = nonorientable_surface(3)
    assert bordism_class(n3, Enhancement(n3.form, (1, 1, 3))).value == 1
    with pytest.raises(ValueError, match="out of range"):
        brown_normal_form(identity_form(3), 8)
    with pytest.raises(ValueError, match="outside Z/4"):
        Enhancement(identity_form(3), (5, 1, 1))
    with pytest.raises(ValueError, match="breaks parity"):
        Enhancement(identity_form(3), (2, 1, 1))
    with pytest.raises(ValueError, match="outside Z/2"):
        Refinement(hyperbolic_form(2), (1, 1, 0, 2))


def test_one_structure_normal_form_calls_no_numpy_on_a_cold_cache(monkeypatch):
    # the reduction and the pull-back it feeds are pure Python too, when they run for the first time
    standard_basis.cache_clear()
    QuadraticStructure.pull_back.cache_clear()
    test_one_structure_normal_form_calls_no_numpy(monkeypatch)
    # and at the cap, where a standard layout is its own basis: 256 values of 3, and 128 blocks of Brown 4 or of
    # Arf 1, add up to 0
    n256, s128 = nonorientable_surface(MAX_NORMAL_FORM_DIM), orientable_surface(MAX_NORMAL_FORM_DIM // 2)
    n20, s10 = nonorientable_surface(20), orientable_surface(10)
    queries = [
        (n256, Enhancement(n256.form, (3,) * MAX_NORMAL_FORM_DIM), 0),
        (s128, Enhancement(s128.form, (2,) * MAX_NORMAL_FORM_DIM), 0),
        (s128, Refinement(s128.form, (1,) * MAX_NORMAL_FORM_DIM), 0),
        # 20 values of 3 add up to -20 = 4 mod 8, 5 blocks of Brown 4 to 4 mod 8, and 5 blocks of Arf 1 to 1 mod 2
        (n20, Enhancement(n20.form, (3,) * 20), 4),
        (s10, Enhancement(s10.form, (2, 2) * 5 + (0, 0) * 5), 4),
        (s10, Refinement(s10.form, (1, 1) * 5 + (0, 0) * 5), 1),
    ]
    # the standard basis of a standard surface is the unit basis, whose pull-back takes no per-vector step and
    # transposes nothing; the surfaces and structures are built above, as a pairing's constructor transposes it
    calls = {"cross_pairs": 0, "as_bits": 0, "transpose": 0}
    for module, name in ((surfaces, "cross_pairs"), (surfaces, "as_bits"), (gf2, "transpose")):
        def counted(*args, _name=name, _call=getattr(module, name)):
            calls[_name] += 1
            return _call(*args)

        monkeypatch.setattr(module, name, counted)
    standard_basis.cache_clear()
    QuadraticStructure.pull_back.cache_clear()
    for surface, structure, value in queries:
        assert bordism_class(surface, structure).value == value
    assert calls == {"cross_pairs": 0, "as_bits": 0, "transpose": 0}


def test_cold_normal_form_query_builds_the_unit_basis_once():
    # standard_basis compares the rows with the unit basis and pull_back compares the vectors with it: one
    # cached tuple serves both
    s128 = orientable_surface(MAX_NORMAL_FORM_DIM // 2)
    structure = Refinement(s128.form, (1,) * MAX_NORMAL_FORM_DIM)
    for cache in (gf2.identity, standard_basis, QuadraticStructure.pull_back):
        cache.cache_clear()
    assert bordism_class(s128, structure).value == 0
    assert (gf2.identity.cache_info().misses, gf2.identity.cache_info().hits) == (1, 1)
    assert gf2.identity(MAX_NORMAL_FORM_DIM) is gf2.identity(MAX_NORMAL_FORM_DIM)
