"""Mod-4 enhancements and the two Brown invariant routes."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pinforms import (
    Enhancement,
    InvariantViolation,
    Refinement,
    brown_compass,
    brown_gauss,
    brown_gauss_many,
    brown_spectrum,
    cap_off_summand,
    direct_sum,
    direct_sum_enhancement,
    enhancement_from_refinement,
    enhancements,
    enumerate_enhancements,
    enumerate_refinements,
    gf2,
    hyperbolic_form,
    identity_form,
    intersection,
    orientable_surface,
    value_histogram,
    value_histograms,
    verify,
)
from strategies import congruent_form, congruent_forms


def test_parity_rule_enforced():
    # on the standard nonorientable pairing a basis value must be odd
    with pytest.raises(ValueError):
        Enhancement(identity_form(1), (0,))
    with pytest.raises(ValueError):
        Enhancement(identity_form(2), (1, 2))
    # on an orientable pairing it must be even
    with pytest.raises(ValueError):
        Enhancement(hyperbolic_form(1), (1, 0))


def test_values_mod4_only():
    with pytest.raises(ValueError):
        Enhancement(identity_form(1), (5,))


def test_enumeration_projective_plane():
    es = enumerate_enhancements(identity_form(1))
    assert [e.values for e in es] == [(1,), (3,)]
    assert [brown_gauss(e) for e in es] == [1, 7]


def test_klein_bottle_histogram_and_brown():
    e = Enhancement(identity_form(2), (1, 3))
    hist = value_histogram(e)
    assert tuple(hist) == (2, 1, 0, 1)
    assert hist.gauss_deltas == (2, 0)
    assert brown_gauss(e) == 0
    assert brown_compass(e) == 0


def test_klein_bottle_all_four():
    by_values = {
        e.values: brown_gauss(e) for e in enumerate_enhancements(identity_form(2))
    }
    assert by_values == {(1, 1): 2, (1, 3): 0, (3, 1): 0, (3, 3): 6}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
def test_defining_identity_three_crosscaps(code, xbits, ybits):
    form = identity_form(3)
    e = list(enumerate_enhancements(form))[code]
    assert e(xbits ^ ybits) == (e(xbits) + e(ybits) + 2 * intersection(form, xbits, ybits)) % 4


def test_values_on_all_matches_pointwise():
    form = identity_form(3)
    for e in enumerate_enhancements(form):
        table = e.values_on_all()
        assert [e(x) for x in range(8)] == table.tolist()


def test_two_brown_routes_agree_broadly():
    for form in (identity_form(1), identity_form(2), identity_form(3), identity_form(4)):
        for e in enumerate_enhancements(form):
            assert brown_gauss(e) == brown_compass(e)


def test_direct_sum_adds_brown():
    e1 = Enhancement(identity_form(1), (1,))
    e2 = Enhancement(identity_form(2), (3, 3))
    s = direct_sum_enhancement(e1, e2)
    assert s.form.dim == 3
    assert s.values == (1, 3, 3)
    assert brown_gauss(s) == (brown_gauss(e1) + brown_gauss(e2)) % 8


def test_doubling_lands_on_twice_arf():
    from pinforms import arf_symplectic

    for g in (1, 2):
        for q in enumerate_refinements(hyperbolic_form(g)):
            e = enhancement_from_refinement(q)
            assert e.values == tuple(2 * v for v in q.values)
            assert brown_gauss(e) == 4 * arf_symplectic(q) % 8


def test_cap_off_summand():
    e = Enhancement(identity_form(3), (1, 3, 1))
    rest, removed = cap_off_summand(e, 1)
    assert removed == 3
    assert rest.values == (1, 1)
    assert rest.form.dim == 2

    with pytest.raises(IndexError):
        cap_off_summand(e, 3)
    with pytest.raises(ValueError):
        cap_off_summand(Enhancement(identity_form(1), (1,)), 0)


# The additivity and capping suites build block sums and cap-offs as value
# arrays; these pin the array rows to the structure-level helpers.


def test_block_sum_rows_are_the_direct_sum_enhancements():
    surfaces = verify._standard_surfaces(8, include_sphere=True)
    for s1 in surfaces:
        for s2 in surfaces:
            if s1.form.dim + s2.form.dim > 8:
                continue
            left, right = enumerate_enhancements(s1.form), enumerate_enhancements(s2.form)
            rows = verify._block_sum_rows(verify._values(Enhancement, s1.form), verify._values(Enhancement, s2.form))
            sums = [direct_sum_enhancement(e1, e2) for e1 in left for e2 in right]
            assert {e.form for e in sums} == {direct_sum(s1.form, s2.form)}
            assert rows.dtype == np.uint8
            assert [e.values for e in sums] == [tuple(row) for row in rows.tolist()], (s1.label, s2.label)


@pytest.mark.parametrize("k", range(2, 9))
def test_cap_off_rows_are_the_capped_summands(k):
    structures = enumerate_enhancements(identity_form(k))
    values = verify._values(Enhancement, identity_form(k))
    rows = verify._cap_off_rows(values)
    capped = [cap_off_summand(e, index) for e in structures for index in range(k)]
    assert rows.dtype == np.uint8
    assert [rest for rest, _ in capped] == [Enhancement(identity_form(k - 1), tuple(row)) for row in rows.tolist()]
    assert [removed for _, removed in capped] == values.ravel().tolist()


# the batch kernel against the per-structure class table


STANDARD_FORMS = [orientable_surface(0).form] + [identity_form(k) for k in range(1, 11)] + [
    hyperbolic_form(g) for g in range(1, 6)
]


def form_id(form):
    return f"dim{form.dim}-{'odd' if any(form.diagonal) else 'alternating'}"


def bincount_histograms(structures) -> np.ndarray:
    return np.array([np.bincount(e.values_on_all(), minlength=4) for e in structures]).reshape(-1, 4)


def assert_batch_matches_bincount(form):
    structures = enumerate_enhancements(form)
    counts = value_histograms(form, [e.values for e in structures])
    assert np.array_equal(counts, bincount_histograms(structures))
    assert value_histograms(form, []).shape == (0, 4)


# dimensions 0 to 3 have fewer than 8 classes, so each packed bit plane is one byte with zero padding
@pytest.mark.parametrize("form", STANDARD_FORMS, ids=form_id)
def test_value_histograms_match_bincount_on_standard_forms(form):
    assert_batch_matches_bincount(form)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(congruent_forms(max_dim=8))
def test_value_histograms_match_bincount_on_congruent_forms(case):
    base, m = case
    assume(gf2.rank(m) == len(m))
    assert_batch_matches_bincount(congruent_form(base, m))


def test_value_histograms_in_small_chunks(monkeypatch):
    # 1024 bytes hold 8 rows of 2**7 classes: the 128 structures take 16 chunks
    form = identity_form(7)
    structures = enumerate_enhancements(form)
    expected = bincount_histograms(structures)
    monkeypatch.setattr(enhancements, "_TABLE_BYTES", 1024)
    assert np.array_equal(value_histograms(form, [e.values for e in structures]), expected)
    assert np.array_equal(value_histograms(form, [e.values for e in structures[:13]]), expected[:13])


@pytest.mark.parametrize("dim,codes", [
    # 2**20 bytes hold 256 rows of 2**12 classes, so 600 rows take three chunks, the last one partial
    (12, np.random.default_rng(12).integers(0, 1 << 12, size=600).tolist()),
    (20, [0x5A5A5]),
], ids=["N:12-600-rows", "N:20-one-row"])
def test_value_histograms_match_bincount_on_seeded_rows(dim, codes):
    form = identity_form(dim)
    values = Enhancement.code_values(form, codes)
    tables = (Enhancement(form, tuple(row)).values_on_all() for row in values.tolist())
    expected = np.array([np.bincount(table, minlength=4) for table in tables])
    assert np.array_equal(value_histograms(form, values), expected)


def test_value_histograms_table_stays_within_its_chunk():
    # 4096 rows at dimension 10 would be a 4 MB table in one piece
    form = identity_form(10)
    values = np.array([e.values for e in enumerate_enhancements(form)] * 4, dtype=np.uint8)
    tracemalloc.start()
    try:
        counts = value_histograms(form, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.shape == (4096, 4)
    assert peak < 3 << 20


@pytest.mark.parametrize("form", STANDARD_FORMS, ids=form_id)
def test_brown_gauss_many_matches_per_structure_and_spectrum(form):
    structures = enumerate_enhancements(form)
    many = brown_gauss_many(form, [e.values for e in structures]).tolist()
    assert many == [brown_gauss(e) for e in structures]
    assert many == brown_spectrum(form).tolist()
    # an empty batch of rows has no invariants
    assert brown_gauss_many(form, np.zeros((0, form.dim), dtype=np.uint8)).shape == (0,)


def test_brown_gauss_many_reports_the_first_bad_structure(monkeypatch):
    form = identity_form(3)
    structures = enumerate_enhancements(form)

    # code 2 gets a zero Gauss sum, code 5 one of squared magnitude 64
    faults = {2: (1, 1, 1, 1), 5: (8, 0, 0, 0)}

    def faulty(form, values):
        batch = [Enhancement(form, tuple(v)) for v in values]
        return np.array([faults.get(e.code, np.bincount(e.values_on_all(), minlength=4)) for e in batch])

    monkeypatch.setattr(enhancements, "value_histograms", faulty)
    values = [e.values for e in structures]
    with pytest.raises(InvariantViolation, match="^zero Gauss sum for an enhancement of a nondegenerate pairing$"):
        brown_gauss_many(form, values)
    with pytest.raises(InvariantViolation, match=r"^Gauss sum magnitude 64 is not 2\*\*3$"):
        brown_gauss_many(form, values[3:])
    with pytest.raises(InvariantViolation, match="^Gauss sum magnitude 64"):
        brown_gauss_many(form, values[::-1])


# the Gauss sums of every code, split out of one transform, against the sum over all classes of each structure

# real and imaginary parts of i**v for v = 0, 1, 2, 3
RE_OF_TURN, IM_OF_TURN = np.array([1, 0, -1, 0]), np.array([0, 1, 0, -1])


def assert_gauss_sums_match_each_structure(form):
    p = Enhancement.folded_sums(form)
    assert p.dtype == np.int32 and p.shape == (1 << form.dim,)
    # Q = Re - Im is P at c ^ delta, the rule brown_spectrum reads, here by an index gather
    q = p[np.arange(p.size) ^ form.diagonal_bits]
    real, imag = (p.astype(np.int64) + q) // 2, (p.astype(np.int64) - q) // 2
    for e in enumerate_enhancements(form):
        values = e.values_on_all()
        assert [real[e.code], imag[e.code]] == [RE_OF_TURN[values].sum(), IM_OF_TURN[values].sum()], e
    assert brown_spectrum(form).tolist() == [brown_gauss(e) for e in enumerate_enhancements(form)]
    if not any(form.diagonal):
        # every term i**e(x) is real where x.x = 0
        assert (p == q).all()
        # and e = 2q has i**e(x) = (-1)**q(x), so the refinement of the same code has the same sum
        sums = Refinement.folded_sums(form)
        assert sums.dtype == np.int32 and sums.tolist() == p.tolist()
        signs = [int((1 - 2 * s.values_on_all().astype(np.int64)).sum()) for s in enumerate_refinements(form)]
        assert sums.tolist() == signs


SPLIT_FORMS = [identity_form(k) for k in range(1, 7)] + [hyperbolic_form(g) for g in range(1, 4)]


@pytest.mark.parametrize("form", SPLIT_FORMS, ids=form_id)
def test_folded_sums_on_standard_forms(form):
    assert_gauss_sums_match_each_structure(form)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(congruent_forms(max_dim=6))
@example(("identity", (0b011, 0b010, 0b100)))  # diagonal (1, 0, 1)
@example(("identity", (0b0011, 0b0010, 0b0100, 0b1000)))  # diagonal (1, 0, 1, 1)
def test_folded_sums_on_congruent_forms(case):
    base, m = case
    assume(gf2.rank(m) == len(m))
    assert_gauss_sums_match_each_structure(congruent_form(base, m))
