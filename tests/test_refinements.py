"""Mod-2 refinements of the intersection pairing and the Arf invariant."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinforms import (
    IntersectionForm,
    Refinement,
    arf_majority,
    arf_normal_form,
    arf_spectrum,
    arf_symplectic,
    enumerate_refinements,
    hyperbolic_form,
    identity_form,
    intersection,
    spin_census,
)


def test_refinement_requires_matching_length():
    with pytest.raises(ValueError):
        Refinement(hyperbolic_form(1), (0,))


def test_refinement_values_mod2_only():
    with pytest.raises(ValueError):
        Refinement(hyperbolic_form(1), (0, 2))


def test_enumeration_count_genus_one():
    qs = list(enumerate_refinements(hyperbolic_form(1)))
    assert len(qs) == 4
    assert [q.values for q in qs] == [(0, 0), (1, 0), (0, 1), (1, 1)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_defining_identity_genus_two(code, xbits, ybits):
    form = hyperbolic_form(2)
    q = list(enumerate_refinements(form))[code]
    assert q(xbits ^ ybits) == (q(xbits) + q(ybits) + intersection(form, xbits, ybits)) % 2


def test_values_on_all_matches_pointwise():
    form = hyperbolic_form(2)
    for q in enumerate_refinements(form):
        table = q.values_on_all()
        assert [q(x) for x in range(16)] == table.tolist()


def test_arf_two_routes_agree():
    for g in (1, 2, 3):
        form = hyperbolic_form(g)
        for q in enumerate_refinements(form):
            assert arf_majority(q) == arf_symplectic(q)


def test_arf_known_values_genus_one():
    form = hyperbolic_form(1)
    by_values = {q.values: arf_symplectic(q) for q in enumerate_refinements(form)}
    # only the refinement sending both basis classes to 1 has Arf 1
    assert by_values == {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 1}


def test_refinement_rejects_nonalternating_pairing():
    # q(x+x) = 0 forces x.x = 0, so no refinement exists off orientable surfaces
    with pytest.raises(ValueError):
        Refinement(identity_form(2), (1, 1))
    with pytest.raises(ValueError):
        list(enumerate_refinements(identity_form(1)))


def test_spin_census_small_genera():
    assert spin_census(1) == {0: 3, 1: 1}
    assert spin_census(2) == {0: 10, 1: 6}
    assert spin_census(3) == {0: 36, 1: 28}


def test_spin_census_totals():
    for g in (1, 2, 3, 4):
        census = spin_census(g)
        assert census[0] + census[1] == 1 << (2 * g)
        assert census[0] - census[1] == 1 << g


def test_spin_census_sphere_and_negative_genus():
    # the sphere has one spin structure, of Arf 0; a negative genus is no surface
    assert spin_census(0) == {0: 1, 1: 0}
    with pytest.raises(ValueError):
        spin_census(-1)


@pytest.mark.parametrize("g", range(6))
def test_arf_normal_form_on_rows_equals_the_per_object_block_formula(g):
    form = hyperbolic_form(g)
    refinements = enumerate_refinements(form)
    many = arf_normal_form(form, range(1 << form.dim))
    assert many.tolist() == [arf_symplectic(q) for q in refinements]
    # the block formula written out, and the Gauss-sum route that shares no code with it
    assert many.tolist() == [sum(q.values[2 * i] * q.values[2 * i + 1] for i in range(g)) % 2 for q in refinements]
    assert many.tolist() == arf_spectrum(form).tolist()
    # codes in any order, as a list of ints too
    assert arf_normal_form(form, [q.code for q in refinements[::-1]]).tolist() == many.tolist()[::-1]


@pytest.mark.parametrize(
    "form",
    [
        identity_form(2),
        # alternating, but the planes pair basis vectors (0, 2) and (1, 3) rather than neighbours
        IntersectionForm(4, (0b0100, 0b1000, 0b0001, 0b0010)),
    ],
    ids=["odd", "alternating-not-interleaved"],
)
def test_arf_symplectic_refuses_a_non_hyperbolic_layout(form):
    # no refinement lives on the odd pairing, so the structure is a stand-in; the layout is checked first
    q = SimpleNamespace(form=form, values=(0,) * form.dim)
    with pytest.raises(ValueError, match="the block formula needs the standard hyperbolic layout"):
        arf_symplectic(q)
