"""Structure censuses by invariant value, closed forms, and bordism classes."""

import json
import time
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings

from pinforms import census, gf2, refinements
from pinforms import (
    FLAG_CONFIRMED,
    FLAG_CONJECTURED_CONFIRMED,
    FLAG_DISPUTED,
    Enhancement,
    LimitError,
    Refinement,
    arf_majority,
    arf_spectrum,
    arf_symplectic,
    bordism_class,
    brown_gauss_many,
    brown_spectrum,
    cobordant,
    enumerate_enhancements,
    enumerate_refinements,
    hyperbolic_form,
    identity_form,
    nonorientable_surface,
    orientable_surface,
    pin_census_closed_form,
    pin_census_enumerated,
    pin_census_recursive,
    reference_census,
)
from pinforms.cli import main
from pinforms.refinements import spin_closed_form
from pinforms.surfaces import is_alternating
from strategies import congruent_form, congruent_forms

# exhaustively enumerated counts of enhancements by Brown invariant
ENUMERATED = {
    "N:1": {1: 1, 7: 1},
    "N:2": {0: 2, 2: 1, 6: 1},
    "N:3": {1: 3, 3: 1, 5: 1, 7: 3},
    "N:4": {0: 6, 2: 4, 4: 2, 6: 4},
    "S:1": {0: 3, 4: 1},
    "S:2": {0: 10, 4: 6},
}


def surface_for(label):
    kind, genus = label.split(":")
    if kind == "S":
        return orientable_surface(int(genus))
    return nonorientable_surface(int(genus))


@pytest.mark.parametrize("label", sorted(ENUMERATED))
def test_enumerated_census(label):
    assert pin_census_enumerated(surface_for(label)) == ENUMERATED[label]


ORACLE_SURFACES = (
    [orientable_surface(0)]
    + [nonorientable_surface(k) for k in range(1, 11)]
    + [orientable_surface(g) for g in range(1, 6)]
)


@pytest.mark.parametrize("surface", ORACLE_SURFACES, ids=lambda s: s.label)
def test_spectra_match_per_object_invariants(surface):
    form = surface.form
    structures = enumerate_enhancements(form)
    assert brown_spectrum(form).tolist() == brown_gauss_many(form, [e.values for e in structures]).tolist()
    if surface.kind == "orientable":
        assert arf_spectrum(form).tolist() == [arf_symplectic(q) for q in enumerate_refinements(form)]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(congruent_forms())
@example(("identity", (0b011, 0b010, 0b100)))  # diagonal (1, 0, 1)
def test_spectra_on_congruent_forms(case):
    base, m = case
    assume(gf2.rank(m) == len(m))
    form = congruent_form(base, m)
    structures = enumerate_enhancements(form)
    assert brown_spectrum(form).tolist() == brown_gauss_many(form, [e.values for e in structures]).tolist()
    if is_alternating(form):
        assert arf_spectrum(form).tolist() == [arf_majority(q) for q in enumerate_refinements(form)]


def _timed_census_json(capsys, *argv):
    start = time.perf_counter()
    code = main(["census", *argv, "--format", "json"])
    elapsed = time.perf_counter() - start
    record = json.loads(capsys.readouterr().out)
    counts = {row[0]: row[1] for row in record["rows"] if row[1]}
    return code, counts, elapsed


def test_census_at_the_advertised_maximum(capsys):
    # MAX_TABLE_DIM = 20 is the enumeration limit; both theories reach it within a budget
    code, counts, elapsed = _timed_census_json(capsys, "-s", "N:20", "-t", "pin-", "--compare")
    assert code == 0
    assert counts == pin_census_recursive(20)
    assert elapsed < 10
    code, counts, elapsed = _timed_census_json(capsys, "-s", "S:10", "-t", "spin")
    assert code == 0
    assert counts == spin_closed_form(10)
    assert elapsed < 10
    # the orientable half of the split: every imaginary part is zero and the Brown invariant is 0 or 4
    code, counts, elapsed = _timed_census_json(capsys, "-s", "S:10", "-t", "pin-", "--compare")
    assert code == 0
    assert counts == {0: 2**9 * (2**10 + 1), 4: 2**9 * (2**10 - 1)}
    assert elapsed < 10
    assert main(["census", "-s", "N:21", "-t", "pin-"]) == 3


def test_enumeration_limit():
    with pytest.raises(LimitError):
        pin_census_enumerated(nonorientable_surface(21))


def test_recursive_census_matches_enumeration():
    for k in range(1, 11):
        assert pin_census_recursive(k) == pin_census_enumerated(nonorientable_surface(k))


def test_recursive_census_rejects_zero():
    with pytest.raises(ValueError):
        pin_census_recursive(0)


def test_census_totals():
    for k in range(1, 13):
        assert sum(pin_census_recursive(k).values()) == 1 << k


def test_reference_census_beyond_enumeration_uses_recursion():
    assert reference_census(nonorientable_surface(21)) == pin_census_recursive(21)


def test_reference_census_orientable_beyond_enumeration_is_independent(monkeypatch):
    # the arbiter must not be the closed form it judges: wrong spin counts
    # change nothing, and the hyperbolic-block recursion gives 2^(g-1)(2^g +/- 1)
    def wrong(g):
        return {0: 1, 1: 1}

    monkeypatch.setattr(refinements, "spin_closed_form", wrong)
    monkeypatch.setattr(census, "spin_closed_form", wrong, raising=False)
    surface = orientable_surface(11)
    assert reference_census(surface) == {0: 2098176, 4: 2096128}
    for g in range(6):
        assert census._block_sum_census({0: 3, 4: 1}, g) == pin_census_enumerated(orientable_surface(g))


def test_orientable_closed_form_column_reads_the_spin_closed_form(capsys, monkeypatch):
    # one source for 2^(g-1)(2^g +/- 1): the pin- entry at Brown 4 * Arf is the spin count at Arf
    monkeypatch.setattr(census, "spin_closed_form", lambda g: {0: 7, 1: 9})
    assert main(["census", "-s", "S:2", "-t", "pin-", "--compare", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(row[0], row[2], row[3]) for row in rows] == [(0, 7, FLAG_DISPUTED), (4, 9, FLAG_DISPUTED)]


def test_closed_form_orientable_confirmed():
    for g in (1, 2, 3):
        entries = pin_census_closed_form(orientable_surface(g))
        assert [e.invariant for e in entries] == [0, 4]
        assert all(e.flag == FLAG_CONFIRMED for e in entries)
        assert entries[0].formula_count - entries[1].formula_count == 1 << g


def test_closed_form_odd_genus_confirmed():
    for k in (1, 3, 5, 7):
        entries = pin_census_closed_form(nonorientable_surface(k))
        assert [e.invariant for e in entries] == [1, 3, 5, 7]
        assert all(e.flag == FLAG_CONFIRMED for e in entries)


def test_closed_form_klein_bottle_disputed_at_zero():
    entries = {e.invariant: e for e in pin_census_closed_form(nonorientable_surface(2))}
    zero = entries[0]
    assert zero.formula_count == 1
    assert zero.reference_count == 2
    assert zero.flag == FLAG_DISPUTED
    assert zero.corrected_count == 2
    assert zero.corrected_flag == FLAG_CONJECTURED_CONFIRMED
    for invariant in (2, 4, 6):
        assert entries[invariant].flag == FLAG_CONFIRMED
        assert entries[invariant].corrected_count is None


def test_closed_form_even_genus_pattern():
    for k in (4, 6, 8):
        entries = {e.invariant: e for e in pin_census_closed_form(nonorientable_surface(k))}
        zero = entries[0]
        assert zero.formula_count == 1 << ((3 * k - 6) // 2)
        assert zero.flag == FLAG_DISPUTED
        assert zero.corrected_count == (1 << (k - 2)) + (1 << ((k - 2) // 2))
        assert zero.corrected_flag == FLAG_CONJECTURED_CONFIRMED
        for invariant in (2, 6):
            assert entries[invariant].formula_count == 1 << (k - 2)
            assert entries[invariant].flag == FLAG_CONFIRMED
        assert entries[4].flag == FLAG_CONFIRMED


def test_bordism_class_spin():
    s = orientable_surface(1)
    q = Refinement(s.form, (1, 1))
    cls = bordism_class(s, q)
    assert cls.theory == "spin"
    assert cls.value == 1


def test_bordism_class_pin_minus():
    n = nonorientable_surface(2)
    e = Enhancement(n.form, (1, 1))
    cls = bordism_class(n, e)
    assert cls.theory == "pin-"
    assert cls.value == 2


def test_bordism_class_validation():
    s = orientable_surface(1)
    n = nonorientable_surface(2)
    with pytest.raises(ValueError):
        bordism_class(s, Refinement(hyperbolic_form(2), (0,) * 4))
    with pytest.raises(ValueError):
        bordism_class(n, Enhancement(identity_form(3), (1, 1, 1)))
    # a structure of no theory in THEORIES
    with pytest.raises(ValueError, match="unsupported structure type SimpleNamespace"):
        bordism_class(n, SimpleNamespace(form=n.form))


def test_cobordant_pairs():
    n2 = nonorientable_surface(2)
    a = (n2, Enhancement(n2.form, (1, 3)))
    b = (n2, Enhancement(n2.form, (3, 1)))
    c = (n2, Enhancement(n2.form, (1, 1)))
    assert cobordant(a, b)
    assert not cobordant(a, c)

    # same invariant across different surfaces is still cobordant
    n1 = nonorientable_surface(1)
    n3 = nonorientable_surface(3)
    d = (n1, Enhancement(n1.form, (1,)))
    e = (n3, Enhancement(n3.form, (3, 1, 1)))
    assert cobordant(d, e)


def test_cobordant_rejects_mixed_theories():
    s = orientable_surface(1)
    n = nonorientable_surface(1)
    with pytest.raises(ValueError):
        cobordant((s, Refinement(s.form, (0, 0))), (n, Enhancement(n.form, (1,))))
