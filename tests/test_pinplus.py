"""Mod-2 quadratic functions on mod-4 homology and their existence pattern."""

import itertools
import random

import pytest

from pinforms import pinplus
from pinforms import (
    Mod4Homology,
    PinPlusForm,
    enumerate_pinplus,
    hyperbolic_form,
    identity_form,
    is_well_defined,
    mod4_homology,
    nonorientable_surface,
    orientable_surface,
)


def test_mod4_homology_presentations():
    s = mod4_homology(orientable_surface(2))
    assert s.generator_count == 4
    assert s.relations == ()

    n = mod4_homology(nonorientable_surface(3))
    assert n.generator_count == 3
    assert n.relations == ((2, 2, 2),)


def test_relation_validation():
    with pytest.raises(ValueError):
        Mod4Homology(identity_form(2), ((2,),))
    with pytest.raises(ValueError):
        Mod4Homology(identity_form(2), ((1, 2),))


def test_value_validation():
    model = mod4_homology(nonorientable_surface(2))
    count = "generator value count must equal the generator count"
    cases = [((0,), count), ((0, 1, 0), count), ((), count), ((0, 2), "values live in Z/2"),
             ([1, -1], "values live in Z/2"), ((3, 3), "values live in Z/2")]
    for values, message in cases:
        with pytest.raises(ValueError) as raised:
            PinPlusForm(model, values)
        assert str(raised.value) == message, values


def test_evaluation_doubling_and_tripling_rules():
    model = mod4_homology(nonorientable_surface(2))
    for values in itertools.product((0, 1), repeat=2):
        q = PinPlusForm(model, values)
        for i, gen in enumerate([(1, 0), (0, 1)]):
            double = tuple(2 * c for c in gen)
            triple = tuple(3 * c for c in gen)
            # q(2v) = v.v and q(3v) = q(v) + v.v; core classes have v.v = 1
            assert q(double) == 1
            assert q(triple) == (q(gen) + 1) % 2


def test_evaluation_defining_identity_on_disjoint_supports():
    # for classes x, y supported on different generators the stepwise
    # evaluation gives q(x + y) = q(x) + q(y) + x.y directly
    model = mod4_homology(nonorientable_surface(4))
    q = PinPlusForm(model, (1, 0, 1, 0))
    x = (1, 2, 0, 0)
    y = (0, 0, 3, 1)
    xy = tuple((a + b) % 4 for a, b in zip(x, y))
    form = model.form
    xm2 = sum(1 << i for i, c in enumerate(x) if c % 2)
    ym2 = sum(1 << i for i, c in enumerate(y) if c % 2)
    assert q(xy) == (q(x) + q(y) + form.pairing_bits(xm2, ym2)) % 2


def test_odd_genus_has_no_structures():
    for k in (1, 3, 5):
        assert enumerate_pinplus(nonorientable_surface(k)) == []


def test_odd_genus_witness_is_the_relation():
    model = mod4_homology(nonorientable_surface(3))
    verdict = is_well_defined(PinPlusForm(model, (0, 0, 0)))
    assert not verdict.ok
    assert verdict.relation == (2, 2, 2)


def _translation_invariant(q) -> bool:
    n = q.model.generator_count
    return all(
        q(tuple((a + b) % 4 for a, b in zip(x, rel))) == q(x)
        for rel in q.model.relations
        for x in itertools.product(range(4), repeat=n)
    )


def test_well_defined_matches_exhaustive_translation_check():
    models = [mod4_homology(nonorientable_surface(k)) for k in range(1, 5)]
    models += [mod4_homology(orientable_surface(g)) for g in (1, 2)]
    models.append(Mod4Homology(identity_form(3), ((2, 0, 2),)))
    verdicts = set()
    for model in models:
        for values in itertools.product((0, 1), repeat=model.generator_count):
            q = PinPlusForm(model, values)
            verdict = is_well_defined(q).ok
            assert verdict == _translation_invariant(q), (model.relations, values)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_even_genus_counts():
    assert len(enumerate_pinplus(nonorientable_surface(2))) == 4
    assert len(enumerate_pinplus(nonorientable_surface(4))) == 16
    assert len(enumerate_pinplus(nonorientable_surface(6))) == 64


def test_orientable_counts():
    assert len(enumerate_pinplus(orientable_surface(1))) == 4
    assert len(enumerate_pinplus(orientable_surface(2))) == 16


def test_relation_value_is_genus_parity():
    for k in range(1, 9):
        model = mod4_homology(nonorientable_surface(k))
        q = PinPlusForm(model, (0,) * k)
        assert q((2,) * k) == k % 2


def test_coefficient_validation():
    model = mod4_homology(nonorientable_surface(2))
    q = PinPlusForm(model, (0, 0))
    with pytest.raises(ValueError):
        q((4, 0))
    with pytest.raises(ValueError):
        q((1,))


def _candidates(model):
    n = model.generator_count
    return [PinPlusForm(model, tuple((code >> i) & 1 for i in range(n))) for code in range(1 << n)]


def _by_candidate(model):
    """Reference: every candidate checked for descent on its own, in code order."""
    return [q for q in _candidates(model) if is_well_defined(q).ok]


@pytest.mark.parametrize(
    "surface",
    [nonorientable_surface(k) for k in range(1, 13)] + [orientable_surface(g) for g in range(0, 6)],
    ids=lambda s: s.label,
)
def test_enumeration_equals_the_per_candidate_filter(surface):
    assert enumerate_pinplus(surface) == _by_candidate(mod4_homology(surface))


def test_code_zero_decides_every_candidate():
    # a relation r = 2w gives q(r) = w.w under every candidate, so the
    # per-candidate filter keeps all of them or none
    models = [
        Mod4Homology(identity_form(3), ((2, 0, 2),)),
        Mod4Homology(identity_form(4), ((2, 2, 0, 0), (0, 0, 2, 2))),
        Mod4Homology(identity_form(4), ((2, 2, 0, 0), (0, 0, 2, 0))),
        Mod4Homology(hyperbolic_form(1), ((2, 2),)),
        Mod4Homology(hyperbolic_form(2), ((2, 0, 0, 0),)),
        Mod4Homology(identity_form(3), ((2, 2, 2),)),
    ]
    decisions = []
    for model in models:
        decided = is_well_defined(PinPlusForm(model, (0,) * model.generator_count)).ok
        assert _by_candidate(model) == (_candidates(model) if decided else []), model.relations
        decisions.append(decided)
    assert decisions == [True, True, False, True, True, False]


def test_enumeration_checks_descent_once(monkeypatch):
    calls = []

    def counting(q):
        calls.append(q.values)
        return is_well_defined(q)

    monkeypatch.setattr(pinplus, "is_well_defined", counting)
    assert len(enumerate_pinplus(nonorientable_surface(10))) == 1 << 10
    assert calls == [(0,) * 10]


def evaluated_by_pairing_bits(q, coeffs):
    """The oracle for ``PinPlusForm.__call__``: repeated generator addition, each cross term a full ``pairing_bits``."""
    form = q.model.form
    total = acc = 0
    for i, c in enumerate(coeffs):
        for _ in range(c):
            total ^= q.values[i] ^ form.pairing_bits(acc, 1 << i)
            acc ^= 1 << i
    return total


@pytest.mark.parametrize(
    "surface",
    [nonorientable_surface(2), nonorientable_surface(4), orientable_surface(1)],
    ids=lambda s: s.label,
)
def test_evaluation_matches_the_pairing_bits_oracle_on_every_class(surface):
    n = surface.form.dim
    for q in enumerate_pinplus(surface):
        for coeffs in itertools.product(range(4), repeat=n):
            assert q(coeffs) == evaluated_by_pairing_bits(q, coeffs), (q.values, coeffs)


def test_evaluation_matches_the_pairing_bits_oracle_on_a_sample_at_genus_two():
    rng = random.Random(0x5A2)
    for q in rng.sample(enumerate_pinplus(orientable_surface(2)), 6):
        for _ in range(50):
            coeffs = tuple(rng.randrange(4) for _ in range(4))
            assert q(coeffs) == evaluated_by_pairing_bits(q, coeffs), (q.values, coeffs)
