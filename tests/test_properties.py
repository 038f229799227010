"""Full-scale structural properties of the defining identities.

These checks rebuild the evaluation grids from scratch so they do not share
code with the verification suites they mirror.
"""

import itertools
import random

import numpy as np

from pinforms import (
    enumerate_enhancements,
    enumerate_pinplus,
    enumerate_refinements,
    hyperbolic_form,
    identity_form,
    mod4_homology,
    nonorientable_surface,
)


def pair_grid(form):
    n = form.dim
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)
    return (bits @ form.matrix.astype(np.uint8) @ bits.T) % 2


def first_break(structures, pairs, mod):
    """First class x at which some structure breaks s(x+y) = s(x) + s(y) + (m/2) x.y for some y, or None.

    Column j of the stacked table holds structure j's values on all classes,
    so row x ^ y against row x plus row y covers every structure at once.
    """
    table = np.stack([s.values_on_all().astype(np.uint8) for s in structures], axis=1)
    idx = np.arange(len(table))
    half_pairs = ((mod // 2) * pairs).astype(np.uint8)
    for x in range(len(table)):
        rhs = table + table[x]
        rhs += half_pairs[x][:, None]
        rhs &= mod - 1
        if not np.array_equal(table[x ^ idx], rhs):
            return x
    return None


def test_refinement_identity_exhaustive_through_genus_five():
    for g in range(1, 6):
        form = hyperbolic_form(g)
        assert first_break(enumerate_refinements(form), pair_grid(form), 2) is None, g


def test_refinement_identity_sampled_at_genus_six():
    # all 2**12 refinements would need ~7e10 comparisons; a seeded sample
    # keeps the all-pairs check at this dimension tractable
    form = hyperbolic_form(6)
    refinements = enumerate_refinements(form)
    rng = random.Random(0xD1CE)
    assert first_break(rng.sample(refinements, 48), pair_grid(form), 2) is None


def test_enhancement_identity_exhaustive_dim_ten():
    forms = [identity_form(k) for k in range(1, 11)]
    forms += [hyperbolic_form(g) for g in range(1, 6)]
    for form in forms:
        assert first_break(enumerate_enhancements(form), pair_grid(form), 4) is None, form.dim


def test_enhancement_parity_exhaustive_dim_ten():
    for k in range(1, 11):
        form = identity_form(k)
        selfpair = pair_grid(form).diagonal()
        for e in enumerate_enhancements(form):
            assert ((e.values_on_all() % 2) == selfpair).all()


def test_pinplus_identity_on_spanning_pairs():
    for k in (2, 4, 6):
        surface = nonorientable_surface(k)
        model = mod4_homology(surface)
        form = model.form
        spanning = [
            tuple(c if j == i else 0 for j in range(k))
            for i in range(k)
            for c in (1, 2, 3)
        ]
        for q in enumerate_pinplus(surface):
            for x, y in itertools.product(spanning, repeat=2):
                xy = tuple((a + b) % 4 for a, b in zip(x, y))
                xm2 = sum(1 << i for i, c in enumerate(x) if c % 2)
                ym2 = sum(1 << i for i, c in enumerate(y) if c % 2)
                assert q(xy) == (q(x) + q(y) + form.pairing_bits(xm2, ym2)) % 2


def test_pinplus_translation_invariance_under_relations():
    rng = random.Random(0xBEEF)
    for k in (2, 4, 6):
        surface = nonorientable_surface(k)
        relation = (2,) * k
        probes = [tuple(rng.randrange(4) for _ in range(k)) for _ in range(24)]
        probes += [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]
        for q in enumerate_pinplus(surface):
            assert q(relation) == 0
            for x in probes:
                shifted = tuple((a + b) % 4 for a, b in zip(x, relation))
                assert q(shifted) == q(x)
