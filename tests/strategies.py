"""Hypothesis strategies shared by the test modules."""

import random

from hypothesis import strategies as st

from pinforms import IntersectionForm, gf2, hyperbolic_form, identity_form


@st.composite
def congruent_forms(draw, max_dim: int = 5):
    """M^T F M for a standard F of dimension <= max_dim and an invertible M over GF(2).

    M is drawn as P L U: a permutation, a unit lower-triangular factor and a
    unit upper-triangular factor.  Every invertible matrix over GF(2) has
    such a factorization, so every M can be drawn, and no draw is singular.
    """
    n = draw(st.integers(1, max_dim))
    base = draw(st.sampled_from(["identity", "hyperbolic"] if n % 2 == 0 else ["identity"]))
    p = tuple(1 << j for j in draw(st.permutations(range(n))))
    # row i has bit i set, plus any bits below it (L) or above it (U)
    lower = tuple(draw(st.integers(0, (1 << i) - 1)) | 1 << i for i in range(n))
    upper = tuple(draw(st.integers(0, (1 << (n - 1 - i)) - 1)) << (i + 1) | 1 << i for i in range(n))
    return base, gf2.mat_mul(gf2.mat_mul(p, lower), upper)


def congruent_form(base: str, m: tuple[int, ...]) -> IntersectionForm:
    """The pairing M^T F M of a drawn case; M must be invertible."""
    n = len(m)
    f = identity_form(n) if base == "identity" else hyperbolic_form(n // 2)
    return IntersectionForm(n, gf2.mat_mul(gf2.mat_mul(gf2.transpose(m, n), f.rows), m))


def dense_invertible(n: int, rng: random.Random) -> tuple[int, ...]:
    """An invertible n-by-n matrix over GF(2) with uniformly drawn rows, redrawn from ``rng`` until invertible."""
    m: tuple[int, ...] = ()
    while gf2.rank(m) < n:
        m = tuple(rng.getrandbits(n) for _ in range(n))
    return m
