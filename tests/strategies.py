"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from pinforms import IntersectionForm, gf2, hyperbolic_form, identity_form


@st.composite
def congruent_forms(draw, max_dim: int = 5):
    """M^T F M for a standard F of dimension <= max_dim and an invertible M over GF(2)."""
    n = draw(st.integers(1, max_dim))
    base = draw(st.sampled_from(["identity", "hyperbolic"] if n % 2 == 0 else ["identity"]))
    m = tuple(draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
    return base, m


def congruent_form(base: str, m: tuple[int, ...]) -> IntersectionForm:
    """The pairing M^T F M of a drawn case; M must be invertible."""
    n = len(m)
    f = identity_form(n) if base == "identity" else hyperbolic_form(n // 2)
    return IntersectionForm(n, gf2.mat_mul(gf2.mat_mul(gf2.transpose(m, n), f.rows), m))
