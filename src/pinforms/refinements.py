"""Mod-2 quadratic refinements of the intersection pairing and their Arf invariant."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .surfaces import (
    H1Class,
    IntersectionForm,
    InvariantViolation,
    MAX_TABLE_DIM,
    LimitError,
    as_bits,
    class_bit_matrix,
    cross_pairs,
    cross_parity_table,
    hyperbolic_form,
    is_alternating,
    is_hyperbolic_form,
)

# A census maps invariant values to structure counts; zero counts are dropped.
Census = dict[int, int]


@dataclass(frozen=True)
class Refinement:
    """Function q with q(x+y) = q(x) + q(y) + x.y, stored by its basis values.

    Taking x = y shows the identity forces x.x = 0 for every class, so
    refinements exist only on alternating pairings (orientable surfaces).
    """

    form: IntersectionForm
    values: tuple[int, ...]

    def __post_init__(self):
        if not is_alternating(self.form):
            raise ValueError("refinements need an alternating pairing (orientable surface)")
        if len(self.values) != self.form.dim:
            raise ValueError("basis value count must equal the pairing dimension")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("refinement values live in Z/2")

    @cached_property
    def value_bits(self) -> int:
        bits = 0
        for i, v in enumerate(self.values):
            bits |= v << i
        return bits

    def __call__(self, x: H1Class | int) -> int:
        xbits = as_bits(x, self.form.dim)
        linear = (self.value_bits & xbits).bit_count()
        return (linear + cross_pairs(self.form, xbits)) & 1

    def values_on_all(self) -> np.ndarray:
        """Values on all 2**n classes, indexed by integer encoding."""
        bits = class_bit_matrix(self.form.dim)
        vec = np.array(self.values, dtype=np.uint8)
        return ((bits @ vec) + cross_parity_table(self.form)) & 1


def enumerate_refinements(form: IntersectionForm) -> list[Refinement]:
    """All 2**n refinements, ordered by the integer encoding of their basis values."""
    n = form.dim
    if n > MAX_TABLE_DIM:
        raise LimitError(f"refinement enumeration capped at dimension {MAX_TABLE_DIM}, got {n}")
    return [
        Refinement(form, tuple((code >> i) & 1 for i in range(n)))
        for code in range(1 << n)
    ]


def arf_majority(q: Refinement) -> int:
    """Majority value of q over all classes."""
    vals = q.values_on_all()
    ones = int(vals.sum())
    zeros = int(vals.size) - ones
    # a nondegenerate alternating pairing always biases the counts by 2^(g-1)
    if zeros == ones:
        raise InvariantViolation("majority tie on a nondegenerate symplectic pairing")
    return 0 if zeros > ones else 1


def arf_symplectic(q: Refinement) -> int:
    """Sum over hyperbolic blocks of q(a_i) q(b_i); standard orientable layout only."""
    if not is_hyperbolic_form(q.form):
        raise ValueError("the block formula needs the standard hyperbolic layout")
    vals = q.values
    return sum(vals[2 * i] * vals[2 * i + 1] for i in range(q.form.dim // 2)) & 1


def spin_closed_form(g: int) -> Census:
    """Refinement counts on a genus-g surface by Arf value: 2**(g-1) (2**g + 1) and 2**(g-1) (2**g - 1)."""
    return {
        0: ((1 << (2 * g)) + (1 << g)) // 2,
        1: ((1 << (2 * g)) - (1 << g)) // 2,
    }


def spin_census(g: int) -> Census:
    """Counts of refinements on a genus-g orientable surface by Arf value.

    Enumerates all 2**(2g) refinements and checks the counts against
    ``spin_closed_form``.
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    form = hyperbolic_form(g)
    counts = {0: 0, 1: 0}
    for q in enumerate_refinements(form):
        counts[arf_symplectic(q)] += 1
    expected = spin_closed_form(g)
    if counts != expected:
        raise InvariantViolation(f"enumerated census {counts} disagrees with closed form {expected}")
    return counts
