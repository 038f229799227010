"""Mod-2 quadratic refinements of the intersection pairing and their Arf invariant.

The Arf invariant is the majority value over all classes (``arf_majority``,
``arf_spectrum``), or a sum over a symplectic basis
(``arf_normal_form``, for one code or an array of codes on any alternating
pairing; ``arf_symplectic`` on the standard layout); the table routes and
the basis route share no code.
"""

from __future__ import annotations

import numpy as np

from .surfaces import (
    IntersectionForm,
    InvariantViolation,
    QuadraticStructure,
    hyperbolic_form,
    is_alternating,
    is_hyperbolic_form,
)

# Structure counts by invariant value.  Pin- censuses drop zero counts; spin
# censuses always carry both Arf values, 0 and 1.
Census = dict[int, int]


class Refinement(QuadraticStructure):
    """Function q with q(x+y) = q(x) + q(y) + x.y in Z/2, stored by its basis values.

    Taking x = y shows the identity forces x.x = 0 for every class, so
    refinements exist only on alternating pairings (orientable surfaces),
    and the basis values are the bits of the code.
    """

    modulus = 2

    def __post_init__(self):
        if not is_alternating(self.form):
            raise ValueError("refinements need an alternating pairing (orientable surface)")
        super().__post_init__()


def enumerate_refinements(form: IntersectionForm) -> list[Refinement]:
    """All 2**n refinements, ordered by the integer encoding of their basis values."""
    return Refinement.enumerate_all(form)


def arf_majority(q: Refinement) -> int:
    """Majority value of q over all classes."""
    vals = q.values_on_all()
    ones = int(vals.sum())
    zeros = int(vals.size) - ones
    # a nondegenerate alternating pairing always biases the counts by 2^(g-1)
    if zeros == ones:
        raise InvariantViolation("majority tie on a nondegenerate symplectic pairing")
    return 0 if zeros > ones else 1


def arf_normal_form(form: IntersectionForm, codes) -> int | np.ndarray:
    """Arf invariant of the refinement with code ``codes``: sum of q(a_i) q(b_i) over a symplectic basis.

    The codes on the basis come from ``Refinement.codes_on_standard_basis``,
    so any alternating pairing works and no class table is built: an int
    code gives an int, and an array-like of codes an (S,) int64 array.  A
    pairing that is not alternating carries no refinement and raises
    ``ValueError`` before any code is read.
    """
    if not is_alternating(form):
        raise ValueError("refinements need an alternating pairing (orientable surface)")
    return arf_of_codes(Refinement.codes_on_standard_basis(form, codes))


def arf_of_codes(codes: int | np.ndarray) -> int | np.ndarray:
    """Arf invariant of an int code or an array of codes on a symplectic basis: popcount of the planes with both bits set, mod 2."""
    if isinstance(codes, int):
        evens = (4 ** ((codes.bit_length() + 1) // 2) - 1) // 3  # bits 0, 2, 4, ... up to the top plane
        return (codes & codes >> 1 & evens).bit_count() & 1
    # array codes have at most MAX_TABLE_DIM bits, so 32 bits of evens cover every plane
    return (np.bitwise_count(codes & codes >> 1 & 0x55555555) & 1).astype(np.int64)


def arf_symplectic(q: Refinement) -> int:
    """Sum over hyperbolic blocks of q(a_i) q(b_i) on the standard orientable layout, where the standard basis is the unit basis.

    Any other pairing raises ``ValueError``; ``arf_normal_form`` reads any alternating one.
    """
    if not is_hyperbolic_form(q.form):
        raise ValueError("the block formula needs the standard hyperbolic layout")
    return arf_normal_form(q.form, q.code)


def arf_spectrum(form: IntersectionForm) -> np.ndarray:
    """Arf invariant of every refinement on the pairing, indexed by code.

    One int32 Walsh-Hadamard transform gives the sum of (-1)**q(x) for
    every code (``Refinement.folded_sums``, the whole sum because every term
    is real); each sum is +-2**g, and the sign is -1 exactly when the Arf
    invariant is 1.
    """
    sums = Refinement.folded_sums(form)
    bad = np.flatnonzero(np.abs(sums) != 1 << (form.dim // 2))
    if bad.size:
        c = int(bad[0])
        raise InvariantViolation(f"Gauss sum {int(sums[c])} is not +-2**{form.dim // 2} at code {c:#x}")
    return (sums < 0).astype(np.int64)


def spin_closed_form(g: int) -> Census:
    """Refinement counts on a genus-g surface by Arf value: 2**(g-1) (2**g + 1) and 2**(g-1) (2**g - 1)."""
    return {
        0: ((1 << (2 * g)) + (1 << g)) // 2,
        1: ((1 << (2 * g)) - (1 << g)) // 2,
    }


def spin_census(g: int) -> Census:
    """Counts of refinements on a genus-g orientable surface by Arf value.

    Counts the Arf spectrum of all 2**(2g) refinements and checks the
    counts against ``spin_closed_form``.  The sphere (g = 0) has one
    structure, of Arf 0; ``hyperbolic_form`` refuses a negative genus.
    """
    zeros, ones = np.bincount(arf_spectrum(hyperbolic_form(g)), minlength=2).tolist()
    counts = {0: zeros, 1: ones}
    expected = spin_closed_form(g)
    if counts != expected:
        raise InvariantViolation(f"enumerated census {counts} disagrees with closed form {expected}")
    return counts
