"""Structure counts by invariant value and the dimension-two bordism classification.

Counts come three ways: exhaustive enumeration (the reference), closed-form
expressions evaluated verbatim, and a genus recursion adding one projective
(or hyperbolic) plane at a time.  Enumeration covers all 2**n enhancements
without building them: their Gauss sums are one Walsh-Hadamard transform of
code 0's terms, so the Brown invariants of all codes cost O(n 2**n) together.

The closed-form entry at invariant 0 in even nonorientable genus disagrees
with enumeration (1 vs 2 at genus 2, 8 vs 6 at genus 4); such entries are
flagged DISPUTED and reported next to the corrected expression
2**(k-2) + 2**((k-2)/2).

A bordism class is one structure's invariant, read off its values on a
standard basis of the pairing (``brown_normal_form``, ``arf_normal_form``).
Each pairing's basis and, per basis vector, its set-bit indices and cross
term are cached (``standard_basis_terms``), so a query only adds up basis
values, with no class table, up to dimension ``MAX_NORMAL_FORM_DIM``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .enhancements import Enhancement, brown_normal_form, brown_spectrum
from .refinements import Census, Refinement, arf_normal_form, spin_closed_form
from .surfaces import MAX_TABLE_DIM, InvariantViolation, Surface, check_dim

FLAG_CONFIRMED = "CONFIRMED"
FLAG_DISPUTED = "DISPUTED"
FLAG_CONJECTURED_CONFIRMED = "CONJECTURED-CONFIRMED"
FLAG_CONJECTURE_FAILED = "CONJECTURE-FAILED"

THEORY_SPIN = "spin"
THEORY_PIN_MINUS = "pin-"
THEORIES = (THEORY_SPIN, THEORY_PIN_MINUS)


@lru_cache(maxsize=64)
def _enumerated_items(surface: Surface) -> tuple[tuple[int, int], ...]:
    counts = np.bincount(brown_spectrum(surface.form), minlength=8)
    return tuple((value, int(count)) for value, count in enumerate(counts) if count)


def pin_census_enumerated(surface: Surface) -> Census:
    """Counts of all 2**n enhancements by Brown invariant.

    The invariants come from one Walsh-Hadamard transform of the Gauss-sum
    terms of code 0 (``brown_spectrum``), in O(n 2**n).
    """
    check_dim(surface.form.dim, MAX_TABLE_DIM, "census enumeration")
    return dict(_enumerated_items(surface))


def _block_sum_census(summand: Census, copies: int) -> Census:
    """Counts on the block sum of ``copies`` equal summands: invariants add, so counts convolve over Z/8."""
    counts = {0: 1}
    for _ in range(copies):
        grown: Census = {}
        for i, c in counts.items():
            for j, d in summand.items():
                grown[(i + j) % 8] = grown.get((i + j) % 8, 0) + c * d
        counts = grown
    return dict(sorted(counts.items()))


def pin_census_recursive(k: int) -> Census:
    """Counts for nonorientable genus k grown one projective plane at a time.

    A projective plane carries one enhancement of invariant 1 and one of
    invariant 7, so the count at i in genus k is the sum of the counts at
    i-1 and i+1 in genus k-1.
    """
    if k < 1:
        raise ValueError("nonorientable genus must be at least 1")
    return _block_sum_census({1: 1, 7: 1}, k)


@dataclass(frozen=True)
class ClosedFormEntry:
    """One closed-form count next to its reference count and status flag."""

    invariant: int
    formula_count: int
    reference_count: int
    flag: str
    corrected_count: int | None = None
    corrected_flag: str | None = None


def _closed_form_counts(surface: Surface) -> dict[int, Fraction | int]:
    if surface.kind == "orientable":
        # an enhancement from a refinement has Brown invariant 4 * Arf
        return {4 * arf: count for arf, count in spin_closed_form(surface.genus).items()}
    two = Fraction(2)
    k = surface.genus
    if k % 2:
        plus = two ** (k - 2) + two ** ((k - 3) // 2)
        minus = two ** (k - 2) - two ** ((k - 3) // 2)
        return {1: plus, 3: minus, 5: minus, 7: plus}
    return {
        0: two ** ((3 * k - 6) // 2),
        2: two ** (k - 2),
        4: two ** (k - 2) - two ** ((k - 2) // 2),
        6: two ** (k - 2),
    }


def reference_census(surface: Surface) -> Census:
    """Arbiter counts: enumeration when tractable, otherwise the recursion by
    summands, projective planes (nonorientable) or hyperbolic planes
    (orientable, three enhancements of invariant 0 and one of invariant 4)."""
    if surface.form.dim <= MAX_TABLE_DIM:
        return pin_census_enumerated(surface)
    if surface.kind == "nonorientable":
        return pin_census_recursive(surface.genus)
    return _block_sum_census({0: 3, 4: 1}, surface.genus)


def pin_census_closed_form(surface: Surface) -> tuple[ClosedFormEntry, ...]:
    """Closed-form counts evaluated verbatim, flagged against the reference census.

    Entries matching the reference are CONFIRMED; mismatches are DISPUTED.
    The even-nonorientable-genus entry at invariant 0 additionally carries
    the corrected count, flagged CONJECTURED-CONFIRMED while it keeps
    matching the reference.
    """
    raw = _closed_form_counts(surface)
    ref = reference_census(surface)
    entries = []
    for invariant in sorted(raw):
        formula = raw[invariant]
        if formula.denominator != 1:
            raise InvariantViolation(f"closed form produced a non-integer count {formula}")
        formula_count = int(formula)
        expected = ref.get(invariant, 0)
        flag = FLAG_CONFIRMED if formula_count == expected else FLAG_DISPUTED
        corrected_count = corrected_flag = None
        if surface.kind == "nonorientable" and surface.genus % 2 == 0 and invariant == 0:
            k = surface.genus
            corrected_count = 2 ** (k - 2) + 2 ** ((k - 2) // 2)
            corrected_flag = (
                FLAG_CONJECTURED_CONFIRMED
                if corrected_count == expected
                else FLAG_CONJECTURE_FAILED
            )
        entries.append(
            ClosedFormEntry(invariant, formula_count, expected, flag, corrected_count, corrected_flag)
        )
    return tuple(entries)


@dataclass(frozen=True)
class BordismClass:
    """Where a structured surface sits in its bordism group."""

    theory: str
    value: int


def bordism_class(surface: Surface, structure) -> BordismClass:
    """Arf class of a refinement (spin) or Brown class of an enhancement (pin-).

    Both come from the normal form: the structure's values on the cached
    ``standard_basis`` of the pairing (``standard_basis_values``, read from
    the cached terms of each basis vector), added up over its projective or
    hyperbolic planes.  No value table over the 2**n classes is built, so
    any dimension up to ``MAX_NORMAL_FORM_DIM`` answers; above it the
    reduction raises ``LimitError``.  The Gauss-sum routes (``brown_gauss``,
    ``arf_majority`` and the spectra) share no code with this one and are
    its oracle.
    """
    if structure.form != surface.form:
        raise ValueError("structure does not live on the given surface")
    if isinstance(structure, Refinement):
        # a refinement's pairing is alternating, so the form match already
        # rules out nonorientable surfaces
        return BordismClass(THEORY_SPIN, arf_normal_form(structure))
    if isinstance(structure, Enhancement):
        return BordismClass(THEORY_PIN_MINUS, brown_normal_form(structure))
    raise ValueError(f"unsupported structure type {type(structure).__name__}")


def cobordant(first: tuple, second: tuple) -> bool:
    """Whether two structured surfaces jointly bound: same theory, equal invariant."""
    ca = bordism_class(*first)
    cb = bordism_class(*second)
    if ca.theory != cb.theory:
        raise ValueError(f"cannot compare {ca.theory} with {cb.theory}")
    return ca.value == cb.value
