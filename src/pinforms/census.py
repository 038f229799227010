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

The theories are the ``Theory`` records of ``THEORIES``, which the commands,
``bordism_class`` and verify read instead of branching on a theory.  A new
theory is one more record: its ``QuadraticStructure`` subclass (which gives
``code_map``), enumeration, spectrum, normal form, census and comparison.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .enhancements import Enhancement, brown_normal_form, brown_spectrum, enumerate_enhancements, histogram_from_brown
from .refinements import (
    Census, Refinement, arf_normal_form, arf_spectrum, enumerate_refinements, spin_census, spin_closed_form,
)
from .surfaces import MAX_TABLE_DIM, InvariantViolation, Surface, check_dim, is_alternating

FLAG_CONFIRMED = "CONFIRMED"
FLAG_DISPUTED = "DISPUTED"
FLAG_CONJECTURED_CONFIRMED = "CONJECTURED-CONFIRMED"
FLAG_CONJECTURE_FAILED = "CONJECTURE-FAILED"


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


def _spin_comparison(surface: Surface, census: Census) -> tuple[tuple, tuple]:
    closed = spin_closed_form(surface.genus)
    rows = tuple(
        (i, census.get(i, 0), closed[i], FLAG_CONFIRMED if census.get(i, 0) == closed[i] else FLAG_DISPUTED)
        for i in sorted(closed)
    )
    return ("invariant", "enumerated", "closed_form", "flag"), rows


def _pin_comparison(surface: Surface, census: Census) -> tuple[tuple, tuple]:
    columns = ("invariant", "enumerated", "closed_form", "closed_form_flag", "recursion", "corrected", "corrected_flag")
    entries = {e.invariant: e for e in pin_census_closed_form(surface)}
    recursion = pin_census_recursive(surface.genus) if surface.kind == "nonorientable" else None
    rows = []
    for i in sorted(set(census) | set(entries) | set(recursion or ())):
        e = entries.get(i)
        closed = (e.formula_count, e.flag, e.corrected_count, e.corrected_flag) if e else (None,) * 4
        rows.append((i, census.get(i, 0), *closed[:2], recursion.get(i, 0) if recursion else None, *closed[2:]))
    return columns, tuple(rows)


def _histogram_rows(surface: Surface, beta: int) -> tuple[tuple[str, str], ...]:
    # the histogram is a function of the dimension, beta and the pairing's parity
    hist = histogram_from_brown(surface.form.dim, beta, is_alternating(surface.form))
    return (("histogram", ",".join(str(c) for c in hist)),)


@dataclass(frozen=True)
class Theory:
    """One structure theory: all that the commands, ``bordism_class`` and verify read of it."""

    name: str  # the ``-t`` choice and ``BordismClass.theory``
    structure: type  # its ``QuadraticStructure`` subclass
    invariant: str  # the invariant's name in ``orbits`` and ``invariant`` output
    orientable_only: bool
    enumerate_all: Callable  # pairing -> every structure, in code order
    spectrum: Callable  # pairing -> the invariant of every code
    normal_form: Callable  # structure -> its invariant, read on a standard basis
    census: Callable  # surface -> checked counts by invariant value
    compare: Callable  # surface, census -> the ``census --compare`` columns and rows
    invariant_rows: Callable  # surface, invariant -> the rows ``invariant`` prints after it

    @property
    def values_name(self) -> str:
        """``refinement`` or ``enhancement``: what ``invariant`` calls the given values, and their option."""
        return self.structure.__name__.lower()

    def require(self, surface: Surface, what: str) -> None:
        """Refuse a surface that has no structures of this theory; ``what`` names them in the error."""
        if self.orientable_only and surface.kind != "orientable":
            raise ValueError(f"{what} need an orientable surface")


# The theories, in ``-t`` order.  A function that the benchmark tracer or a test replaces
# by its module name is called through a lambda, which looks the name up at each call.
THEORIES = (
    Theory(
        "spin", Refinement, "arf", orientable_only=True, spectrum=arf_spectrum, normal_form=arf_normal_form,
        enumerate_all=lambda form: enumerate_refinements(form), census=lambda surface: spin_census(surface.genus),
        compare=_spin_comparison, invariant_rows=lambda surface, arf: (),
    ),
    Theory(
        "pin-", Enhancement, "beta", orientable_only=False, spectrum=brown_spectrum, normal_form=brown_normal_form,
        enumerate_all=lambda form: enumerate_enhancements(form), census=lambda surface: pin_census_enumerated(surface),
        compare=_pin_comparison, invariant_rows=_histogram_rows,
    ),
)


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
    # a Surface is orientable exactly when its pairing is alternating, so the
    # form match puts a refinement, which needs one, on an orientable surface
    if structure.form != surface.form:
        raise ValueError("structure does not live on the given surface")
    theory = next((t for t in THEORIES if isinstance(structure, t.structure)), None)
    if theory is None:
        raise ValueError(f"unsupported structure type {type(structure).__name__}")
    return BordismClass(theory.name, theory.normal_form(structure))


def cobordant(first: tuple, second: tuple) -> bool:
    """Whether two structured surfaces jointly bound: same theory, equal invariant."""
    ca = bordism_class(*first)
    cb = bordism_class(*second)
    if ca.theory != cb.theory:
        raise ValueError(f"cannot compare {ca.theory} with {cb.theory}")
    return ca.value == cb.value
