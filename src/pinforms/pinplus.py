"""Mod-2 valued quadratic functions on mod-4 homology.

Mod-4 homology of a nonorientable genus-k surface is presented by one
generator per projective-plane summand and the single 2-torsion relation
2 (x1 + ... + xk) = 0; orientable surfaces have no relation.  A candidate
function given by generator values is a structure precisely when it
descends through the relations, which forces even nonorientable genus:
the relation always evaluates to k mod 2.

Every relation is 2-torsion, r = 2w, so q(r) = q(w) + q(w) + w.w = w.w
whatever the generator values: the candidates stand or fall together, and
one of them decides descent for all 2^n.  Pure Python: no numpy.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .surfaces import IntersectionForm, MAX_TABLE_DIM, Surface, check_dim, freeze_ints


@dataclass(frozen=True)
class Mod4Homology:
    """Generators and 2-torsion relations; ``form`` pairs the mod-2 reductions."""

    form: IntersectionForm
    relations: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # stored as a tuple of tuples of ints, so equal models compare and hash equal whatever sequences were given
        object.__setattr__(self, "relations", tuple(tuple(map(operator.index, rel)) for rel in self.relations))
        for rel in self.relations:
            if len(rel) != self.form.dim:
                raise ValueError("relation length must equal the generator count")
            if any(c not in (0, 2) for c in rel):
                raise ValueError("relations must be 2-torsion (coefficients 0 or 2)")

    @property
    def generator_count(self) -> int:
        return self.form.dim


def mod4_homology(surface: Surface) -> Mod4Homology:
    """The presented mod-4 homology of a standard surface."""
    if surface.kind == "orientable":
        return Mod4Homology(surface.form, ())
    return Mod4Homology(surface.form, ((2,) * surface.form.dim,))


_Z2 = frozenset((0, 1))


@dataclass(frozen=True)
class PinPlusForm:
    """Mod-2 function on mod-4 classes with q(x+y) = q(x) + q(y) + x.y.

    The pairing of mod-4 classes is the mod-2 intersection of their mod-2
    reductions, so q(2v) = v.v and q(3v) = q(v) + v.v.
    """

    model: Mod4Homology
    values: tuple[int, ...]

    def __post_init__(self):
        freeze_ints(self, "values")
        if len(self.values) != self.model.form.dim:
            raise ValueError("generator value count must equal the generator count")
        if not _Z2.issuperset(self.values):
            raise ValueError("values live in Z/2")

    def __call__(self, coeffs: Sequence[int]) -> int:
        """Evaluate on a mod-4 coefficient vector by repeated generator addition."""
        n = self.model.generator_count
        if len(coeffs) != n:
            raise ValueError("coefficient count must equal the generator count")
        rows = self.model.form.rows
        total = 0
        acc_bits = 0  # mod-2 reduction of the partial sum
        for i, c in enumerate(coeffs):
            if not 0 <= c <= 3:
                raise ValueError("coefficients live in Z/4")
            gen_bit = 1 << i
            for _ in range(c):
                # the pairing is symmetric, so the partial sum pairs with e_i as the parity of rows[i] & acc_bits
                total ^= self.values[i] ^ ((rows[i] & acc_bits).bit_count() & 1)
                acc_bits ^= gen_bit
        return total


class WellDefined(NamedTuple):
    ok: bool
    relation: tuple[int, ...] | None = None


def is_well_defined(q: PinPlusForm) -> WellDefined:
    """Whether q descends from the free mod-4 module to the presented homology.

    A relation r reduces to 0 mod 2, so x.r = 0 and q(x + r) = q(x) + q(r)
    for every x: q descends exactly when q(r) = 0 on every relation.  The
    first failing relation is returned as a witness.
    """
    for rel in q.model.relations:
        if q(rel) != 0:
            return WellDefined(False, relation=rel)
    return WellDefined(True)


def enumerate_pinplus(surface: Surface) -> list[PinPlusForm]:
    """All well-defined structures, in code order; empty in odd nonorientable genus.

    Candidate ``code`` has values[i] = bit i of the code.  A relation r = 2w
    evaluates to q(2w) = q(w) + q(w) + w.w = w.w under every candidate, so
    descent does not depend on the code: the code-0 candidate is checked
    exactly, and either all 2^n candidates descend or none does.
    """
    model = mod4_homology(surface)
    n = model.generator_count
    check_dim(n, MAX_TABLE_DIM, "structure enumeration")
    if not is_well_defined(PinPlusForm(model, (0,) * n)).ok:
        return []
    # product counts with its last entry fastest, so reversed it is bit i of the code at index i
    return [PinPlusForm(model, bits[::-1]) for bits in itertools.product((0, 1), repeat=n)]
