"""Isometries of the intersection pairing and orbit partitions of structures.

A structure is pushed forward through the inverse matrix: the stored basis
values of the image are the evaluations of the original on the preimages
of the basis vectors.  On integer structure codes that push-forward is
affine, so orbits are closed over codes under a generator set, and full
groups never need to be materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import gf2
from .surfaces import (
    H1Class,
    IntersectionForm,
    InvariantViolation,
    LimitError,
    as_bits,
    identity_form,
)

MAX_BRUTE_DIM = 4
MAX_GENERATED_DIM = 10
# Safety stop for group closure; beyond this the group is not materialized.
DEFAULT_GROUP_CAP = 1 << 20


@dataclass(frozen=True)
class Isometry:
    """Linear map preserving the pairing, stored as row masks."""

    form: IntersectionForm
    rows: tuple[int, ...]

    def __post_init__(self):
        n = self.form.dim
        if len(self.rows) != n:
            raise ValueError("row count must equal the pairing dimension")
        if any(not 0 <= r < (1 << n) for r in self.rows):
            raise ValueError("row mask out of range")
        at = gf2.transpose(self.rows, n)
        if gf2.mat_mul(gf2.mat_mul(at, self.form.rows), self.rows) != self.form.rows:
            raise ValueError("matrix does not preserve the pairing")

    @cached_property
    def inverse(self) -> "Isometry":
        inv = gf2.inverse(self.rows, self.form.dim)
        if inv is None:
            # preserving a nondegenerate pairing forces invertibility
            raise InvariantViolation("isometry without an inverse")
        return Isometry(self.form, inv)

    @cached_property
    def inverse_columns(self) -> tuple[int, ...]:
        """Column masks of the inverse: entry i is the preimage of basis vector i."""
        return gf2.transpose(self.inverse.rows, self.form.dim)

    def apply_bits(self, xbits: int) -> int:
        return gf2.mat_vec(self.rows, xbits)

    def __call__(self, x: H1Class | int) -> H1Class:
        bits = as_bits(x, self.form.dim)
        return H1Class(self.form.dim, self.apply_bits(bits))

    def __matmul__(self, other: "Isometry") -> "Isometry":
        if other.form != self.form:
            raise ValueError("cannot compose isometries of different pairings")
        return Isometry(self.form, gf2.mat_mul(self.rows, other.rows))


def act(iso: Isometry, structure):
    """Push a refinement or enhancement forward along an isometry."""
    if structure.form != iso.form:
        raise ValueError("structure and isometry live on different pairings")
    vals = tuple(structure(c) for c in iso.inverse_columns)
    return type(structure)(iso.form, vals)


def transvection(form: IntersectionForm, v: H1Class | int) -> Isometry:
    """The map x -> x + (x.v) v; an isometry exactly when v is nonzero with v.v = 0."""
    vbits = as_bits(v, form.dim)
    if vbits == 0:
        raise ValueError("transvection direction must be nonzero")
    if form.pairing_bits(vbits, vbits):
        raise ValueError("a direction of odd self-pairing is killed by its own transvection")
    mv = gf2.mat_vec(form.rows, vbits)
    rows = tuple(
        (1 << i) ^ (mv if (vbits >> i) & 1 else 0) for i in range(form.dim)
    )
    return Isometry(form, rows)


_BANDING_BLOCK = (0b1101, 0b1011, 0b0111, 0b1110)


def banding_isometry(k: int) -> Isometry:
    """Isometry of the rank-k identity pairing sending the first core class to the sum of the first three.

    The leading 4-by-4 block has columns x1+x2+x3, x2+x3+x4, x1+x3+x4 and
    x1+x2+x4; the remaining summands are fixed.
    """
    if k < 4:
        raise ValueError("banding needs nonorientable genus at least 4")
    rows = _BANDING_BLOCK + tuple(1 << i for i in range(4, k))
    return Isometry(identity_form(k), rows)


def isometry_generators(form: IntersectionForm) -> tuple[Isometry, ...]:
    """Norm-zero transvections plus the basis transpositions that preserve the pairing."""
    n = form.dim
    gens: dict[tuple[int, ...], Isometry] = {}
    for v in range(1, 1 << n):
        if form.pairing_bits(v, v) == 0:
            iso = transvection(form, v)
            gens.setdefault(iso.rows, iso)
    ident = gf2.identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            rows = list(ident)
            rows[i], rows[j] = rows[j], rows[i]
            try:
                iso = Isometry(form, tuple(rows))
            except ValueError:
                continue
            gens.setdefault(iso.rows, iso)
    return tuple(gens[key] for key in sorted(gens))


def mulclose(generators, max_size: int = DEFAULT_GROUP_CAP) -> set[Isometry]:
    """Multiplicative closure of a generator set, breadth-first."""
    gens = sorted(set(generators), key=lambda iso: iso.rows)
    if not gens:
        return set()
    form = gens[0].form
    els: set[Isometry] = {Isometry(form, gf2.identity(form.dim)), *gens}
    frontier = sorted(els, key=lambda iso: iso.rows)
    while frontier:
        new = []
        for a in gens:
            for b in frontier:
                c = a @ b
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if len(els) > max_size:
                        raise LimitError(f"group closure exceeded {max_size} elements")
        frontier = sorted(new, key=lambda iso: iso.rows)
    return els


@lru_cache(maxsize=8)
def _brute_group(form: IntersectionForm) -> frozenset[Isometry]:
    n = form.dim
    if n == 0:
        return frozenset({Isometry(form, ())})
    total = 1 << (n * n)
    idx = np.arange(total, dtype=np.uint32)
    mats = ((idx[:, None] >> np.arange(n * n, dtype=np.uint32)) & 1).astype(np.uint8)
    mats = mats.reshape(total, n, n)
    m = form.matrix
    prod = (np.matmul(np.matmul(mats.transpose(0, 2, 1), m), mats)) % 2
    keep = np.nonzero((prod == m).all(axis=(1, 2)))[0]
    mask = (1 << n) - 1
    group = []
    for code in keep.tolist():
        rows = tuple((code >> (i * n)) & mask for i in range(n))
        group.append(Isometry(form, rows))
    return frozenset(group)


def isometry_group(
    form: IntersectionForm, method: str = "brute", max_size: int = DEFAULT_GROUP_CAP
) -> frozenset[Isometry]:
    """The full pairing-preserving group, by exhaustive filter or generator closure."""
    if method == "brute":
        if form.dim > MAX_BRUTE_DIM:
            raise LimitError(f"brute-force groups capped at dimension {MAX_BRUTE_DIM}, got {form.dim}")
        return _brute_group(form)
    if method == "generated":
        if form.dim > MAX_GENERATED_DIM:
            raise LimitError(
                f"generated groups capped at dimension {MAX_GENERATED_DIM}, got {form.dim}"
            )
        closure = mulclose(isometry_generators(form), max_size=max_size)
        closure.add(Isometry(form, gf2.identity(form.dim)))
        return frozenset(closure)
    raise ValueError(f"unknown method {method!r}")


def orbit_partition(form: IntersectionForm, structures, generators=None):
    """Partition structures into orbits under a generator set, closing over integer codes.

    A generator maps code c to Tc xor t, so ``act`` on code 0 and on the n
    basis codes fills its image table by doubling: codes 2**i to 2**(i+1) - 1
    are the codes below them xor the column T e_i.  Orbits grow over codes a
    frontier at a time; each member becomes a structure once.  Orbits are
    sorted by basis values, the partition by smallest members.  With the
    default generators they are full isometry-group orbits whenever the
    generators generate that group.
    """
    structures = list(structures)
    if not structures:
        return ()
    kind = type(structures[0])
    if any(s.form != form or type(s) is not kind for s in structures):
        raise ValueError("structures must be of one kind and live on the given pairing")
    if generators is None:
        generators = isometry_generators(form)
    n = form.dim
    basis = [kind.from_code(form, 0)] + [kind.from_code(form, 1 << i) for i in range(n)]
    affine = np.array([[act(g, b).code for b in basis] for g in generators], dtype=np.uint32)
    affine = affine.reshape(-1, n + 1)
    images = np.empty((len(affine), 1 << n), dtype=np.uint32)
    images[:, 0] = affine[:, 0]
    for i in range(n):
        images[:, 1 << i : 2 << i] = images[:, : 1 << i] ^ (affine[:, i + 1 : i + 2] ^ affine[:, :1])
    seen = np.zeros(1 << n, dtype=bool)
    orbits = []
    for s in structures:
        code = s.code
        if seen[code]:
            continue
        seen[code] = True
        frontier = np.array([code], dtype=np.uint32)
        codes = [frontier]
        while frontier.size:
            reached = np.unique(images[:, frontier])
            frontier = reached[~seen[reached]]
            seen[frontier] = True
            codes.append(frontier)
        members = (kind.from_code(form, c) for c in np.concatenate(codes).tolist())
        orbits.append(tuple(sorted(members, key=lambda t: t.values)))
    return tuple(sorted(orbits, key=lambda orb: orb[0].values))


def level_sets(structures, invariant) -> set[frozenset]:
    """The structures grouped by invariant value, as a set of frozensets."""
    groups: dict[int, set] = {}
    for s in structures:
        groups.setdefault(invariant(s), set()).add(s)
    return {frozenset(v) for v in groups.values()}
