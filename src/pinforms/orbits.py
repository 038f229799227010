"""Isometries of the intersection pairing and orbit partitions of structures.

A structure is pushed forward through the inverse matrix: the stored basis
values of the image are the evaluations of the original on the preimages
of the basis vectors.  On integer codes that is an affine map c -> Tc xor t,
which the structure class builds (``QuadraticStructure.code_map``), so
``act`` is needed only as a test oracle.  The group is given by a few
Dehn-twist transvections (``isometry_generators``), its order in closed
form (``isometry_group_order``), and ``orbit_labels`` closes orbits over
all 2**n codes by pulling labels from images, blind to the code convention;
``level_set_fit`` reads off those labels whether an invariant's level sets
are the orbits.  No group is materialized except the brute-force and
generated ones kept for checks at small dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod

import numpy as np

from . import gf2
from .surfaces import (
    H1Class,
    IntersectionForm,
    InvariantViolation,
    LimitError,
    MAX_TABLE_DIM,
    as_bits,
    check_dim,
    freeze_ints,
    identity_form,
    is_alternating,
    standard_basis,
)

# Brute-force and generated groups are materialized up to this dimension.
MAX_BRUTE_DIM = 4
# Safety stop for group closure; beyond this the group is not materialized.
DEFAULT_GROUP_CAP = 1 << 20


@dataclass(frozen=True)
class Isometry:
    """Linear map preserving the pairing, stored as row masks."""

    form: IntersectionForm
    rows: tuple[int, ...]

    def __post_init__(self):
        freeze_ints(self, "rows")
        n = self.form.dim
        if len(self.rows) != n:
            raise ValueError("row count must equal the pairing dimension")
        if any(not 0 <= r < (1 << n) for r in self.rows):
            raise ValueError("row mask out of range")
        at = gf2.transpose(self.rows, n)
        if gf2.mat_mul(gf2.mat_mul(at, self.form.rows), self.rows) != self.form.rows:
            raise ValueError("matrix does not preserve the pairing")

    @cached_property
    def inverse_columns(self) -> tuple[int, ...]:
        """Column masks of the inverse: entry i is the preimage of basis vector i."""
        n = self.form.dim
        inv = gf2.inverse(self.rows, n)
        # preserving a nondegenerate pairing forces invertibility
        if inv is None or gf2.mat_mul(self.rows, inv) != gf2.identity(n):
            raise InvariantViolation("isometry inverse fails rows . inverse = identity")
        return gf2.transpose(inv, n)

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
    """Transvections of Dehn twists that generate the isometry group of the pairing.

    The isometry group of the mod-2 pairing is the image of the mapping
    class group on H1(F; Z/2) (McCarthy-Pinkall, "Representing homology
    automorphisms of nonorientable surfaces", 2004; Gadgil-Pancholi,
    "Homeomorphisms and the homology of non-orientable surfaces", 2005), and a
    Dehn twist about a two-sided curve acts as the transvection along its
    class.  In the basis of ``standard_basis`` the curves are those of the
    Lickorish and Humphries generating sets:

    - identity layout v1, ..., vk: v_i + v_(i+1), plus v1 + v2 + v3 + v4 when
      k >= 4, so k - 1 generators below genus 4 and k from there on;
    - hyperbolic layout a1, b1, ..., ag, bg: a_i, b_i and a_i + a_(i+1),
      so 3g - 1 generators.

    At dimension <= 5 their closure is the whole group (checked against the
    brute-force group and ``isometry_group_order``).
    """
    layout, basis = standard_basis(form)
    if layout == "identity":
        directions = [v ^ w for v, w in zip(basis, basis[1:])]
        if len(basis) >= 4:
            directions.append(basis[0] ^ basis[1] ^ basis[2] ^ basis[3])
    else:
        a, b = basis[0::2], basis[1::2]
        directions = [*a, *b, *(v ^ w for v, w in zip(a, a[1:]))]
    return tuple(transvection(form, v) for v in directions)


def _sp_order(g: int) -> int:
    """|Sp(2g, 2)| = 2**(g*g) times the product of 2**(2i) - 1 for i = 1..g."""
    return (1 << (g * g)) * prod((1 << (2 * i)) - 1 for i in range(1, g + 1))


def isometry_group_order(form: IntersectionForm) -> int:
    """Order of the isometry group of the pairing, in closed form.

    An alternating pairing of rank 2g has the symplectic group Sp(2g, 2).  A
    non-alternating one is the identity pairing of rank k, whose orthogonal
    group is Sp(k - 1, 2) for odd k and 2**(k-1) |Sp(k - 2, 2)| for even k
    (MacWilliams, "Orthogonal matrices over finite fields", 1969).
    """
    k = form.dim
    if is_alternating(form):
        return _sp_order(k // 2)
    if k % 2:
        return _sp_order((k - 1) // 2)
    return (1 << (k - 1)) * _sp_order((k - 2) // 2)


def mulclose(generators) -> set[Isometry]:
    """Multiplicative closure of a generator set, breadth-first.

    Products are taken on row tuples (``gf2.mat_mul``) and looked up among
    the row tuples found so far; an ``Isometry``, validated on construction,
    is built only for a new element, so each element is checked once.  A
    closure past ``DEFAULT_GROUP_CAP`` elements raises ``LimitError``.
    """
    gens = sorted(set(generators), key=lambda iso: iso.rows)
    if not gens:
        return set()
    form = gens[0].form
    if any(g.form != form for g in gens):
        raise ValueError("cannot compose isometries of different pairings")
    els = {g.rows: g for g in gens}
    identity = gf2.identity(form.dim)
    if identity not in els:
        els[identity] = Isometry(form, identity)
    frontier = sorted(els)
    while frontier:
        new = []
        for a in gens:
            for b in frontier:
                c = gf2.mat_mul(a.rows, b)
                if c not in els:
                    els[c] = Isometry(form, c)
                    new.append(c)
                    if len(els) > DEFAULT_GROUP_CAP:
                        raise LimitError(f"group closure exceeded {DEFAULT_GROUP_CAP} elements")
        frontier = sorted(new)
    return set(els.values())


@lru_cache(maxsize=8)
def _brute_group(form: IntersectionForm) -> frozenset[Isometry]:
    """Every matrix A with A^T F A = F, filtered out of all 2**(n*n) as word logic on row masks.

    Matrix number c has row i = bits [i n, (i+1) n) of c, and each row is
    one uint32 array over all c.  Row k of FA is the xor of the rows of A
    picked by F's row k; row i of A^T (FA) is the xor of the rows k of FA
    where bit i of A's row k is set.  Each survivor is a validated ``Isometry``.
    """
    n = form.dim
    if n == 0:
        return frozenset({Isometry(form, ())})
    codes = np.arange(1 << (n * n), dtype=np.uint32)
    mask = (1 << n) - 1
    rows = [(codes >> (i * n)) & mask for i in range(n)]
    fa = [np.bitwise_xor.reduce([rows[j] for j in range(n) if f >> j & 1]) for f in form.rows]
    keep = np.ones(codes.size, dtype=bool)
    for i, f in enumerate(form.rows):
        product = np.zeros_like(codes)
        for row, fa_row in zip(rows, fa):
            product ^= fa_row * ((row >> i) & 1)
        keep &= product == f
    return frozenset(
        Isometry(form, tuple((code >> (i * n)) & mask for i in range(n)))
        for code in codes[keep].tolist()
    )


def isometry_group(form: IntersectionForm, method: str = "brute") -> frozenset[Isometry]:
    """The full pairing-preserving group, by exhaustive filter or generator closure."""
    if method == "brute":
        check_dim(form.dim, MAX_BRUTE_DIM, "brute-force groups")
        return _brute_group(form)
    if method == "generated":
        check_dim(form.dim, MAX_BRUTE_DIM, "generated groups")
        # the closure holds the identity unless there are no generators at all
        return frozenset(mulclose(isometry_generators(form)) or {Isometry(form, gf2.identity(form.dim))})
    raise ValueError(f"unknown method {method!r}")


def _image_row(columns: tuple[int, ...], shift: int) -> np.ndarray:
    """Image of every code under c -> Tc xor t, by doubling: codes 2**j to 2**(j+1) - 1 are the codes below them xor column j."""
    row = np.empty(1 << len(columns), dtype=np.uint32)
    row[0] = shift
    for j, column in enumerate(columns):
        np.bitwise_xor(row[: 1 << j], column, out=row[1 << j : 2 << j])
    return row


def orbit_labels(form: IntersectionForm, kind, generators=None) -> np.ndarray:
    """The smallest code in each code's orbit, for every code of structures of class ``kind``.

    ``kind.code_map`` gives each generator's affine map on codes, expanded to an image
    row.  Each code pulls its image's label (labels = minimum(labels, labels[row])), each
    pass over the generators is followed by pointer jumping (labels = labels[labels]), and
    passes repeat until nothing changes.  At the fixpoint no label falls from a code to its
    image, so labels are constant on every cycle of a generator: the pull along g alone
    closes the orbits, involution or not.  The default generators are ``isometry_generators(form)``.
    """
    n = form.dim
    check_dim(n, MAX_TABLE_DIM, "orbit labels")
    if generators is None:
        generators = isometry_generators(form)
    maps = [kind.code_map(form, g) for g in generators]
    labels = np.arange(1 << n, dtype=np.uint32)
    while True:
        before = labels.copy()
        for columns, shift in maps:
            np.minimum(labels, labels[_image_row(columns, shift)], out=labels)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels, before):
            return labels


def orbit_summary(labels: np.ndarray) -> tuple[list[int], list[int]]:
    """Each orbit's smallest member by basis values and its size, orbits in the order of those members.

    Basis values compare from index 0 and bit i of a code moves basis
    value i, so the smallest member by values has the smallest bit-reversed
    code.  ``reverse`` (an ``_image_row``) is the bit reversal, an
    involution, so ``reverse[r]`` is the code whose reversal is r.
    """
    n = labels.size.bit_length() - 1
    reverse = _image_row(tuple(1 << (n - 1 - i) for i in range(n)), 0)
    _, first, sizes = np.unique(labels[reverse], return_index=True, return_counts=True)
    order = np.argsort(first)
    return reverse[first[order]].tolist(), sizes[order].tolist()


def orbit_partition(form: IntersectionForm, structures, generators=None):
    """Partition structures into orbits under a generator set, closing over integer codes.

    A thin wrapper over ``orbit_labels``: the orbits of the given structures
    are read off the labels, whole, and each member becomes a structure
    object.  Orbits are sorted by basis values, the partition by smallest
    members.  With the default generators they are full isometry-group
    orbits.
    """
    structures = list(structures)
    if not structures:
        return ()
    kind = type(structures[0])
    if any(s.form != form or type(s) is not kind for s in structures):
        raise ValueError("structures must be of one kind and live on the given pairing")
    labels = orbit_labels(form, kind, generators)
    codes = np.argsort(labels, kind="stable")
    ordered = labels[codes]
    orbits = []
    for root in sorted({int(labels[s.code]) for s in structures}):
        lo, hi = np.searchsorted(ordered, [root, root + 1])
        members = (kind.from_code(form, c) for c in codes[lo:hi].tolist())
        orbits.append(tuple(sorted(members, key=lambda t: t.values)))
    return tuple(sorted(orbits, key=lambda orb: orb[0].values))


def level_set_fit(labels: np.ndarray, invariants) -> tuple[bool, bool]:
    """(constant, exact): an invariant indexed by code on the orbits of ``orbit_labels``.

    ``constant``: it is constant on each orbit; ``exact``: it also separates
    the orbits, so they are its level sets.  Each orbit's label is its
    smallest code, so the roots (labels == arange) are one code per orbit.
    """
    invariants = np.asarray(invariants)
    constant = bool((invariants[labels] == invariants).all())
    roots = np.flatnonzero(labels == np.arange(labels.size))
    return constant, constant and len(set(invariants[roots].tolist())) == roots.size
