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
are the orbits.  Generator rows are checked once, where they enter
``code_map``.  No group is materialized except the brute-force and
generated ones kept for checks at small dimension, and those are sorted
(G, n) uint32 arrays of row masks (``group_rows``): the brute-force group
is read off a grid over all 2**(n*n) candidates that one table of pairings
x.F^-1.y filters, and the generated one is checked by one batch
A^T F A = F test; ``Isometry`` objects are built from them only for the
callers of ``isometry_group`` and ``mulclose``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod

import numpy as np

from . import gf2
from .surfaces import (
    IntersectionForm,
    InvariantViolation,
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
# Group closure keys each matrix by its n*n entries in a uint32 and marks
# them in a dense mask over all 2**(n*n) keys, so it stops here.
MAX_CLOSURE_DIM = 5
# Orbit pulls expand the image rows of a chunk of generators at once, the
# chunk's (chunk, 2**n) uint32 block within this many bytes.
_IMAGE_BYTES = 1 << 20


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
        """Column masks of the inverse: entry i is the preimage of basis vector i.

        Found by elimination (``gf2.inverse``) for ``act``, the oracle;
        ``code_map`` takes the adjoint F^-1 A^T F of a whole batch instead.
        """
        n = self.form.dim
        inv = gf2.inverse(self.rows, n)
        # preserving a nondegenerate pairing forces invertibility
        if inv is None or gf2.mat_mul(self.rows, inv) != gf2.identity(n):
            raise InvariantViolation("isometry inverse fails rows . inverse = identity")
        return gf2.transpose(inv, n)

    def __call__(self, x: int) -> int:
        """The image of a class, both as bit masks."""
        return gf2.mat_vec(self.rows, as_bits(x, self.form.dim))

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


def transvection(form: IntersectionForm, v: int) -> Isometry:
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


def _pack(rows: np.ndarray, n: int) -> np.ndarray:
    """Packed uint32 keys of (..., n) row masks: row i at bits [i n, (i+1) n); key order sorts a group."""
    return np.bitwise_or.reduce(rows << (n * np.arange(n, dtype=np.uint32)), axis=-1)


def _unpack(keys: np.ndarray, n: int) -> np.ndarray:
    """The (..., n) uint32 row masks of uint32 packed keys, inverting ``_pack``; a view of rows-first memory, as the batch kernels keep it."""
    shifts = n * np.arange(n, dtype=np.uint32).reshape((n,) + (1,) * keys.ndim)
    rows = (keys >> shifts) & np.uint32((1 << n) - 1)
    return rows.transpose(*range(1, rows.ndim), 0)


def _preserves_pairing(form: IntersectionForm, rows: np.ndarray) -> np.ndarray:
    """Whether A^T F A = F, for each matrix A of a batch of (..., n) unsigned row masks."""
    pairing = np.array(form.rows, dtype=rows.dtype)
    product = gf2.batch_mul(gf2.batch_transpose(rows, form.dim), gf2.batch_mul(pairing, rows))
    return (product == pairing).all(axis=-1)


def _generator_rows(form: IntersectionForm, generators):
    """Isometries as a (G, n) uint32 row array; rows (an array, or a sequence not led by an ``Isometry``) as given, for ``code_map`` to check."""
    gens = generators if isinstance(generators, np.ndarray) else list(generators)
    if isinstance(gens, np.ndarray) or (gens and not isinstance(gens[0], Isometry)):
        return gens
    if any(g.form != form for g in gens):
        raise ValueError("generator and pairing differ")
    return np.array([g.rows for g in gens], dtype=np.uint32).reshape(len(gens), form.dim)


def _mark_new(keys: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """The distinct keys not yet marked in ``seen``, sorted; they are marked on the way out."""
    keys = np.sort(keys[~seen[keys]])
    distinct = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    keys = keys[distinct]
    seen[keys] = True
    return keys


def _closure(form: IntersectionForm, generators: np.ndarray) -> np.ndarray:
    """The group of (G, n) rows that the (k, n) generator rows and the identity generate, sorted by packed key.

    Breadth-first on packed keys: each round multiplies every generator
    into the frontier in one ``gf2.batch_mul`` and keeps the products not
    yet marked in a dense mask over all 2**(n*n) keys.  The whole closure
    is then checked in one batch (``_preserves_pairing``); the generators are
    isometries, so a product outside the group raises ``InvariantViolation``.
    """
    n = form.dim
    check_dim(n, MAX_CLOSURE_DIM, "group closure")
    seen = np.zeros(1 << (n * n), dtype=bool)
    identity = _pack(np.array(gf2.identity(n), dtype=np.uint32), n)
    frontier = _mark_new(np.append(_pack(generators, n), identity), seen)
    found = [frontier]
    while frontier.size:
        frontier = _mark_new(_pack(gf2.batch_mul(generators[:, None], _unpack(frontier, n)), n).ravel(), seen)
        found.append(frontier)
    group = _unpack(np.sort(np.concatenate(found)), n)
    if not _preserves_pairing(form, group).all():
        raise InvariantViolation("group closure left the isometry group")
    return group


def mulclose(generators) -> set[Isometry]:
    """Multiplicative closure of a set of isometries, as ``Isometry`` objects.

    The closure runs on row arrays (``_closure``).  The generators come back
    as given, and an ``Isometry`` is built only for each other element, at
    this boundary; no generators give the empty set.
    """
    gens = list(dict.fromkeys(generators))
    if not gens:
        return set()
    form = gens[0].form
    if any(g.form != form for g in gens):
        raise ValueError("cannot compose isometries of different pairings")
    known = {g.rows: g for g in gens}
    rows = _closure(form, _generator_rows(form, gens))
    return {known[r] if r in known else Isometry(form, r) for r in map(tuple, rows.tolist())}


@lru_cache(maxsize=8)
def _brute_group(form: IntersectionForm) -> np.ndarray:
    """Every matrix A with A^T F A = F, filtered out of all 2**(n*n) on one grid, as a read-only (G, n) uint32 array.

    A^T F A = F holds exactly when A F^-1 A^T = F^-1, whose entry (i, j) is
    r_i.F^-1.r_j for rows r_i of A.  So one (2**n, 2**n) table holds x.F^-1.y
    for every pair of row masks, and a boolean grid with one axis per row,
    row n - 1 first, grows an axis at a time: each entry of F^-1 on or above
    the diagonal (it is symmetric) ands the table's fits into it, broadcast
    over the other axes.  Grid position c is the matrix with packed key c
    (``_unpack``), so the survivors come out sorted by key.  The filter is
    the validation; the array is cached, and read-only so that no caller can
    change it for the next.
    """
    n = form.dim
    inverse = gf2.inverse(form.rows, n)
    if inverse is None or gf2.mat_mul(form.rows, inverse) != gf2.identity(n):
        raise InvariantViolation("pairing inverse fails F . F^-1 = identity")
    codes = np.arange(1 << n, dtype=np.uint32)
    # F^-1 is symmetric, so its rows are its columns and an image row maps y to F^-1 y
    pairs = np.bitwise_count(codes[:, None] & _image_row(inverse, 0)) & 1
    selves = pairs[codes, codes]
    grid = np.ones((), dtype=bool)
    for axis in range(n):
        i = n - 1 - axis
        grid = grid[..., None] & (selves == inverse[i] >> i & 1)
        for j in range(i + 1, n):
            # row j is axis n - 1 - j, already placed
            shape = [1] * (axis + 1)
            shape[n - 1 - j] = shape[axis] = 1 << n
            grid &= (pairs == inverse[i] >> j & 1).reshape(shape)
    group = _unpack(np.flatnonzero(grid).astype(np.uint32), n)
    group.setflags(write=False)
    return group


def group_rows(form: IntersectionForm, method: str = "brute") -> np.ndarray:
    """The full pairing-preserving group as a (G, n) uint32 array of row masks, by exhaustive filter or generator closure.

    Elements are sorted by packed key (row i at bits [i n, (i+1) n)), so
    both methods give equal arrays exactly when they give one group.  The
    brute-force array is filtered out of all 2**(n*n) candidates on one
    pair-table grid (``_brute_group``), and it is cached and read-only; the
    generated one is closed from the twist generators and checked by one
    batch A^T F A = F test.
    """
    if method == "brute":
        check_dim(form.dim, MAX_BRUTE_DIM, "brute-force groups")
        return _brute_group(form)
    if method == "generated":
        check_dim(form.dim, MAX_BRUTE_DIM, "generated groups")
        return _closure(form, _generator_rows(form, isometry_generators(form)))
    raise ValueError(f"unknown method {method!r}")


def isometry_group(form: IntersectionForm, method: str = "brute") -> frozenset[Isometry]:
    """The full pairing-preserving group as ``Isometry`` objects: ``group_rows``, built for the caller."""
    return frozenset(Isometry(form, rows) for rows in group_rows(form, method).tolist())


def _image_row(columns, shifts) -> np.ndarray:
    """Image of every code under c -> Tc xor t, for one map ((n,) columns, one shift) or a batch ((G, n), (G,)).

    Built by doubling: codes 2**j to 2**(j+1) - 1 are the codes below them
    xor column j.  A batch gives one (G, 2**n) row per map.
    """
    columns = np.asarray(columns, dtype=np.uint32)
    shifts = np.asarray(shifts, dtype=np.uint32)
    n = columns.shape[-1]
    row = np.empty(shifts.shape + (1 << n,), dtype=np.uint32)
    row[..., 0] = shifts
    for j in range(n):
        np.bitwise_xor(row[..., : 1 << j], columns[..., j, None], out=row[..., 1 << j : 2 << j])
    return row


def orbit_labels(form: IntersectionForm, kind, generators=None) -> np.ndarray:
    """The smallest code in each code's orbit, for every code of structures of class ``kind``.

    ``generators`` are isometries, or any (G, n) array-like of row masks; the
    default is ``isometry_generators(form)``.  ``kind.code_map`` checks the
    rows, once, and gives all their affine maps on codes in one batch, and
    each pass expands them to image rows a chunk at a time, the chunk's
    (chunk, 2**n) block within ``_IMAGE_BYTES`` (one generator at a time
    from dimension 18).  Each code pulls the smallest label among its images
    in the chunk (labels = minimum(labels, labels[images].min(axis=0))),
    each pass is followed by pointer jumping (labels = labels[labels]), and
    passes repeat until nothing changes.  At the fixpoint no label falls from
    a code to its image, so labels are constant on every cycle of a
    generator: the pull along g alone closes the orbits, involution or not.
    """
    n = form.dim
    check_dim(n, MAX_TABLE_DIM, "orbit labels")
    generators = isometry_generators(form) if generators is None else generators
    columns, shifts = kind.code_map(form, _generator_rows(form, generators))
    chunk = max(1, _IMAGE_BYTES // (4 << n))
    labels = np.arange(1 << n, dtype=np.uint32)
    while True:
        before = labels.copy()
        for lo in range(0, len(columns), chunk):
            pulled = labels[_image_row(columns[lo : lo + chunk], shifts[lo : lo + chunk])]
            # a chunk of one needs no reduction, which would copy all 2**n labels
            np.minimum(labels, pulled[0] if len(pulled) == 1 else pulled.min(axis=0), out=labels)
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
