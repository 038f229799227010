"""Mod-4 quadratic enhancements of the intersection pairing and the Brown invariant.

An enhancement e satisfies e(x+y) = e(x) + e(y) + 2 (x.y) in Z/4 together
with the parity rule e(x) = x.x mod 2, so a projective-plane core class
only ever takes the values 1 or 3.  The Brown invariant is the octant of the
Gauss sum of i**e(x) over all classes, read by one checked reader from value
histograms (``brown_gauss_many``) or one Walsh-Hadamard transform of every
code (``brown_spectrum``), both counted from ``Enhancement.value_table``;
``brown_compass`` looks one histogram's sign pair up in the same octant
table.  ``brown_normal_form``, a sum over a standard basis for one code or
an array of codes, is the route that shares no code with these.  An int
code's invariant is pure Python; each table and array kernel imports numpy
in its own body.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .refinements import Refinement, arf_of_codes
from .surfaces import (
    MAX_TABLE_DIM,
    IntersectionForm,
    InvariantViolation,
    QuadraticStructure,
    _xor_permuted,
    check_dim,
    direct_sum,
    identity_form,
    is_alternating,
    is_identity_form,
)


class ValueHistogram(NamedTuple):
    """How often an enhancement takes each value in Z/4 over all classes."""

    n0: int
    n1: int
    n2: int
    n3: int

    @property
    def gauss_deltas(self) -> tuple[int, int]:
        """Real and imaginary parts (n0 - n2, n1 - n3) of the Gauss sum."""
        return self.n0 - self.n2, self.n1 - self.n3


class Enhancement(QuadraticStructure):
    """Function e with e(x+y) = e(x) + e(y) + 2 (x.y) and e(x) = x.x mod 2 in Z/4, built from its basis values."""

    modulus = 4


def enumerate_enhancements(form: IntersectionForm) -> list[Enhancement]:
    """All 2**n enhancements; bit i of the code adds 2 to basis value i."""
    return Enhancement.enumerate_all(form)


# A batch is evaluated in chunks of rows whose (rows, 2**n) uint8 value table
# fits in this many bytes, so memory stays bounded at any batch size.
_TABLE_BYTES = 1 << 20


def value_histograms(form: IntersectionForm, values) -> np.ndarray:
    """Counts (n0, n1, n2, n3) of each value over all 2**n classes, for a batch of enhancements on one pairing.

    ``values`` holds one row of basis values per enhancement, and row s of
    the result belongs to row s of ``values``.  The rows are counted chunk by
    chunk in their ``Enhancement.value_table``, whose two bit planes, low
    L = value & 1 and high H = value >> 1, are packed eight classes a byte and
    popcounted: n3 = |L & H|, n1 = |L| - n3, n2 = |H| - n3 and
    n0 = 2**n - n1 - n2 - n3.  Each chunk's table is released before the next
    is built.  The normal form (``brown_normal_form``) is the route
    that shares no code with this one.
    """
    import numpy as np
    n = form.dim
    check_dim(n, MAX_TABLE_DIM, "dense class tables")
    vals = Enhancement.value_rows(form, values)
    counts = np.empty((len(vals), 4), dtype=np.int64)
    chunk = max(1, _TABLE_BYTES >> n)
    for lo in range(0, len(vals), chunk):
        table = Enhancement.value_table(form, vals[lo : lo + chunk])
        # bit planes of the values, eight classes a byte; the zero bits that pad a row of 2**n < 8 count nowhere
        low = np.packbits(table & 1, axis=1, bitorder="little")
        high = np.packbits(table >> 1, axis=1, bitorder="little")
        del table
        out = counts[lo : lo + len(low)]
        for v, plane in ((3, low & high), (1, low), (2, high)):
            np.add.reduce(np.bitwise_count(plane), axis=1, dtype=np.int64, out=out[:, v])
        # |L| and |H| both count the classes of value 3
        out[:, 1:3] -= out[:, 3:]
        out[:, 0] = (1 << n) - out[:, 1:].sum(axis=1)
    return counts


def value_histogram(e: Enhancement) -> ValueHistogram:
    """Counts of each value of e over all 2**n classes: ``value_histograms`` on a batch of one."""
    return ValueHistogram(*(int(c) for c in value_histograms(e.form, [e.values])[0]))


# the (sign A, sign B) pair of the Gauss sum A + Bi, indexed by octant
_SIGNS_BY_OCTANT = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


@lru_cache(maxsize=2)
def _octant_table(parity: int) -> np.ndarray:
    """The octant of each (sign P, sign Q), P = A + B and Q = A - B, indexed by 3 sign P + sign Q mod 9.

    On an octant's ray |A| and |B| are equal or one is zero, so the signs of
    P and Q are those of sign A + sign B and sign A - sign B.  Only octants
    of the given parity have sums of squared magnitude 2**n with n of that
    parity; every other entry, (0, 0) included, is -1.  Built on first use
    and cached read-only.
    """
    import numpy as np
    table = np.full(9, -1)
    for octant in range(parity, 8, 2):
        sa, sb = _SIGNS_BY_OCTANT[octant]
        table[(3 * np.sign(sa + sb) + np.sign(sa - sb)) % 9] = octant
    table.setflags(write=False)
    return table


def _octants(dim: int, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Octant of each Gauss sum A + Bi of i**e(x), the Brown invariant, given P = A + B and Q = A - B.

    A**2 + B**2 = 2**n exactly when P**2 + Q**2 = 2**(n+1), and the only
    integer points of that circle are (+-2**(n/2), +-2**(n/2)) for even n
    and (+-2**((n+1)/2), 0), (0, +-2**((n+1)/2)) for odd n.  So a sum is
    checked without squaring: |P| | |Q| = 2**ceil(n/2) holds exactly when
    P and Q are each 0 or +-2**ceil(n/2), and then the sign pair must fit
    the parity of n; the sign pair fixes the octant.  The first sum with a
    wrong magnitude raises ``InvariantViolation``.
    """
    import numpy as np
    key = np.sign(p)
    key *= 3
    key += np.sign(q)
    octants = _octant_table(dim & 1)[key]
    # a validated enhancement of a nondegenerate pairing always has |sum|**2 = 2**n
    magnitude = np.abs(p, out=key)
    magnitude |= np.abs(q)
    bad = magnitude != 1 << (dim + 1) // 2
    bad |= octants < 0
    if bad.any():
        first = np.flatnonzero(bad)[0]
        pb, qb = int(p[first]), int(q[first])
        ab, bb = (pb + qb) // 2, (pb - qb) // 2
        if (ab, bb) == (0, 0):
            raise InvariantViolation("zero Gauss sum for an enhancement of a nondegenerate pairing")
        raise InvariantViolation(f"Gauss sum magnitude {ab * ab + bb * bb} is not 2**{dim}")
    return octants


def brown_from_histograms(dim: int, counts) -> np.ndarray:
    """Brown invariant of each row of value counts: the octant of the Gauss sum (n0 - n2) + (n1 - n3)i."""
    import numpy as np
    counts = np.asarray(counts, dtype=np.int64).reshape(-1, 4)
    real, imag = counts[:, 0] - counts[:, 2], counts[:, 1] - counts[:, 3]
    return _octants(dim, real + imag, real - imag)


def brown_gauss_many(form: IntersectionForm, values) -> np.ndarray:
    """Brown invariant of each row of (S, n) basis values on ``form``, from one ``value_histograms`` call."""
    return brown_from_histograms(form.dim, value_histograms(form, values))


def brown_gauss(e: Enhancement) -> int:
    """Brown invariant read off the exact octant of the Gauss sum: ``brown_gauss_many`` on a batch of one."""
    return int(brown_gauss_many(e.form, [e.values])[0])


def brown_spectrum(form: IntersectionForm) -> np.ndarray:
    """Brown invariant of every enhancement on the pairing, indexed by code.

    All 2**n Gauss sums come from one int32 Walsh-Hadamard transform
    (``Enhancement.folded_sums``), so the cost is O(n 2**n) rather than a
    histogram per structure; each sum's octant is read off the sign pair of
    P = Re + Im and Q = Re - Im.  A term i**e(x) is imaginary exactly where
    x.x = 1, the parity of x & delta for the diagonal delta, so Q(c) = P(c ^ delta).
    """
    p = Enhancement.folded_sums(form)
    return _octants(form.dim, p, _xor_permuted(p, form.diagonal_bits))


def brown_compass(e: Enhancement) -> int:
    """Brown invariant from the sign pair (sign(n0-n2), sign(n1-n3)) via the octant table."""
    a, b = value_histogram(e).gauss_deltas
    signs = ((a > 0) - (a < 0), (b > 0) - (b < 0))
    if signs == (0, 0):
        raise InvariantViolation("zero Gauss sum for an enhancement of a nondegenerate pairing")
    return _SIGNS_BY_OCTANT.index(signs)


def brown_normal_form(form: IntersectionForm, codes) -> int | np.ndarray:
    """Brown invariant of the enhancement with code ``codes``, added up over a standard basis, in O(n**2).

    On an orthonormal basis v1, ..., vk the enhancement splits into k
    projective planes, each of invariant +1 (value 1) or -1 (value 3); on a
    symplectic basis a1, b1, ..., ag, bg into g hyperbolic planes, each of
    invariant 4 exactly when e(a) = e(b) = 2 (Brown, "Generalizations of the
    Kervaire invariant", 1972; Kirby-Taylor, "Pin structures on
    low-dimensional manifolds", 1990).  The basis is orthonormal exactly
    when the pairing is not alternating.  On the code c read there
    (``Enhancement.codes_on_standard_basis``), value 3 on v_i is bit i set
    and e(a_i) = e(b_i) = 2 is both bits of plane i set, so the sums are
    k - 2 |c| mod 8 and 4 Arf(c), by popcount.  An int code gives an int,
    with no numpy call, and an array-like of codes an (S,) int64 array.
    """
    codes = Enhancement.codes_on_standard_basis(form, codes)
    if is_alternating(form):
        return 4 * arf_of_codes(codes)
    if isinstance(codes, int):
        return (form.dim - 2 * codes.bit_count()) % 8
    import numpy as np
    return (form.dim - 2 * np.bitwise_count(codes).astype(np.int64)) % 8


def histogram_from_brown(dim: int, beta: int, alternating: bool) -> ValueHistogram:
    """The value histogram of any enhancement with Brown invariant ``beta``, in closed form.

    The Gauss sum A + Bi is 2**(n/2) exp(i pi beta / 4), so (A, B) is the sign
    pair of the octant scaled to squared magnitude 2**n.  The even values
    fill the classes with x.x = 0: all 2**n on an alternating pairing, half
    of them otherwise.  Then n0, n2 = (even +- A) / 2 and n1, n3 = (odd +- B) / 2.
    """
    sa, sb = _SIGNS_BY_OCTANT[beta % 8]
    # 2 log2 |A| (or |B|): n on an axis, n - 1 on a diagonal
    twice_log = dim - abs(sa) - abs(sb) + 1
    if twice_log % 2 or (alternating and sb):
        raise InvariantViolation(f"Brown invariant {beta} is impossible in dimension {dim}")
    a, b = sa << twice_log // 2, sb << twice_log // 2
    even = 1 << dim if alternating else 1 << (dim - 1)
    odd = (1 << dim) - even
    return ValueHistogram((even + a) // 2, (odd + b) // 2, (even - a) // 2, (odd - b) // 2)


def direct_sum_enhancement(e1: Enhancement, e2: Enhancement) -> Enhancement:
    """Enhancement of the block sum acting blockwise."""
    return Enhancement(direct_sum(e1.form, e2.form), e1.values + e2.values)


def enhancement_from_refinement(q: Refinement) -> Enhancement:
    """Doubling: the enhancement 2q induced by a refinement on an orientable surface."""
    return Enhancement(q.form, tuple(2 * v for v in q.values))


def cap_off_summand(e: Enhancement, index: int) -> tuple[Enhancement, int]:
    """Delete one projective-plane summand; returns the smaller enhancement and the removed value.

    The Brown invariant of the input equals that of the output plus that of
    a single projective plane carrying the removed value, mod 8.
    """
    if not is_identity_form(e.form):
        raise ValueError("capping is defined on the standard nonorientable pairing")
    k = e.form.dim
    if k < 2:
        raise ValueError("capping needs at least two summands")
    if not 0 <= index < k:
        raise IndexError(f"summand index {index} out of range for genus {k}")
    rest = e.values[:index] + e.values[index + 1 :]
    return Enhancement(identity_form(k - 1), rest), e.values[index]
