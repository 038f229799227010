"""Closed surfaces in standard form and their mod-2 intersection pairing.

An orientable genus-g surface carries the block sum of g hyperbolic planes
on the interleaved basis a1, b1, ..., ag, bg.  A nonorientable genus-k
surface carries the k-by-k identity pairing on the core classes of its k
projective-plane summands.  Homology classes are encoded as integers with
bit i giving the coefficient of basis vector i.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import compress
from typing import ClassVar

import numpy as np

from . import gf2

# Dense per-class value tables (histograms, censuses) stop here.
MAX_TABLE_DIM = 20
# Reduction to a standard basis (bordism classes, single-structure invariants) stops here.
MAX_NORMAL_FORM_DIM = 256


class LimitError(RuntimeError):
    """Raised when a computation would exceed the documented size limits."""


class InvariantViolation(AssertionError):
    """Raised when an internal consistency check fails; it signals a defect, not bad input."""


def freeze_ints(obj, field: str):
    """Store a frozen dataclass's list or array field as a tuple of ints, so equal objects compare and hash equal."""
    seq = getattr(obj, field)
    if not isinstance(seq, tuple):
        object.__setattr__(obj, field, tuple(map(operator.index, seq)))


def as_bits(x: int, dim: int) -> int:
    """A class as its integer bit mask, checked against ``dim``.

    ``operator.index`` lets numpy integers through and raises ``TypeError`` on anything else.
    """
    bits = operator.index(x)
    if not 0 <= bits < (1 << dim):
        raise ValueError(f"class bits {bits:#x} out of range for dimension {dim}")
    return bits


@dataclass(frozen=True)
class IntersectionForm:
    """Symmetric nondegenerate bilinear pairing over GF(2), stored as row masks."""

    dim: int
    rows: tuple[int, ...]

    def __post_init__(self):
        freeze_ints(self, "rows")
        n = self.dim
        if n < 0 or len(self.rows) != n:
            raise ValueError("row count must equal dim")
        if any(not 0 <= r < (1 << n) for r in self.rows):
            raise ValueError("row mask out of range")
        if self.rows != gf2.transpose(self.rows, n):
            raise ValueError("pairing matrix must be symmetric")
        if gf2.rank(self.rows) != n:
            raise ValueError("pairing matrix must be invertible over GF(2)")
        # every cache keyed by a form hashes it; the rows are immutable, so the hash is taken once
        object.__setattr__(self, "_hash", hash((n, self.rows)))

    def __hash__(self):
        return self._hash

    @classmethod
    def from_matrix(cls, matrix) -> "IntersectionForm":
        rows = tuple(sum((int(v) & 1) << j for j, v in enumerate(row)) for row in matrix)
        return cls(len(rows), rows)

    @property
    def matrix(self) -> np.ndarray:
        n = self.dim
        return np.array([[self.entry(i, j) for j in range(n)] for i in range(n)], dtype=np.uint8).reshape(n, n)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    @cached_property
    def diagonal(self) -> tuple[int, ...]:
        return tuple((self.rows[i] >> i) & 1 for i in range(self.dim))

    @cached_property
    def diagonal_bits(self) -> int:
        """The diagonal as a class: x.x is the parity of x & diagonal_bits."""
        return sum(d << i for i, d in enumerate(self.diagonal))

    def pairing_bits(self, x: int, y: int) -> int:
        """Pairing of two classes given as bit masks."""
        return gf2.dot(x, gf2.mat_vec(self.rows, y))


# Forms are immutable and __post_init__ checks symmetry and rank over all n
# rows, so the constructors below are cached: equal arguments share one form.
@lru_cache(maxsize=128)
def hyperbolic_form(g: int) -> IntersectionForm:
    """Block sum of g hyperbolic planes on the interleaved basis a1, b1, ..., ag, bg."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    rows = []
    for b in range(g):
        rows.append(1 << (2 * b + 1))
        rows.append(1 << (2 * b))
    return IntersectionForm(2 * g, tuple(rows))


@lru_cache(maxsize=128)
def identity_form(k: int) -> IntersectionForm:
    """Identity pairing on k projective-plane core classes."""
    if k < 0:
        raise ValueError("rank must be nonnegative")
    return IntersectionForm(k, gf2.identity(k))


@lru_cache(maxsize=256)
def direct_sum(f1: IntersectionForm, f2: IntersectionForm) -> IntersectionForm:
    """Block-diagonal sum; the second summand's basis is shifted past the first."""
    rows = f1.rows + tuple(r << f1.dim for r in f2.rows)
    return IntersectionForm(f1.dim + f2.dim, rows)


def intersection(form: IntersectionForm, x: int, y: int) -> int:
    """Mod-2 intersection number of two classes."""
    return form.pairing_bits(as_bits(x, form.dim), as_bits(y, form.dim))


def is_identity_form(form: IntersectionForm) -> bool:
    return form.rows == gf2.identity(form.dim)


def is_hyperbolic_form(form: IntersectionForm) -> bool:
    """Standard orientable layout: [[0,1],[1,0]] blocks on interleaved basis pairs."""
    return form.dim % 2 == 0 and form == hyperbolic_form(form.dim // 2)


def is_alternating(form: IntersectionForm) -> bool:
    return not form.diagonal_bits


def check_dim(n: int, cap: int, what: str):
    """Refuse dimensions above ``cap`` with ``LimitError``; every size guard goes through here."""
    if n > cap:
        raise LimitError(f"{what} capped at dimension {cap}, got {n}")


def matrix_rows(form: IntersectionForm, rows) -> np.ndarray:
    """A (G, n) batch of n-by-n row masks as a uint32 array; a wrong shape, a non-integer dtype or a mask outside [0, 2**n) raises ``ValueError``."""
    n = form.dim
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"row array of shape {rows.shape} is not a batch of {n}-by-{n} matrices")
    if rows.size and not np.issubdtype(rows.dtype, np.integer):
        raise ValueError(f"row masks must be integers, got dtype {rows.dtype}")
    if rows.size and (rows.min() < 0 or rows.max() >= 1 << n):
        raise ValueError("row mask out of range")
    return rows.astype(np.uint32)


@lru_cache(maxsize=64)
def standard_basis(form: IntersectionForm) -> tuple[str, tuple[int, ...]]:
    """A basis on which the pairing takes its standard layout, by GF(2) Gram-Schmidt.

    Returns ``("identity", basis)`` with an orthonormal basis when the pairing
    is not alternating, else ``("hyperbolic", basis)`` with interleaved pairs
    a1, b1, ..., ag, bg.  The diagonal decides the layout.  A pairing already
    in its layout, as every standard surface's is, is its own basis: the Gram
    matrix of the unit basis is F itself, so one O(n) comparison of the rows
    with the layout's is its Gram check, and nothing is reduced.

    Any other pairing is reduced.  While an odd vector x (x.x = 1) is left it
    is split off by z -> z + (z.x)x; otherwise a hyperbolic pair (x, y) is
    split off by z -> z + (z.y)x + (z.x)y.  Each pair is then folded into an
    odd vector e through <1> + H = 3<1>: e, a, b become e+a, e+b, e+a+b.

    Self-pairing is linear (x.x is the parity of x & diagonal) and z.x is the
    parity of z & Fx.  The pairing is symmetric, so Fx is the xor of the rows
    that x's bits pick (``gf2.mat_mul``): each split costs one or two such
    products, O(popcount x) word operations each, and O(n) parity tests.  The
    Gram check is two products, (BF)B^T, one xor per set bit of each factor.
    Dimensions above ``MAX_NORMAL_FORM_DIM`` raise ``LimitError``; a vector
    left with no hyperbolic partner, or a basis whose Gram matrix is not the
    layout, raises ``InvariantViolation``.
    """
    n = form.dim
    check_dim(n, MAX_NORMAL_FORM_DIM, "normal-form reduction")
    diagonal = form.diagonal_bits
    unit = gf2.identity(n)
    if diagonal:
        layout, expected = "identity", unit
    else:
        layout, expected = "hyperbolic", tuple(1 << (i ^ 1) for i in range(n))
    if form.rows == expected:
        return layout, unit
    rest = list(unit)
    odd: list[int] = []
    pairs: list[tuple[int, int]] = []
    while rest:
        x = next((z for z in rest if (z & diagonal).bit_count() & 1), None)
        if x is not None:
            rest.remove(x)
            odd.append(x)
            fx = gf2.mat_mul((x,), form.rows)[0]
            rest = [z ^ (x if (z & fx).bit_count() & 1 else 0) for z in rest]
            continue
        x = rest.pop(0)
        fx = gf2.mat_mul((x,), form.rows)[0]
        y = next((z for z in rest if (z & fx).bit_count() & 1), None)
        if y is None:
            raise InvariantViolation(f"vector {x:#x} has no hyperbolic partner among the vectors left")
        rest.remove(y)
        pairs.append((x, y))
        fy = gf2.mat_mul((y,), form.rows)[0]
        rest = [z ^ (x if (z & fy).bit_count() & 1 else 0) ^ (y if (z & fx).bit_count() & 1 else 0) for z in rest]
    if odd:
        e = odd.pop()
        for a, b in pairs:
            odd += [e ^ a, e ^ b]
            e ^= a ^ b
        basis = tuple(odd + [e])
    else:
        basis = tuple(v for ab in pairs for v in ab)
    gram = gf2.mat_mul(gf2.mat_mul(basis, form.rows), gf2.transpose(basis, n))
    if gram != expected:
        row = next(i for i, (got, want) in enumerate(zip(gram, expected)) if got != want)
        raise InvariantViolation(f"reduced basis breaks the {layout} layout in Gram row {row}")
    return layout, basis


@dataclass(frozen=True)
class Surface:
    """A closed surface in standard form; it is orientable exactly when its pairing is alternating."""

    kind: str
    genus: int
    form: IntersectionForm

    def __post_init__(self):
        if self.kind not in ("orientable", "nonorientable"):
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if self.kind == "orientable":
            if self.genus < 0:
                raise ValueError("orientable genus must be nonnegative")
            if self.form.dim != 2 * self.genus or not is_alternating(self.form):
                raise ValueError("orientable surface needs an alternating rank-2g pairing")
        else:
            if self.genus < 1:
                raise ValueError("nonorientable genus must be at least 1")
            if self.form.dim != self.genus or is_alternating(self.form):
                raise ValueError("nonorientable surface needs a non-alternating rank-k pairing")

    @property
    def label(self) -> str:
        return ("S:" if self.kind == "orientable" else "N:") + str(self.genus)


def orientable_surface(g: int) -> Surface:
    """Closed orientable surface of genus g."""
    return Surface("orientable", g, hyperbolic_form(g))


def nonorientable_surface(k: int) -> Surface:
    """Connected sum of k projective planes."""
    if k < 1:
        raise ValueError("nonorientable genus must be at least 1")
    return Surface("nonorientable", k, identity_form(k))


def cross_pairs(form: IntersectionForm, xbits: int) -> int:
    """Sum of pairing entries over bit pairs i < j set in ``xbits``, mod 2."""
    total = 0
    rem = xbits
    rows = form.rows
    while rem:
        i = (rem & -rem).bit_length() - 1
        rem &= rem - 1
        total ^= (rows[i] & rem).bit_count() & 1
    return total


@lru_cache(maxsize=32)
def class_bit_matrix(n: int) -> np.ndarray:
    """(2**n, n) coefficient bits of every class, row index = integer encoding.

    Built by doubling: rows [2**i, 2**(i+1)) repeat the rows below them with bit i set.
    """
    check_dim(n, MAX_TABLE_DIM, "dense class tables")
    out = np.zeros((1 << n, n), dtype=np.uint8)
    for i in range(n):
        block = 1 << i
        out[block : 2 * block] = out[:block]
        out[block : 2 * block, i] = 1
    out.setflags(write=False)
    return out


def _parity_vector(mask: int, n: int) -> np.ndarray:
    """Parity of mask & y for every y < 2**n, by one popcount over the classes."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint32) & mask) & 1


@lru_cache(maxsize=32)
def cross_parity_table(form: IntersectionForm) -> np.ndarray:
    """cross_pairs of every class as a dense table, built by doubling over the highest bit.

    A class x = 2**i + y with y < 2**i has cross_pairs(x) = cross_pairs(y)
    plus the parity of rows[i] & y, so the block [2**i, 2**(i+1)) is the
    block below it plus the popcounts of rows[i] & y: three vector
    operations per row, or one copy where rows[i] has no bit below i.  The
    uint8 sums wrap mod 256, which keeps their parity, and one mask at the
    end leaves it.
    """
    n = form.dim
    check_dim(n, MAX_TABLE_DIM, "dense class tables")
    table = np.zeros(1 << n, dtype=np.uint8)
    below = np.arange(1 << max(n - 1, 0), dtype=np.uint32)
    for i, row in enumerate(form.rows):
        block = 1 << i
        low = row & (block - 1)
        if low:
            np.add(table[:block], np.bitwise_count(below[:block] & low), out=table[block : 2 * block])
        else:
            table[block : 2 * block] = table[:block]
    table &= 1
    table.setflags(write=False)
    return table


@lru_cache(maxsize=32)
def self_pairing_table(form: IntersectionForm) -> np.ndarray:
    """x.x for every class: the parity of x & the diagonal, linear in x because the pairing is symmetric."""
    check_dim(form.dim, MAX_TABLE_DIM, "dense class tables")
    out = _parity_vector(form.diagonal_bits, form.dim)
    out.setflags(write=False)
    return out


def _butterflies(values: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform over the last axis, of length 2**n, in the dtype of ``values``, which it overwrites.

    Each pass sums and subtracts the even and odd entries into the two
    contiguous halves of a second buffer: it transforms the lowest bit and
    moves it to the top, so after n passes every bit is transformed and back
    in place.  Partial sums reach 2**n max|values|; the dtype must hold them.
    """
    size = values.shape[-1]
    half = size // 2
    spare = np.empty_like(values)
    for _ in range(size.bit_length() - 1):
        even, odd = values[..., 0::2], values[..., 1::2]
        np.add(even, odd, out=spare[..., :half])
        np.subtract(even, odd, out=spare[..., half:])
        values, spare = spare, values
    return values


def _xor_permuted(values: np.ndarray, mask: int) -> np.ndarray:
    """values[c ^ mask] for every c < 2**n, from ``values`` of length 2**n; ``values`` itself when mask = 0.

    Seen as a (2,) * n array, whose axis k is bit n - 1 - k of the index,
    xor with ``mask`` reverses the axes of its set bits: a view when
    ``mask`` is all ones, else one strided copy.  A gather through
    arange ^ mask would hold an index array as large as ``values`` too.
    """
    if not mask:
        return values
    n = values.size.bit_length() - 1
    flips = tuple(slice(None, None, -1) if mask >> bit & 1 else slice(None) for bit in reversed(range(n)))
    return values.reshape((2,) * n)[flips].reshape(-1)


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # ASCII binary digits to the bytes 0 and 1


@dataclass(frozen=True)
class QuadraticStructure:
    """Function s with s(x+y) = s(x) + s(y) + (m/2)(x.y) in Z/m, built from its basis values and kept with its code.

    Subclasses fix the modulus m and add the rule that 2 s(x) = (m/2)(x.x)
    forces: x.x = 0 throughout for m = 2, s(x) = x.x mod 2 for m = 4.  So
    basis value i is diag_i + (m/2) * bit i of an integer ``code``, diag_i
    being the self-pairing of basis vector i, and code c is code 0 plus
    (m/2)(c.x): an isometry acts on codes affinely.
    """

    modulus: ClassVar[int]
    # Z/m, and the values s can take on a class x, indexed by x.x, as bit masks: bit s is set when 2 s = (m/2)(x.x) mod m
    residues: ClassVar[frozenset[int]]
    parity_masks: ClassVar[tuple[int, int]]
    form: IntersectionForm
    values: tuple[int, ...]
    code: int = field(init=False, repr=False, compare=False)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        m = cls.modulus
        cls.residues = frozenset(range(m))
        cls.parity_masks = tuple(sum(1 << s for s in range(m) if 2 * s % m == m // 2 * xx) for xx in (0, 1))
        # per value byte, the ASCII digit of the self-pairing it fits (2 s mod m is 0 or m/2) and of its code bit
        fitted = [cls.parity_masks[1] >> s & 1 for s in range(m)]
        cls._diagonal_digits = bytes(48 + xx for xx in fitted).ljust(256, b"0")
        cls._code_digits = bytes(48 + (s - xx) // (m // 2) for s, xx in enumerate(fitted)).ljust(256, b"0")

    def __post_init__(self):
        """The one check of basis values: count, then Z/m, then parity 2 s(v_i) = (m/2) diag_i, naming the first bad value.

        The values, last first, are read as bytes into the binary digits of the
        self-pairing each fits and of its code bit; the first number must be the
        diagonal, and the second is the code, which the structure keeps.
        """
        freeze_ints(self, "values")
        values, m = self.values, self.modulus
        if len(values) != self.form.dim:
            raise ValueError("basis value count must equal the pairing dimension")
        if not self.residues.issuperset(values):
            i = next(i for i, v in enumerate(values) if v not in self.residues)
            raise ValueError(f"{type(self).__name__.lower()} value {values[i]} at index {i} lies outside Z/{m}")
        digits = bytes(values)[::-1]
        misfits = int(digits.translate(self._diagonal_digits) or b"0", 2) ^ self.form.diagonal_bits
        if misfits:
            i = (misfits & -misfits).bit_length() - 1
            raise ValueError(
                f"{type(self).__name__.lower()} value {values[i]} at index {i} breaks parity 2 s(v) = {m // 2} (v.v) mod {m}")
        object.__setattr__(self, "code", int(digits.translate(self._code_digits) or b"0", 2))

    @classmethod
    def code_values(cls, form: IntersectionForm, codes) -> np.ndarray:
        """Basis values of the structures at ``codes``, as an (S, n) uint8 array in the order of ``codes``.

        Row s is diag_i + (m/2) * bit i of codes[s], the one statement of the
        code rule.  Codes are read as little-endian bytes, so any dimension
        works; the first code outside [0, 2**n) raises ``ValueError``.
        """
        n, width = form.dim, (form.dim + 7) // 8
        codes = [operator.index(c) for c in codes]
        bad = next((c for c in codes if not 0 <= c < 1 << n), None)
        if bad is not None:
            raise ValueError(f"code {bad:#x} out of range for dimension {n}")
        raw = np.frombuffer(b"".join(c.to_bytes(width, "little") for c in codes), dtype=np.uint8).reshape(len(codes), width)
        return np.array(form.diagonal, dtype=np.uint8) + cls.modulus // 2 * np.unpackbits(raw, axis=1, count=n, bitorder="little")

    @classmethod
    def from_code(cls, form: IntersectionForm, code: int):
        """The structure whose basis value i is diag_i + (m/2) * bit i of ``code``: ``code_values`` on a batch of one."""
        return cls(form, tuple(cls.code_values(form, [code])[0].tolist()))

    @classmethod
    @lru_cache(maxsize=128)
    def pull_back(cls, form: IntersectionForm, vectors: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """The map c -> Bc xor t on codes that restriction to the vectors b_1, ..., b_r induces, as (columns of B, t).

        A structure's code on any basis is its values there halved: s(b) is b.b
        or b.b + m/2, so s(b) // (m/2) is its bit.  As s_c(b) = s_0(b) + (m/2)(c.b),
        row i of B is b_i (column j, an r-bit int, holds bit j of each b_i) and
        bit i of t is s_0(b_i) // (m/2), s_0(b) being the diagonal weight of b
        plus (m/2) cross_pairs(b), mod m.  Pure Python, cached per class, form
        and tuple of class bit masks.

        The unit basis, which every standard surface's ``standard_basis`` is,
        returns at once on any pairing, as a code is defined by its values
        there: B is the unit basis, its own transpose, and s_0(e_i) is diag_i,
        as one vector has no cross term, so bit i of t is diag_i // (m/2).
        Each diag_i is 0 or 1, so t is the diagonal times 1 // (m/2).  Any
        other tuple takes the per-vector loop.
        """
        m, half = cls.modulus, cls.modulus // 2
        unit = gf2.identity(form.dim)
        if vectors == unit:
            return unit, form.diagonal_bits * (1 // half)
        shift = 0
        for i, b in enumerate(vectors):
            weight = (as_bits(b, form.dim) & form.diagonal_bits).bit_count()
            shift |= (weight + half * cross_pairs(form, b)) % m // half << i
        return gf2.transpose(vectors, form.dim), shift

    @classmethod
    def code_map(cls, form: IntersectionForm, rows) -> tuple[np.ndarray, np.ndarray]:
        """The maps c -> Tc xor t that a batch of isometries induces on codes, as (columns of T, t).

        ``rows`` is any (G, n) array-like of row masks; the result is a (G, n) uint32
        array of columns and a (G,) array of shifts.  The pushed-forward
        structure has basis value s_c(p_i) = s_0(p_i) + (m/2)(c.p_i) at inverse
        column p_i, so this is ``pull_back`` onto the preimages p_i: row i of T
        is p_i (the columns of T are the rows of the inverse) and bit i of t is
        s_0(p_i) // (m/2), evaluated on the whole batch at once, with the cross
        term read from ``cross_parity_table``.  An isometry's inverse is its adjoint
        F^-1 A^T F (F^-1 is one ``gf2.inverse`` per call, which F F^-1 = I checks).
        A F^-1 A^T F = I holds exactly when A^T F A = F, so that one batch product is
        the library's check of isometry rows from outside: it, or ``matrix_rows`` on a
        wrong shape or mask, raises ``ValueError``.
        """
        n, half = form.dim, cls.modulus // 2
        pairing_inverse = gf2.inverse(form.rows, n)
        if pairing_inverse is None or gf2.mat_mul(form.rows, pairing_inverse) != gf2.identity(n):
            raise InvariantViolation("isometry inverse fails F . F^-1 = identity")
        rows = matrix_rows(form, rows)
        # F and F^-1 are symmetric, so the transpose of the adjoint, whose rows are the preimages, is F A F^-1
        preimages = gf2.batch_mul(gf2.batch_mul(form.rows, rows), pairing_inverse)
        inverse = gf2.batch_transpose(preimages, n)
        if (gf2.batch_mul(rows, inverse) != gf2.identity(n)).any():
            raise ValueError("matrix does not preserve the pairing")
        weight = np.bitwise_count(preimages & form.diagonal_bits).astype(np.int64)
        bits = (weight + half * cross_parity_table(form)[preimages]) % cls.modulus // half
        return inverse, (bits @ (1 << np.arange(n))).astype(np.uint32)

    @classmethod
    def enumerate_all(cls, form: IntersectionForm) -> list:
        """All 2**n structures on the pairing, in code order."""
        check_dim(form.dim, MAX_TABLE_DIM, f"{cls.__name__.lower()} enumeration")
        return [cls(form, values) for values in map(tuple, cls.code_values(form, range(1 << form.dim)).tolist())]

    @classmethod
    def folded_sums(cls, form: IntersectionForm) -> np.ndarray:
        """P = Re + Im of the Gauss sum of every code, indexed by code, from one int32 transform.

        Code c is code 0 plus (m/2)(c.x), which multiplies each term
        exp(2 pi i s(x) / m) by (-1)**(c.x), so P is one Walsh-Hadamard
        transform of Re + Im of code 0's terms, which is 1 where s(x) < m/2
        and -1 elsewhere.  Code 0 has the diagonal as basis values, so s(x)
        is (m/2) cross_pairs(x) plus the diagonal weight of x.  Partial
        sums stay within 2**n <= 2**MAX_TABLE_DIM, so int32 is exact.
        """
        check_dim(form.dim, MAX_TABLE_DIM, f"{cls.__name__.lower()} enumeration")
        values = cls.value_table(form, cls.code_values(form, [0]))[0]
        terms = np.multiply(values >= cls.modulus // 2, -2, dtype=np.int32)
        terms += 1
        return _butterflies(terms)

    @classmethod
    def value_rows(cls, form: IntersectionForm, values) -> np.ndarray:
        """Any (S, n) array-like of integer basis values as uint8 rows.

        Another dtype raises ``ValueError``, and so does a row with a value
        outside Z/m, or else a row that breaks the parity rule
        2 s(v_i) = (m/2)(v_i.v_i) mod m on a basis vector v_i; the message
        names the first such row.  Both rules are one test: value v fits
        basis vector i when bit v of the ``parity_masks`` entry of v_i.v_i is
        set, and a shift by a negative value or past the mask's width gives 0.
        Parity on the basis gives parity on every class, as both sides are
        additive mod m.
        """
        name, m = cls.__name__.lower(), cls.modulus
        rows = np.asarray(values).reshape(len(values), form.dim)
        if not rows.size:
            return rows.astype(np.uint8)
        if not np.issubdtype(rows.dtype, np.integer):
            raise ValueError(f"{name} values must be integers, got dtype {rows.dtype}")
        fits = np.array([cls.parity_masks[d] for d in form.diagonal], dtype=np.uint8) >> rows
        fits &= 1
        if not fits.all():
            # a value outside Z/m is named before a parity break
            outside = ((rows < 0) | (rows >= m)).any(axis=1)
            broken, rule = (outside, f"live in Z/{m}") if outside.any() else (
                ~fits.all(axis=1), f"break parity 2 s(v) = {m // 2} (v.v) mod {m}")
            row = int(broken.argmax())
            raise ValueError(f"{name} values {rule}: row {row} is {tuple(rows[row].tolist())}")
        return rows.astype(np.uint8, copy=False)

    @classmethod
    def value_table(cls, form: IntersectionForm, values) -> np.ndarray:
        """Values on all 2**n classes for a batch of structures on one pairing, as an (S, 2**n) uint8 table.

        ``values`` holds one row of basis values per structure; row s of the
        table, indexed by integer encoding, belongs to row s of ``values``.
        The linear part doubles over the basis: block [2**i, 2**(i+1)) is the
        block below it plus ``values[:, i]``.  Then (m/2) ``cross_parity_table``
        is added and the sum, which wraps mod 256, is reduced mod m.  The
        normal form is the route that shares no code with this table.
        """
        cross = cross_parity_table(form)  # its guard runs before anything is allocated
        n = form.dim
        vals = cls.value_rows(form, values)
        table = np.empty((len(vals), 1 << n), dtype=np.uint8)
        table[:, 0] = 0
        for i in range(n):
            np.add(table[:, : 1 << i], vals[:, i, None], out=table[:, 1 << i : 2 << i])
        table += cls.modulus // 2 * cross
        # the modulus is 2 or 4, so masking reduces it (much faster than % on large arrays)
        table &= cls.modulus - 1
        return table

    def __call__(self, x: int) -> int:
        """s(x) in one pass over the set bits of x.

        Bit i adds values[i] to the linear part and the parity of rows[i] & the
        bits of x above i to the cross term, the sum ``cross_pairs`` takes.
        """
        rest = as_bits(x, self.form.dim)
        rows, values = self.form.rows, self.values
        linear = cross = 0
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            linear += values[i]
            cross ^= (rows[i] & rest).bit_count() & 1
        return (linear + self.modulus // 2 * cross) % self.modulus

    @classmethod
    def codes_on_standard_basis(cls, form: IntersectionForm, codes) -> int | np.ndarray:
        """Codes pulled back onto ``standard_basis(form)`` by ``pull_back``'s map c -> Bc xor t; no value is read.

        An int code gives an int, in pure Python: t xor the columns of B at its
        set bits.  Any array-like of integer codes, up to ``MAX_TABLE_DIM``,
        gives a uint32 array: one ``gf2.batch_mul`` of the codes as (S, 1) rows
        with the columns of B, xor t.  A code outside [0, 2**n) raises ``ValueError``.
        """
        n = form.dim
        try:
            code = operator.index(codes)
        except TypeError:
            check_dim(n, MAX_TABLE_DIM, "batch normal forms")
            codes = np.asarray(codes)
            if codes.size and not np.issubdtype(codes.dtype, np.integer):
                raise ValueError(f"codes must be integers, got dtype {codes.dtype}") from None
            outside = (codes < 0) | (codes >= 1 << n)
            if outside.any():
                raise ValueError(f"code {int(codes[outside][0]):#x} out of range for dimension {n}") from None
            columns, shift = cls.pull_back(form, standard_basis(form)[1])
            return gf2.batch_mul(codes.astype(np.uint32).reshape(-1, 1), columns).reshape(-1) ^ np.uint32(shift)
        if not 0 <= code < 1 << n:
            raise ValueError(f"code {code:#x} out of range for dimension {n}")
        columns, shift = cls.pull_back(form, standard_basis(form)[1])
        # the code's binary digits, bit 0 first, as bytes 0 and 1, select the columns
        return reduce(operator.xor, compress(columns, bin(code)[:1:-1].encode().translate(_BIT_BYTES)), shift)

    def values_on_all(self) -> np.ndarray:
        """Values on all 2**n classes, indexed by integer encoding: ``value_table`` on a batch of one."""
        return self.value_table(self.form, [self.values])[0]
