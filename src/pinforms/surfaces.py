"""Closed surfaces in standard form and their mod-2 intersection pairing.

An orientable genus-g surface carries the block sum of g hyperbolic planes
on the interleaved basis a1, b1, ..., ag, bg.  A nonorientable genus-k
surface carries the k-by-k identity pairing on the core classes of its k
projective-plane summands.  Homology classes are encoded as integers with
bit i giving the coefficient of basis vector i.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import ClassVar, Iterator

import numpy as np

from . import gf2

# Dense per-class value tables (histograms, censuses, class enumeration) stop here.
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


@dataclass(frozen=True)
class H1Class:
    """A mod-2 homology class; bit i of ``bits`` is the coefficient of basis vector i."""

    dim: int
    bits: int

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        if not 0 <= self.bits < (1 << self.dim):
            raise ValueError(f"class bits {self.bits:#x} out of range for dimension {self.dim}")

    @classmethod
    def from_coeffs(cls, coeffs) -> "H1Class":
        coeffs = tuple(coeffs)
        bits = 0
        for i, c in enumerate(coeffs):
            if c not in (0, 1):
                raise ValueError("coefficients must be 0 or 1")
            bits |= c << i
        return cls(len(coeffs), bits)

    @classmethod
    def zero(cls, dim: int) -> "H1Class":
        return cls(dim, 0)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.dim))

    def __add__(self, other: "H1Class") -> "H1Class":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return H1Class(self.dim, self.bits ^ other.bits)


def as_bits(x: "H1Class | int", dim: int) -> int:
    """Accept a class or its integer encoding; validate against ``dim``."""
    if isinstance(x, H1Class):
        if x.dim != dim:
            raise ValueError(f"class dimension {x.dim} does not match pairing dimension {dim}")
        return x.bits
    if not 0 <= x < (1 << dim):
        raise ValueError(f"class bits {x:#x} out of range for dimension {dim}")
    return x


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

    @classmethod
    def from_matrix(cls, matrix) -> "IntersectionForm":
        rows = tuple(sum((int(v) & 1) << j for j, v in enumerate(row)) for row in matrix)
        return cls(len(rows), rows)

    @property
    def matrix(self) -> np.ndarray:
        n = self.dim
        out = np.zeros((n, n), dtype=np.uint8)
        for i in range(n):
            for j in range(n):
                out[i, j] = (self.rows[i] >> j) & 1
        return out

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    @cached_property
    def diagonal(self) -> tuple[int, ...]:
        return tuple((self.rows[i] >> i) & 1 for i in range(self.dim))

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


def intersection(form: IntersectionForm, x: H1Class, y: H1Class) -> int:
    """Mod-2 intersection number of two classes."""
    return form.pairing_bits(as_bits(x, form.dim), as_bits(y, form.dim))


def is_identity_form(form: IntersectionForm) -> bool:
    return form.rows == gf2.identity(form.dim)


def is_hyperbolic_form(form: IntersectionForm) -> bool:
    """Standard orientable layout: [[0,1],[1,0]] blocks on interleaved basis pairs."""
    return form.dim % 2 == 0 and form == hyperbolic_form(form.dim // 2)


def is_alternating(form: IntersectionForm) -> bool:
    return all(d == 0 for d in form.diagonal)


def check_dim(n: int, cap: int, what: str):
    """Refuse dimensions above ``cap`` with ``LimitError``; every size guard goes through here."""
    if n > cap:
        raise LimitError(f"{what} capped at dimension {cap}, got {n}")


@lru_cache(maxsize=64)
def standard_basis(form: IntersectionForm) -> tuple[str, tuple[int, ...]]:
    """A basis on which the pairing takes its standard layout, by GF(2) Gram-Schmidt.

    Returns ``("identity", basis)`` with an orthonormal basis when the pairing
    is not alternating, else ``("hyperbolic", basis)`` with interleaved pairs
    a1, b1, ..., ag, bg.  While an odd vector x (x.x = 1) is left it is split
    off by z -> z + (z.x)x; otherwise a hyperbolic pair (x, y) is split off by
    z -> z + (z.y)x + (z.x)y.  Each pair is then folded into an odd vector e
    through <1> + H = 3<1>: e, a, b become e+a, e+b, e+a+b.  The standard
    layouts get back the unit basis.

    Self-pairing is linear (x.x is the parity of x & diagonal) and z.x is the
    parity of z & Fx, so each split costs one or two matrix-vector products
    and O(n) word operations: O(n**2) word operations in all, the Gram check
    included.  Dimensions above ``MAX_NORMAL_FORM_DIM`` raise ``LimitError``;
    a basis whose Gram matrix is not the layout raises ``InvariantViolation``.
    """
    n = form.dim
    check_dim(n, MAX_NORMAL_FORM_DIM, "normal-form reduction")
    diagonal = sum(d << i for i, d in enumerate(form.diagonal))
    rest = [1 << i for i in range(n)]
    odd: list[int] = []
    pairs: list[tuple[int, int]] = []
    while rest:
        x = next((z for z in rest if gf2.dot(z, diagonal)), None)
        if x is not None:
            rest.remove(x)
            odd.append(x)
            fx = gf2.mat_vec(form.rows, x)
            rest = [z ^ (x if gf2.dot(z, fx) else 0) for z in rest]
            continue
        x = rest.pop(0)
        fx = gf2.mat_vec(form.rows, x)
        y = next(z for z in rest if gf2.dot(z, fx))  # exists: the rest is nondegenerate
        rest.remove(y)
        pairs.append((x, y))
        fy = gf2.mat_vec(form.rows, y)
        rest = [z ^ (x if gf2.dot(z, fy) else 0) ^ (y if gf2.dot(z, fx) else 0) for z in rest]
    if odd:
        e = odd.pop()
        for a, b in pairs:
            odd += [e ^ a, e ^ b]
            e ^= a ^ b
        layout, basis = "identity", tuple(odd + [e])
        expected = gf2.identity(n)
    else:
        layout, basis = "hyperbolic", tuple(v for ab in pairs for v in ab)
        expected = tuple(1 << (i ^ 1) for i in range(n))
    images = [gf2.mat_vec(form.rows, v) for v in basis]
    gram = tuple(sum(gf2.dot(v, fw) << j for j, v in enumerate(basis)) for fw in images)
    if gram != expected:
        row = next(i for i, (got, want) in enumerate(zip(gram, expected)) if got != want)
        raise InvariantViolation(f"reduced basis breaks the {layout} layout in Gram row {row}")
    return layout, basis


def _set_bits(x: int) -> tuple[int, ...]:
    """Indices of the set bits of x, lowest first, in one pass over those bits."""
    bits = []
    while x:
        bits.append((x & -x).bit_length() - 1)
        x &= x - 1
    return tuple(bits)


@lru_cache(maxsize=64)
def standard_basis_terms(form: IntersectionForm) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(set-bit indices of v, cross_pairs(v)) for each vector v of ``standard_basis(form)``.

    A structure's value on v is the sum of its basis values at those
    indices plus (m/2) cross_pairs(v), mod m, so with this table cached the
    basis values of a structure cost no walk over the pairing
    (``QuadraticStructure.standard_basis_values``).
    """
    return tuple((_set_bits(v), cross_pairs(form, v)) for v in standard_basis(form)[1])


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


def enumerate_classes(form: IntersectionForm) -> Iterator[H1Class]:
    """Yield all 2**n classes in ascending integer encoding."""
    n = form.dim
    check_dim(n, MAX_TABLE_DIM, "class enumeration")
    return (H1Class(n, bits) for bits in range(1 << n))


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
    """Parity of mask & y for every y < 2**n, built by doubling over the bits of y."""
    out = np.zeros(1 << n, dtype=np.uint8)
    for j in range(n):
        block = 1 << j
        np.bitwise_xor(out[:block], (mask >> j) & 1, out=out[block : 2 * block])
    return out


@lru_cache(maxsize=32)
def cross_parity_table(form: IntersectionForm) -> np.ndarray:
    """cross_pairs of every class as a dense table, built by doubling over the highest bit.

    A class x = 2**i + y with y < 2**i has cross_pairs(x) = cross_pairs(y)
    plus the parity of rows[i] & y, so the block [2**i, 2**(i+1)) is the
    block below it xor that parity vector.
    """
    check_dim(form.dim, MAX_TABLE_DIM, "dense class tables")
    table = np.zeros(1 << form.dim, dtype=np.uint8)
    for i, row in enumerate(form.rows):
        block = 1 << i
        np.bitwise_xor(table[:block], _parity_vector(row, i), out=table[block : 2 * block])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=32)
def self_pairing_table(form: IntersectionForm) -> np.ndarray:
    """x.x for every class; linear in x because the pairing is symmetric."""
    check_dim(form.dim, MAX_TABLE_DIM, "dense class tables")
    bits = class_bit_matrix(form.dim)
    vec = np.array(form.diagonal, dtype=np.uint8)
    out = (bits @ vec) & 1
    out.setflags(write=False)
    return out


def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform over the last axis, of length 2**n, in int64.

    Entry c of the result is the sum over x of values[..., x] * (-1)**(c.x),
    c.x being the parity of c & x; one butterfly pass per bit.
    """
    out = np.array(values, dtype=np.int64)
    size = out.shape[-1]
    if size & (size - 1):
        raise ValueError(f"transform length {size} is not a power of two")
    half = 1
    while half < size:
        view = out.reshape(out.shape[:-1] + (size // (2 * half), 2, half))
        lo, hi = view[..., 0, :], view[..., 1, :]
        lo += hi  # a + b
        hi *= -2
        hi += lo  # (a + b) - 2b = a - b
        half *= 2
    return out


# real and imaginary parts of i**t for t = 0, 1, 2, 3 quarter turns
_QUARTER_TURNS = np.array([[1, 0, -1, 0], [0, 1, 0, -1]], dtype=np.int64)


@dataclass(frozen=True)
class QuadraticStructure:
    """Function s with s(x+y) = s(x) + s(y) + (m/2)(x.y) in Z/m, stored by its basis values.

    Subclasses fix the modulus m and add the rule that 2 s(x) = (m/2)(x.x)
    forces: x.x = 0 throughout for m = 2, s(x) = x.x mod 2 for m = 4.  So
    basis value i is diag_i + (m/2) * bit i of an integer ``code``, diag_i
    being the self-pairing of basis vector i, and code c is code 0 plus
    (m/2)(c.x): an isometry acts on codes affinely.
    """

    modulus: ClassVar[int]
    form: IntersectionForm
    values: tuple[int, ...]

    def __post_init__(self):
        freeze_ints(self, "values")
        if len(self.values) != self.form.dim:
            raise ValueError("basis value count must equal the pairing dimension")
        if not set(self.values).issubset(range(self.modulus)):
            raise ValueError(f"{type(self).__name__.lower()} values live in Z/{self.modulus}")

    @classmethod
    def from_code(cls, form: IntersectionForm, code: int):
        """The structure whose basis value i is diag_i + (m/2) * bit i of ``code``."""
        if not 0 <= code < (1 << form.dim):
            raise ValueError(f"code {code:#x} out of range for dimension {form.dim}")
        half = cls.modulus // 2
        return cls(form, tuple(d + half * ((code >> i) & 1) for i, d in enumerate(form.diagonal)))

    @classmethod
    def code_map(cls, form: IntersectionForm, isometries) -> tuple[np.ndarray, np.ndarray]:
        """The maps c -> Tc xor t that a batch of isometries induces on codes, as (columns of T, t).

        ``isometries`` is a (G, n) array of row masks, or one isometry (a batch
        of one); the result is a (G, n) uint32 array of columns and a (G,)
        array of shifts.  The pushed-forward structure has basis value
        s_c(p_i) = s_0(p_i) + (m/2)(c.p_i) at inverse column p_i, so row i of
        T is p_i (the columns of T are the rows of the inverse) and bit i of
        t is (s_0(p_i) - diag_i) / (m/2).  Code 0 has the diagonal as basis
        values, so s_0(x) is the diagonal weight of x plus (m/2) cross_pairs(x),
        read from ``cross_parity_table``.  An isometry's inverse is its adjoint
        F^-1 A^T F (F^-1 is one ``gf2.inverse`` per call), and one batch
        product A A^-1 = I checks every inverse at once.
        """
        if hasattr(isometries, "form"):
            if isometries.form != form:
                raise ValueError("generator and pairing differ")
            isometries = [isometries.rows]
        n, half = form.dim, cls.modulus // 2
        rows = np.asarray(isometries, dtype=np.uint32).reshape(len(isometries), n)
        # F and F^-1 are symmetric, so the transpose of the adjoint, whose rows are the preimages, is F A F^-1
        preimages = gf2.batch_mul(gf2.batch_mul(form.rows, rows), gf2.inverse(form.rows, n))
        inverse = gf2.batch_transpose(preimages, n)
        # preserving a nondegenerate pairing forces invertibility
        if (gf2.batch_mul(rows, inverse) != gf2.identity(n)).any():
            raise InvariantViolation("isometry inverse fails rows . inverse = identity")
        diagonal = np.array(form.diagonal, dtype=np.int64)
        weight = ((preimages[..., None] >> np.arange(n, dtype=np.uint32)) & 1) @ diagonal
        # s_0(p_i) - diag_i is even (p_i.p_i = diag_i), so reduced mod m its half is bit i of t
        bits = (weight - diagonal + half * cross_parity_table(form)[preimages]) % cls.modulus // half
        return inverse, (bits @ (1 << np.arange(n))).astype(np.uint32)

    @classmethod
    def enumerate_all(cls, form: IntersectionForm) -> list:
        """All 2**n structures on the pairing, in code order."""
        check_dim(form.dim, MAX_TABLE_DIM, f"{cls.__name__.lower()} enumeration")
        return [cls.from_code(form, code) for code in range(1 << form.dim)]

    @classmethod
    def gauss_sums(cls, form: IntersectionForm) -> np.ndarray:
        """Gauss sums over all classes of exp(2 pi i s(x) / m), for every code s at once.

        Code c is code 0 plus (m/2)(c.x), which multiplies each term by
        (-1)**(c.x), so the sums are one Walsh-Hadamard transform of code 0's
        terms.  Rows are the real and imaginary parts (the real part alone for
        m = 2, where the terms are +-1); column c belongs to code c.
        """
        check_dim(form.dim, MAX_TABLE_DIM, f"{cls.__name__.lower()} enumeration")
        quarter_turns = cls.from_code(form, 0).values_on_all() * (4 // cls.modulus)
        return walsh_hadamard(_QUARTER_TURNS[: cls.modulus // 2, quarter_turns])

    @property
    def code(self) -> int:
        half = self.modulus // 2
        return sum((v - d) // half << i for i, (v, d) in enumerate(zip(self.values, self.form.diagonal)))

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
        vals = np.asarray(values, dtype=np.uint8).reshape(len(values), n)
        table = np.empty((len(vals), 1 << n), dtype=np.uint8)
        table[:, 0] = 0
        for i in range(n):
            np.add(table[:, : 1 << i], vals[:, i, None], out=table[:, 1 << i : 2 << i])
        table += cls.modulus // 2 * cross
        # the modulus is 2 or 4, so masking reduces it (much faster than % on large arrays)
        table &= cls.modulus - 1
        return table

    def __call__(self, x: H1Class | int) -> int:
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

    def standard_basis_values(self) -> list[int]:
        """s on each vector of ``standard_basis(form)``, from the cached ``standard_basis_terms``.

        Each value is the sum of the basis values at the vector's set bits
        plus (m/2) times its cross term, mod m: the quadratic identity,
        without a table over the 2**n classes.
        """
        values, half = self.values, self.modulus // 2
        out = []
        for bits, cross in standard_basis_terms(self.form):
            total = half * cross
            for i in bits:
                total += values[i]
            out.append(total % self.modulus)
        return out

    def values_on_all(self) -> np.ndarray:
        """Values on all 2**n classes, indexed by integer encoding: ``value_table`` on a batch of one."""
        return self.value_table(self.form, [self.values])[0]
