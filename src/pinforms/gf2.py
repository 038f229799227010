"""Bit-packed linear algebra over GF(2).

A matrix is a tuple of row masks: bit j of ``rows[i]`` holds entry (i, j).
A vector is a single int: bit i holds coordinate i.  A batch of matrices
is an unsigned array of row masks whose last axis holds the rows
(``batch_mul``, ``batch_transpose``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def dot(x: int, y: int) -> int:
    """Parity of the coordinatewise product of two bit vectors."""
    return (x & y).bit_count() & 1


def identity(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n))


def mat_vec(rows: Sequence[int], x: int) -> int:
    """Matrix times column vector."""
    y = 0
    for i, row in enumerate(rows):
        if (row & x).bit_count() & 1:
            y |= 1 << i
    return y


def mat_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Matrix product; row i of the result is the GF(2) sum of the rows of b picked by row i of a."""
    out = []
    for row in a:
        acc = 0
        rem = row
        while rem:
            j = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            acc ^= b[j]
        out.append(acc)
    return tuple(out)


def _rows_first(a) -> np.ndarray:
    """A batch of (..., m) row masks as a contiguous (m, ...) unsigned array: one vector over the batch per row index.

    An unsigned array keeps its width, anything else becomes uint32.  The
    batch kernels work in this layout and return views of it, so a chain of
    them copies nothing.
    """
    a = np.asarray(a)
    if a.dtype.kind != "u":
        a = a.astype(np.uint32)
    return np.ascontiguousarray(a.transpose(-1, *range(a.ndim - 1)))


def _rows_last(out: np.ndarray) -> np.ndarray:
    """The (..., m) view of a rows-first (m, ...) array, as the batch kernels return it."""
    return out.transpose(*range(1, out.ndim), 0)


def batch_mul(a, b) -> np.ndarray:
    """Matrix products over a batch of (..., n) row masks, broadcast over the leading axes.

    Row i of a product is the xor of the rows of b picked by row i of a, as
    in ``mat_mul``: every bit j of every row of a times row j of b, in one
    block, xor-reduced over j, so the number of vector operations does not
    grow with n.  A tuple of rows broadcasts as a single uint32 matrix;
    unsigned arrays keep their width, so narrow rows cost less memory.
    """
    rows, picked = _rows_first(a), _rows_first(b)
    lead = max(rows.ndim, picked.ndim) - 1
    rows = rows.reshape(rows.shape[:1] + (1,) * (lead + 1 - rows.ndim) + rows.shape[1:])
    picked = picked.reshape(picked.shape[:1] + (1,) * (lead + 2 - picked.ndim) + picked.shape[1:])
    shifts = np.arange(len(picked), dtype=rows.dtype).reshape((-1,) + (1,) * rows.ndim)
    return _rows_last(np.bitwise_xor.reduce(((rows >> shifts) & 1) * picked, axis=0))


def batch_transpose(a, n: int) -> np.ndarray:
    """Transposes over a batch of (..., m) row masks of n columns each, as (..., n) row masks of the same width."""
    rows = _rows_first(a)
    trailing = (1,) * (rows.ndim - 1)
    columns = np.arange(n, dtype=rows.dtype).reshape((n, 1) + trailing)
    places = np.arange(len(rows), dtype=rows.dtype).reshape((len(rows),) + trailing)
    return _rows_last(np.bitwise_or.reduce(((rows >> columns) & 1) << places, axis=1))


def transpose(rows: Sequence[int], n: int) -> tuple[int, ...]:
    cols = [0] * n
    for i, row in enumerate(rows):
        rem = row
        while rem:
            j = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            cols[j] |= 1 << i
    return tuple(cols)


def rank(rows: Sequence[int]) -> int:
    basis: dict[int, int] = {}
    for row in rows:
        cur = row
        while cur:
            lead = cur.bit_length() - 1
            if lead in basis:
                cur ^= basis[lead]
            else:
                basis[lead] = cur
                break
    return len(basis)


def inverse(rows: Sequence[int], n: int) -> tuple[int, ...] | None:
    """Inverse matrix, or None if singular."""
    a = list(rows)
    inv = list(identity(n))
    for col in range(n):
        piv = None
        for r in range(col, n):
            if (a[r] >> col) & 1:
                piv = r
                break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        for r in range(n):
            if r != col and ((a[r] >> col) & 1):
                a[r] ^= a[col]
                inv[r] ^= inv[col]
    return tuple(inv)
