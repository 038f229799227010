"""Bit-packed GF(2) linear algebra."""

import random

import numpy as np
import pytest

from pinforms import gf2


def dense(rows, n):
    return [[(rows[i] >> j) & 1 for j in range(n)] for i in range(len(rows))]


def from_dense(mat):
    return tuple(sum(v << j for j, v in enumerate(row)) for row in mat)


def test_dot_counts_overlap_parity():
    assert gf2.dot(0b101, 0b100) == 1
    assert gf2.dot(0b101, 0b101) == 0
    assert gf2.dot(0, 0b111) == 0


def test_identity():
    assert gf2.identity(3) == (0b001, 0b010, 0b100)
    assert gf2.mat_vec(gf2.identity(5), 0b10110) == 0b10110


def test_mat_vec_small_example():
    # rows of [[1,1],[0,1]]: x -> (x0+x1, x1)
    rows = from_dense([[1, 1], [0, 1]])
    assert gf2.mat_vec(rows, 0b01) == 0b01
    assert gf2.mat_vec(rows, 0b10) == 0b11
    assert gf2.mat_vec(rows, 0b11) == 0b10


def test_mat_mul_agrees_with_dense_arithmetic():
    rng = random.Random(2024)
    n = 5
    for _ in range(40):
        a = tuple(rng.randrange(1 << n) for _ in range(n))
        b = tuple(rng.randrange(1 << n) for _ in range(n))
        ab = gf2.mat_mul(a, b)
        da, db = dense(a, n), dense(b, n)
        expect = [
            [sum(da[i][k] * db[k][j] for k in range(n)) % 2 for j in range(n)]
            for i in range(n)
        ]
        assert dense(ab, n) == expect


def test_transpose_involution():
    rng = random.Random(7)
    for n in (1, 3, 6):
        rows = tuple(rng.randrange(1 << n) for _ in range(n))
        assert gf2.transpose(gf2.transpose(rows, n), n) == rows


def test_rank_and_inverse():
    assert gf2.rank(gf2.identity(4)) == 4
    assert gf2.rank((0b11, 0b11)) == 1
    assert gf2.inverse((0b11, 0b11), 2) is None

    rows = from_dense([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    inv = gf2.inverse(rows, 3)
    assert inv is not None
    assert gf2.mat_mul(rows, inv) == gf2.identity(3)
    assert gf2.mat_mul(inv, rows) == gf2.identity(3)


def test_inverse_of_random_invertible_matrices():
    rng = random.Random(99)
    n = 6
    found = 0
    while found < 25:
        rows = tuple(rng.randrange(1 << n) for _ in range(n))
        inv = gf2.inverse(rows, n)
        if inv is None:
            assert gf2.rank(rows) < n
            continue
        found += 1
        assert gf2.mat_mul(rows, inv) == gf2.identity(n)


def test_mat_vec_linear():
    rng = random.Random(5)
    n = 8
    rows = tuple(rng.randrange(1 << n) for _ in range(n))
    for _ in range(30):
        x, y = rng.randrange(1 << n), rng.randrange(1 << n)
        assert gf2.mat_vec(rows, x ^ y) == gf2.mat_vec(rows, x) ^ gf2.mat_vec(rows, y)


def _random_batch(rng, shape, n):
    return np.array([rng.randrange(1 << n) for _ in range(int(np.prod(shape)) * n)], dtype=np.uint32).reshape(*shape, n)


@pytest.mark.parametrize("n", [0, 1, 2, 4, 5, 8])
def test_batch_mul_is_mat_mul_on_every_matrix(n):
    rng = random.Random(300 + n)
    a, b = _random_batch(rng, (3, 7), n), _random_batch(rng, (3, 7), n)
    single = tuple(rng.randrange(1 << n) for _ in range(n))
    products = gf2.batch_mul(a, b)
    assert products.shape == (3, 7, n) and products.dtype == np.uint32
    # a tuple broadcasts as one matrix, on either side
    left, right = gf2.batch_mul(single, b), gf2.batch_mul(a, single)
    # leading axes broadcast: matrix a[i, j] against every matrix b[i, k]
    outer = gf2.batch_mul(a[:, :, None], b[:, None, :])
    for i in range(3):
        for j in range(7):
            x, y = tuple(a[i, j].tolist()), tuple(b[i, j].tolist())
            assert tuple(products[i, j].tolist()) == gf2.mat_mul(x, y)
            assert tuple(left[i, j].tolist()) == gf2.mat_mul(single, y)
            assert tuple(right[i, j].tolist()) == gf2.mat_mul(x, single)
            for k in range(7):
                assert tuple(outer[i, j, k].tolist()) == gf2.mat_mul(x, tuple(b[i, k].tolist()))


@pytest.mark.parametrize("n", [0, 1, 3, 6, 8])
def test_batch_transpose_is_transpose_on_every_matrix(n):
    rng = random.Random(400 + n)
    a = _random_batch(rng, (2, 9), n)
    transposed = gf2.batch_transpose(a, n)
    assert transposed.shape == a.shape
    for i in range(2):
        for j in range(9):
            assert tuple(transposed[i, j].tolist()) == gf2.transpose(tuple(a[i, j].tolist()), n)


def test_batch_kernels_keep_a_narrow_unsigned_width():
    rng = random.Random(11)
    a = _random_batch(rng, (5,), 8).astype(np.uint8)
    b = _random_batch(rng, (5,), 8).astype(np.uint8)
    assert gf2.batch_mul(a, b).dtype == np.uint8
    assert gf2.batch_transpose(a, 8).dtype == np.uint8
    wide = gf2.batch_mul(a.astype(np.uint32), b.astype(np.uint32))
    assert np.array_equal(gf2.batch_mul(a, b), wide)
    assert np.array_equal(gf2.batch_transpose(a, 8), gf2.batch_transpose(a.astype(np.uint32), 8))
