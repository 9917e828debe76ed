"""Tests for the dense linear-algebra building blocks."""

import numpy as np
import pytest

from maskreg.attacks import poly_key
from maskreg.errors import DimMismatch, NotPD
from maskreg.keygen import derive_bases
from maskreg.matrix_core import (
    random_ortho_blocks,
    random_orthogonal,
    solve_spd,
    split_block_sizes,
)


def test_random_orthogonal_is_orthogonal():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 5, 17):
        q = random_orthogonal(dim, rng)
        assert q.shape == (dim, dim)
        np.testing.assert_allclose(q.T @ q, np.eye(dim), atol=1e-12)


def test_random_orthogonal_deterministic():
    a = random_orthogonal(6, np.random.default_rng(42))
    b = random_orthogonal(6, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_random_orthogonal_covers_both_determinant_signs():
    # Haar-distributed draws hit det -1 about half the time; a QR without
    # the sign fix would not be Haar but could still produce both signs,
    # so this is only a smoke check on variety.
    rng = np.random.default_rng(3)
    dets = {round(float(np.linalg.det(random_orthogonal(4, rng)))) for _ in range(50)}
    assert dets == {-1, 1}


def test_materialize_matches_power_sum():
    rng = np.random.default_rng(2)
    basis = derive_bases(2, 5).b_basis
    coeffs = rng.normal(size=4)
    direct = sum(
        c * np.linalg.matrix_power(basis, m + 1) for m, c in enumerate(coeffs)
    )
    np.testing.assert_allclose(
        poly_key(basis, coeffs), direct, atol=1e-12
    )


def test_materialize_has_no_constant_term():
    # every key is a polynomial with zero constant term, so zero
    # coefficients give the zero matrix, not the identity
    basis = derive_bases(3, 4).b_basis
    out = poly_key(basis, np.zeros(3))
    assert np.all(out == 0.0)


def test_materialize_degree_one():
    basis = derive_bases(4, 3).b_basis
    np.testing.assert_allclose(poly_key(basis, [2.5]), 2.5 * basis)


def test_materialized_keys_commute():
    rng = np.random.default_rng(5)
    basis = derive_bases(5, 6).b_basis
    k1 = poly_key(basis, rng.normal(size=5))
    k2 = poly_key(basis, rng.normal(size=5))
    np.testing.assert_allclose(k1 @ k2, k2 @ k1, atol=1e-12)


def test_materialize_reference_instance():
    # fixed worked example: cubic key from a 3x3 base, both matrices known
    # to four decimals
    base = np.array([[-0.626, 1.595, 0.487],
                     [0.184, 0.330, 0.738],
                     [-0.836, -0.820, 0.576]])
    expected = np.array([[-2.3281, 14.0767, 3.9291],
                         [1.7723, 6.0984, 6.2113],
                         [-7.2310, -6.5806, 8.3587]])
    key = poly_key(base, [8.0, 0.3, -2.0])
    np.testing.assert_allclose(key, expected, atol=1e-3)


def test_solve_spd_matches_dense_solve():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((8, 5))
    gram = a.T @ a + 0.1 * np.eye(5)
    rhs = rng.standard_normal((5, 3))
    np.testing.assert_allclose(
        solve_spd(gram, rhs), np.linalg.solve(gram, rhs), atol=1e-10
    )


def test_solve_spd_rejects_indefinite():
    gram = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(NotPD):
        solve_spd(gram, np.ones(2))


def test_split_block_sizes():
    assert split_block_sizes(10, 4) == [4, 4, 2]
    assert split_block_sizes(8, 4) == [4, 4]
    assert split_block_sizes(3, 16) == [3]
    assert split_block_sizes(1, 1) == [1]


# (n_rows, block_size): a multiple of the block size, a remainder, 255
# full blocks and a tail, and fewer rows than one block.
ORTHO_SHAPES = [(12, 4), (11, 4), (1023, 4), (5, 16)]


@pytest.mark.parametrize("n_rows,block_size", ORTHO_SHAPES)
def test_ortho_blocks_equal_per_block_draws(n_rows, block_size):
    # the batched draw consumes the stream exactly as one random_orthogonal
    # call per block, in row order, so masks are bit-identical to it
    blocks = random_ortho_blocks(n_rows, block_size,
                                 np.random.default_rng(11))
    rng = np.random.default_rng(11)
    expected = [random_orthogonal(s, rng)
                for s in split_block_sizes(n_rows, block_size)]
    assert len(blocks.blocks) == len(expected) == len(blocks.ranges())
    for got, want in zip(blocks.blocks, expected):
        assert np.array_equal(got, want)
    assert blocks.n_rows == n_rows


@pytest.mark.parametrize("bs", [1, 2, 5, 16])
def test_mask_blocks_have_haar_moments(bs):
    # For Haar Q in O(bs): E tr Q = 0, E (tr Q)^2 = 1, E tr(Q^2) = 1 and
    # P(det Q = +1) = 1/2, for every bs >= 1; each within 5 sigma
    q = random_ortho_blocks(20_400 * bs, bs, np.random.default_rng(bs)).full
    assert q.shape == (20_400, bs, bs)
    tr = np.trace(q, axis1=1, axis2=2)
    samples = {
        "tr Q": (tr, 0.0),
        "(tr Q)^2": (tr ** 2, 1.0),
        "tr Q^2": (np.trace(q @ q, axis1=1, axis2=2), 1.0),
        "det = +1": (np.linalg.det(q) > 0.0, 0.5),
    }
    for name, (sample, target) in samples.items():
        sigma = np.std(sample) / np.sqrt(sample.size)
        assert abs(np.mean(sample) - target) <= 5.0 * sigma, name


def test_qr_mask_blocks_are_orthogonal():
    # 100,000 blocks of the shipped block size, in masks of 2,000 blocks
    bs = 16
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        q = random_ortho_blocks(2_000 * bs, bs, rng).full
        gram = np.matmul(q.transpose(0, 2, 1), q) - np.eye(bs)
        worst = max(worst, np.linalg.norm(gram, axis=(1, 2)).max())
    assert worst <= 1e-13


def test_ortho_blocks_apply_matches_materialized():
    rng = np.random.default_rng(7)
    blocks = random_ortho_blocks(11, 4, rng)
    assert [b.shape[0] for b in blocks.blocks] == [4, 4, 3]
    for n_rows, block_size in ORTHO_SHAPES:
        blocks = random_ortho_blocks(n_rows, block_size, rng)
        m = rng.standard_normal((n_rows, 3))
        np.testing.assert_allclose(
            blocks.apply(m), blocks.materialize() @ m, atol=1e-12
        )


def test_ortho_blocks_ranges_partition_rows():
    blocks = random_ortho_blocks(10, 3, np.random.default_rng(8))
    ranges = blocks.ranges()
    assert ranges[0][0] == 0 and ranges[-1][1] == 10
    for (a, b), (c, d) in zip(ranges, ranges[1:]):
        assert b == c


def test_ortho_blocks_rejects_wrong_row_count():
    blocks = random_ortho_blocks(10, 4, np.random.default_rng(9))
    with pytest.raises(DimMismatch):
        blocks.apply(np.zeros((9, 2)))


def test_ortho_blocks_materialized_is_orthogonal():
    blocks = random_ortho_blocks(9, 4, np.random.default_rng(10))
    a = blocks.materialize()
    np.testing.assert_allclose(a.T @ a, np.eye(9), atol=1e-12)
