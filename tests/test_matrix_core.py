"""Tests for the dense linear-algebra building blocks."""

import numpy as np
import pytest

from maskreg import matrix_core
from maskreg.errors import DimMismatch, NotPD
from maskreg.keygen import derive_bases
from maskreg.matrix_core import (
    REFLECTOR_BLOCKS_PER_THREAD,
    commute_materialize,
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
        commute_materialize(basis, coeffs), direct, atol=1e-12
    )


def test_materialize_has_no_constant_term():
    # every key is a polynomial with zero constant term, so zero
    # coefficients give the zero matrix, not the identity
    basis = derive_bases(3, 4).b_basis
    out = commute_materialize(basis, np.zeros(3))
    assert np.all(out == 0.0)


def test_materialize_degree_one():
    basis = derive_bases(4, 3).b_basis
    np.testing.assert_allclose(commute_materialize(basis, [2.5]), 2.5 * basis)


def test_materialized_keys_commute():
    rng = np.random.default_rng(5)
    basis = derive_bases(5, 6).b_basis
    k1 = commute_materialize(basis, rng.normal(size=5))
    k2 = commute_materialize(basis, rng.normal(size=5))
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
    key = commute_materialize(base, [8.0, 0.3, -2.0])
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


# (n_rows, block_size): a multiple of the block size, a remainder, enough
# full blocks (257) for the reflector kernel at one thread, and fewer rows
# than one block.
ORTHO_SHAPES = [(12, 4), (11, 4), (1029, 4), (5, 16)]

C = REFLECTOR_BLOCKS_PER_THREAD

# Masks on the batched-QR path at 8 drawing threads, up to the longest:
# 255 full blocks and a tail.
QR_SHAPES = [(12, 4), (11, 4), (1023, 4), (5, 16)]


@pytest.mark.parametrize("n_rows,block_size", QR_SHAPES)
def test_ortho_blocks_equal_per_block_draws(n_rows, block_size):
    # below c·k full blocks the batched draw consumes the stream exactly as
    # one random_orthogonal call per block, in row order, so masks are
    # bit-identical to it
    blocks = random_ortho_blocks(n_rows, block_size,
                                 np.random.default_rng(11), 8)
    rng = np.random.default_rng(11)
    expected = [random_orthogonal(s, rng)
                for s in split_block_sizes(n_rows, block_size)]
    assert len(blocks.blocks) == len(expected) == len(blocks.ranges())
    for got, want in zip(blocks.blocks, expected):
        assert np.array_equal(got, want)
    assert blocks.n_rows == n_rows


@pytest.mark.parametrize("threads", [1, 4, 32])
@pytest.mark.parametrize("block_size, rem", [(4, 0), (4, 3), (16, 5)])
def test_mask_below_threshold_equals_per_block_draws(threads, block_size,
                                                      rem):
    # c·k − 1 full blocks, one short of the kernel at k drawing threads
    n_rows = (C * threads - 1) * block_size + rem
    blocks = random_ortho_blocks(n_rows, block_size,
                                 np.random.default_rng(11), threads)
    rng = np.random.default_rng(11)
    expected = [random_orthogonal(s, rng)
                for s in split_block_sizes(n_rows, block_size)]
    assert len(blocks.blocks) == len(expected)
    for got, want in zip(blocks.blocks, expected):
        assert np.array_equal(got, want)


def test_mask_path_switches_at_reflector_threshold():
    # At k drawing threads, c·k full blocks take the reflector kernel,
    # which reads bs(bs+1)/2 normals per block before the tail's draw,
    # and c·k − 1 take the batched QR
    assert C == 32
    bs, rem = 4, 3
    for threads in (1, 4, 32):
        nb = C * threads
        below = random_ortho_blocks((nb - 1) * bs + rem, bs,
                                    np.random.default_rng(5), threads)
        rng = np.random.default_rng(5)
        assert np.array_equal(below.full[0], random_orthogonal(bs, rng))

        at = random_ortho_blocks(nb * bs + rem, bs, np.random.default_rng(5),
                                 threads)
        rng = np.random.default_rng(5)
        assert np.array_equal(at.full,
                              matrix_core._haar_reflectors(nb, bs, rng))
        assert np.array_equal(at.tail, random_orthogonal(rem, rng))
        rng = np.random.default_rng(5)
        rng.standard_normal(nb * bs * (bs + 1) // 2)
        assert np.array_equal(at.tail, random_orthogonal(rem, rng))
        assert not np.allclose(at.full[:nb - 1], below.full)


#: Threads that put a mask of ``MOMENT_BLOCKS`` full blocks on each path:
#: c·8 − 1 blocks take the batched QR at 8 threads and the kernel at 7.
MOMENT_BLOCKS = C * 8 - 1
PATH_THREADS = {"qr": 8, "reflector": 7}


def _draw_full_blocks(path, bs, total, seed):
    """``total`` full blocks from masks of ``MOMENT_BLOCKS`` blocks each,
    drawn from one stream on the named side of the threshold."""
    rng = np.random.default_rng(seed)
    return np.concatenate([
        random_ortho_blocks(MOMENT_BLOCKS * bs, bs, rng,
                            PATH_THREADS[path]).full
        for _ in range(total // MOMENT_BLOCKS)
    ])


@pytest.mark.parametrize("bs", [1, 2, 5, 16])
@pytest.mark.parametrize("path", ["qr", "reflector"])
def test_mask_blocks_have_haar_moments(path, bs):
    # For Haar Q in O(bs): E tr Q = 0, E (tr Q)^2 = 1, E tr(Q^2) = 1 and
    # P(det Q = +1) = 1/2, for every bs >= 1; each within 5 sigma
    q = _draw_full_blocks(path, bs, 20_400, seed=bs)
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


def _worst_orthogonality(threads):
    # 100,000 blocks of the shipped block size, in masks of 2,000 blocks
    bs = 16
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        q = random_ortho_blocks(2_000 * bs, bs, rng, threads).full
        gram = np.matmul(q.transpose(0, 2, 1), q) - np.eye(bs)
        worst = max(worst, np.linalg.norm(gram, axis=(1, 2)).max())
    return worst


def test_reflector_blocks_are_orthogonal():
    assert _worst_orthogonality(1) <= 1e-13


def test_qr_mask_blocks_are_orthogonal():
    # the same masks on the other side of the threshold: c·63 > 2,000
    assert _worst_orthogonality(63) <= 1e-13


def test_reflector_mask_is_chunk_invariant(monkeypatch):
    # 700 blocks span two default chunks; chunks of 7 blocks read the same
    # stream in the same block-major order, so they give the same mask
    bs = 16
    whole = random_ortho_blocks(700 * bs + 5, bs, np.random.default_rng(6), 1)
    assert 700 > matrix_core.REFLECTOR_CHUNK // bs ** 2
    monkeypatch.setattr(matrix_core, "REFLECTOR_CHUNK", 7 * bs * bs)
    chunked = random_ortho_blocks(700 * bs + 5, bs, np.random.default_rng(6),
                                  1)
    np.testing.assert_allclose(chunked.full, whole.full, rtol=0, atol=1e-14)
    assert np.array_equal(chunked.tail, whole.tail)


@pytest.mark.parametrize("bs", [1, 2])
def test_reflector_path_smallest_blocks(bs):
    blocks = random_ortho_blocks(300 * bs, bs, np.random.default_rng(13), 1)
    q = blocks.full
    assert q.shape == (300, bs, bs) and blocks.tail is None
    np.testing.assert_allclose(
        np.matmul(q.transpose(0, 2, 1), q), np.broadcast_to(np.eye(bs), q.shape),
        rtol=0, atol=1e-14,
    )
    dets = np.round(np.linalg.det(q))
    assert set(dets) == {-1.0, 1.0}
    if bs == 1:
        assert set(q.ravel()) == {-1.0, 1.0}
    m = np.random.default_rng(14).standard_normal((300 * bs, 2))
    np.testing.assert_allclose(blocks.apply(m), blocks.materialize() @ m,
                               atol=1e-12)


def test_ortho_blocks_apply_matches_materialized():
    rng = np.random.default_rng(7)
    blocks = random_ortho_blocks(11, 4, rng, 1)
    assert [b.shape[0] for b in blocks.blocks] == [4, 4, 3]
    for n_rows, block_size in ORTHO_SHAPES:
        blocks = random_ortho_blocks(n_rows, block_size, rng, 1)
        m = rng.standard_normal((n_rows, 3))
        np.testing.assert_allclose(
            blocks.apply(m), blocks.materialize() @ m, atol=1e-12
        )


@pytest.mark.parametrize("chunk", [1, 2**6, 2**15])
def test_chunked_apply_in_place_is_bit_identical(monkeypatch, chunk):
    # Q·m·key a chunk at a time, written over m, equals the batched
    # products over the whole mask bit for bit
    rng = np.random.default_rng(15)
    blocks = random_ortho_blocks(16 * 40 + 5, 16, rng, 1)
    m = rng.standard_normal((16 * 40 + 5, 6))
    key = rng.standard_normal((6, 6))
    qm = np.concatenate([
        np.matmul(blocks.full, m[:640].reshape(40, 16, 6)).reshape(640, 6),
        blocks.tail @ m[640:],
    ])
    want = np.concatenate([
        np.matmul(qm[:640].reshape(40, 16, 6), key).reshape(640, 6),
        qm[640:] @ key,
    ])
    monkeypatch.setattr(matrix_core, "APPLY_CHUNK", chunk)
    assert blocks.apply(m, key).tobytes() == want.tobytes()
    assert blocks.apply(m, key, out=m) is m
    assert m.tobytes() == want.tobytes()


def test_apply_rejects_an_out_of_the_wrong_shape():
    blocks = random_ortho_blocks(10, 4, np.random.default_rng(16), 1)
    m = np.zeros((10, 2))
    with pytest.raises(DimMismatch):
        blocks.apply(m, np.eye(2), out=np.zeros((10, 3)))
    with pytest.raises(DimMismatch):
        blocks.apply(m, np.eye(2), out=np.zeros((10, 4))[:, :2])


def test_ortho_blocks_ranges_partition_rows():
    blocks = random_ortho_blocks(10, 3, np.random.default_rng(8), 1)
    ranges = blocks.ranges()
    assert ranges[0][0] == 0 and ranges[-1][1] == 10
    for (a, b), (c, d) in zip(ranges, ranges[1:]):
        assert b == c


def test_ortho_blocks_rejects_wrong_row_count():
    blocks = random_ortho_blocks(10, 4, np.random.default_rng(9), 1)
    with pytest.raises(DimMismatch):
        blocks.apply(np.zeros((9, 2)))


def test_ortho_blocks_materialized_is_orthogonal():
    blocks = random_ortho_blocks(9, 4, np.random.default_rng(10), 1)
    a = blocks.materialize()
    np.testing.assert_allclose(a.T @ a, np.eye(9), atol=1e-12)
