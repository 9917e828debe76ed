"""Dense linear-algebra primitives underlying the masking scheme.

Every function is pure and takes an explicit ``numpy.random.Generator`` where
randomness is involved, so callers control determinism end to end.
"""

import numpy as np

from .errors import DimMismatch


def random_orthogonal(dim, rng):
    """Draw a random orthogonal matrix from the Haar distribution.

    QR of a square Gaussian matrix alone does not give the Haar measure:
    the factorization is only unique up to the signs of the diagonal of
    ``R``. Multiplying each column of ``Q`` by the sign of the matching
    diagonal entry of ``R`` removes the bias.

    Parameters
    ----------
    dim : int
        Size of the matrix.
    rng : numpy.random.Generator
        Source of randomness.

    Returns
    -------
    (dim, dim) ndarray
        Orthogonal matrix ``Q`` with ``Q.T @ Q == I`` to machine precision.
    """
    if dim < 1:
        raise DimMismatch(f"orthogonal dimension must be >= 1, got {dim}")
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q *= np.where(np.diagonal(r) >= 0.0, 1.0, -1.0)
    return q


def random_well_conditioned(dim, rng):
    """``V = Q₁·diag(s)·Q₂`` and its inverse, cond(V) ≤ 2.

    ``Q₁`` and ``Q₂`` are Haar and ``s ~ U[1, 2]``, so the singular values
    of ``V`` are ``s`` and ``V⁻¹ = Q₂ᵀ·diag(1/s)·Q₁ᵀ`` needs no solve.
    """
    q1 = random_orthogonal(dim, rng)
    q2 = random_orthogonal(dim, rng)
    s = rng.uniform(1.0, 2.0, dim)
    return (q1 * s) @ q2, (q2.T / s) @ q1.T


def split_block_sizes(n_rows, block_size):
    """Block sizes used to cover ``n_rows`` rows: full blocks, then remainder."""
    if n_rows < 1:
        raise DimMismatch(f"need at least one row, got {n_rows}")
    if block_size < 1:
        raise DimMismatch(f"block size must be >= 1, got {block_size}")
    sizes = [block_size] * (n_rows // block_size)
    if n_rows % block_size:
        sizes.append(n_rows % block_size)
    return sizes


class OrthoBlocks:
    """No protocol step applies a row mask: a shard travels as the R
    factors of its folds, which a mask inside the folds leaves unchanged."""

    # perfbench/spans.py:130 wraps OrthoBlocks.apply (ROADMAP direction 2)
    def apply(self, *args, **kwargs):
        raise NotImplementedError("no protocol step applies a row mask")
