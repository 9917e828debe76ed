"""Dense linear-algebra primitives underlying the masking scheme.

Every function is pure and takes an explicit ``numpy.random.Generator`` where
randomness is involved, so callers control determinism end to end.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotPD


def random_orthogonal(dim, rng):
    """Draw a random orthogonal matrix from the Haar distribution.

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
    return _haar(rng.standard_normal((dim, dim)))


def _haar(gaussian):
    """Haar-distributed orthogonal factor of each square Gaussian matrix.

    ``gaussian`` is one ``(d, d)`` matrix or a ``(..., d, d)`` stack.
    QR of a square Gaussian matrix alone does not give the Haar measure:
    the factorization is only unique up to the signs of the diagonal of
    ``R``. Multiplying each column of ``Q`` by the sign of the matching
    diagonal entry of ``R`` removes the bias. A stack is factored by one
    batched QR whose output equals per-matrix QR bit for bit, so a stack
    drawn in one call equals one ``random_orthogonal`` draw per matrix.
    """
    q, r = np.linalg.qr(gaussian)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= np.where(d >= 0.0, 1.0, -1.0)[..., np.newaxis, :]
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


def solve_spd(gram, rhs):
    """Solve ``gram @ x = rhs`` for symmetric positive definite ``gram``.

    Uses a Cholesky factorization; raises :class:`NotPD` when the
    factorization fails.
    """
    gram = np.asarray(gram, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise DimMismatch(f"gram must be square, got {gram.shape}")
    if rhs.shape[0] != gram.shape[0]:
        raise DimMismatch(
            f"rhs has {rhs.shape[0]} rows, expected {gram.shape[0]}"
        )
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise NotPD(f"gram matrix is not positive definite: {exc}") from exc
    return np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))


@dataclass(frozen=True)
class OrthoBlocks:
    """A block-diagonal orthogonal matrix stored as its diagonal blocks.

    The blocks partition the row range in order: ``full`` stacks the
    ``(nb, bs, bs)`` full-size blocks, and ``tail`` is the smaller trailing
    block, or ``None`` when the row count is a multiple of ``bs``.
    """

    full: np.ndarray
    tail: np.ndarray = None

    @property
    def blocks(self):
        """One ``(s, s)`` array per block, in row order."""
        tail = () if self.tail is None else (self.tail,)
        return tuple(self.full) + tail

    @property
    def n_rows(self):
        nb, bs, _ = self.full.shape
        return nb * bs + (0 if self.tail is None else self.tail.shape[0])

    def ranges(self):
        """Row range ``(start, stop)`` covered by each block."""
        nb, bs, _ = self.full.shape
        out = [(i * bs, (i + 1) * bs) for i in range(nb)]
        if self.tail is not None:
            out.append((nb * bs, self.n_rows))
        return tuple(out)

    def apply(self, m, key=None):
        """``Q·m·key`` for the ``(n_rows, p)`` matrix ``m``, where Q is the
        mask and ``key`` a ``(p, q)`` matrix (Q·m alone when None)."""
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != self.n_rows:
            raise DimMismatch(
                f"matrix has shape {m.shape}, blocks cover {self.n_rows} rows"
            )
        (nb, bs, _), p = self.full.shape, m.shape[1]
        head = np.matmul(self.full, m[:nb * bs].reshape(nb, bs, p))
        tail = () if self.tail is None else (self.tail @ m[nb * bs:],)
        qm = np.concatenate([head.reshape(nb * bs, p), *tail])
        return qm if key is None else qm @ key

    def materialize(self):
        """Dense ``(n_rows, n_rows)`` form; intended for tests and demos."""
        out = np.zeros((self.n_rows, self.n_rows))
        for (start, stop), block in zip(self.ranges(), self.blocks):
            out[start:stop, start:stop] = block
        return out


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


def random_ortho_blocks(n_rows, block_size, rng):
    """Draw a block-diagonal orthogonal mask covering ``n_rows`` rows.

    The full blocks come first from the stream, by one batched QR, then
    the tail, so the mask equals the sequence of ``random_orthogonal``
    draws of each block's size. No protocol step draws one: a mask whose
    blocks lie inside the folds leaves every fold's R factor unchanged
    (``protocol.shard_factors``).
    """
    split_block_sizes(n_rows, block_size)  # raises DimMismatch on bad sizes
    nb, rem = divmod(n_rows, block_size)
    full = _haar(rng.standard_normal((nb, block_size, block_size)))
    tail = random_orthogonal(rem, rng) if rem else None
    return OrthoBlocks(full=full, tail=tail)
