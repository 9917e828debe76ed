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


def commute_materialize(basis, coeffs):
    """Evaluate ``sum_j coeffs[j-1] * basis**j`` (powers start at 1).

    Any two matrices of this form built from the same ``basis`` commute,
    which is what makes the multi-party masking order-independent. The
    polynomial deliberately has no constant term. Evaluation uses Horner's
    scheme: d matrix products for a degree-d key.
    """
    basis = np.asarray(basis, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise DimMismatch(f"basis must be square, got {basis.shape}")
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise DimMismatch("coeffs must be a non-empty vector")
    eye = np.eye(basis.shape[0])
    acc = coeffs[-1] * eye
    for c in coeffs[-2::-1]:
        acc = c * eye + basis @ acc
    return basis @ acc


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


#: Fewest full blocks a mask draws with the reflector kernel
#: (``_haar_reflectors``); shorter masks take one batched QR, whose fixed
#: cost per call loses less to the other agency threads.
REFLECTOR_MIN_BLOCKS = 256

#: Most elements in one chunk of the reflector kernel's ``(bs, bs, chunk)``
#: product (1 MB); the draw's other temporaries scale with it.
REFLECTOR_CHUNK = 2**17


def _haar_reflectors(nb, bs, rng):
    """``nb`` Haar ``(bs, bs)`` blocks, each a product of Householder
    reflectors of fresh Gaussian vectors.

    Block by block, the stream gives ``x_j ~ N(0, I_{bs-j})`` for
    ``j = 0 … bs-2`` and then one scalar: ``bs(bs+1)/2`` normals. With
    ``u_j = x_j + sign(x_j0)·‖x_j‖·e₀`` and ``H_j = I - 2·u_j·u_jᵀ/u_jᵀu_j``,
    the block is ``Q = H₀·diag(1, H₁)⋯diag(I, H_{bs-2})·D``, with
    ``D_jj = -sign(x_j0)`` and a last entry of sign(scalar). That is the
    law of the sign-fixed Householder QR of a Gaussian matrix (``_haar``):
    after j reflectors, column j's trailing part is again a fresh
    ``N(0, I_{bs-j})`` vector, so Q is exactly Haar. The reflectors are
    applied to all blocks of a chunk at once, with the block index
    innermost, and no LAPACK call per block.
    """
    starts = np.concatenate(([0], np.cumsum(np.arange(bs, 1, -1))))
    idx = np.arange(bs)
    out = np.empty((nb, bs, bs))
    chunk = max(1, REFLECTOR_CHUNK // (bs * bs))
    for start in range(0, nb, chunk):
        stop = min(start + chunk, nb)
        x = np.ascontiguousarray(
            rng.standard_normal((stop - start, starts[-1] + 1)).T
        )
        lead = x[starts]
        sign = np.where(lead >= 0.0, 1.0, -1.0)
        norm = np.sqrt(np.add.reduceat(x * x, starts, axis=0))[:-1]
        x[starts[:-1]] += sign[:-1] * norm  # x becomes the stacked u_j
        tau = 1.0 / (norm * (norm + np.abs(lead[:-1])))  # 2 / u_jᵀu_j
        q = np.zeros((bs, bs, stop - start))
        q[idx, idx] = -sign
        q[-1, -1] = sign[-1]
        for j in range(bs - 2, -1, -1):
            seg = slice(starts[j], starts[j + 1])
            trail = q[j:, j:]
            w = np.einsum("ac,abc->bc", x[seg], trail)  # u_jᵀ·trail
            w *= tau[j]
            trail -= x[seg, np.newaxis] * w
        out[start:stop] = q.transpose(2, 0, 1)
    return out


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

    def apply(self, m):
        """Left-multiply the ``(n_rows, p)`` matrix ``m`` by the mask."""
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != self.n_rows:
            raise DimMismatch(
                f"matrix has shape {m.shape}, blocks cover {self.n_rows} rows"
            )
        nb, bs, _ = self.full.shape
        cut = nb * bs
        p = m.shape[1]
        out = np.empty(m.shape)
        np.matmul(self.full, m[:cut].reshape(nb, bs, p),
                  out=out[:cut].reshape(nb, bs, p))
        if self.tail is not None:
            np.matmul(self.tail, m[cut:], out=out[cut:])
        return out

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

    The full blocks come first from the stream, then the tail. A mask of
    fewer than ``REFLECTOR_MIN_BLOCKS`` full blocks draws them by one
    batched QR, so it equals the sequence of ``random_orthogonal`` draws
    of each block's size. A longer mask draws its full blocks with the
    reflector kernel, which reads ``bs(bs+1)/2`` normals per block: the
    same Haar law from another stream layout.
    """
    split_block_sizes(n_rows, block_size)  # raises DimMismatch on bad sizes
    nb, rem = divmod(n_rows, block_size)
    if nb >= REFLECTOR_MIN_BLOCKS:
        full = _haar_reflectors(nb, block_size, rng)
    else:
        full = _haar(rng.standard_normal((nb, block_size, block_size)))
    tail = random_orthogonal(rem, rng) if rem else None
    return OrthoBlocks(full=full, tail=tail)
