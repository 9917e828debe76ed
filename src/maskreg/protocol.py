"""Protocol state and the single-step operations agencies perform.

The data flow for K agencies, a coordinating cloud and feature matrices
X_1..X_K (row-partitioned across agencies):

1. every agency encrypts its own shard: rows are mixed by a private
   block-diagonal orthogonal mask, columns by its commuting feature key;
   the three-column response bundle is masked the same way with the
   response key. The row mask is drawn from the agency's stream for that
   origin right before it is applied, and dropped right after;
2. shards travel around a ring so every *other* agency stacks its own
   masks on top, each drawing its row mask for that origin the same way;
   the completed shards go to the cloud. A shard is the
   :class:`~maskreg.transport.Frame` that carries it: origin, the ids
   that masked it (its round is their count) and (X*, Y*);
3. the cloud solves least squares by QR on the masked data: it takes the
   R factor of the stacked masked matrix [X* | Y*] and back-substitutes,
   and gets a masked estimate;
4. the masked estimate travels one decryption round per agency; what
   comes out is the plaintext estimate for all three response columns;
5. the cloud checks the verification column of an estimate that came
   back through every agency: all ones for a linear fit, all zeros for a
   ridge fit. Any deviation beyond tolerance means some step was
   corrupted.

Orchestration across a transport lives in :mod:`maskreg.runner`; functions
here are pure single steps so they can be tested (and attacked) directly.
"""

from dataclasses import dataclass

import numpy as np

from . import keygen
from .errors import (
    DimMismatch,
    DuplicatePass,
    ProtocolOrderViolation,
    SingularResult,
)
from .matrix_core import solve_spd, split_block_sizes  # noqa: F401
from .transport import MSG_SHARD, Frame

# ``solve_spd`` is no longer called here; perfbench/spans.py still wraps the
# name ``protocol.solve_spd``, so it stays importable from this module.

MODES = ("linear", "ridge")

#: Recognized tamper actions; "honest" is the no-op baseline.
TAMPER_ACTIONS = (
    "honest",
    "skip_pseudo_response",
    "non_commutative_key",
    "perturb_result",
    "wrong_decrypt",
)

#: Default max-norm tolerance when checking the verification column.
VERIFY_TOL = 1e-6

#: Rows per block in each level of :func:`r_factor`; 2q for wider q columns.
TSQR_ROWS = 256

#: A diagonal entry of R_xx at or below this fraction of the largest one
#: marks the masked design as numerically singular.
SINGULAR_RTOL = 1e-14


@dataclass(frozen=True)
class TamperPlan:
    """One deliberate protocol violation to inject into a run.

    action: which contract to break (see TAMPER_ACTIONS);
    agency: 1-based id of the misbehaving agency (ignored for
        ``perturb_result``, which is a cloud-side deviation);
    magnitude: size of the additive corruption for ``perturb_result``.
    """

    action: str = "honest"
    agency: int = 1
    magnitude: float = 0.01

    def __post_init__(self):
        if self.action not in TAMPER_ACTIONS:
            raise ValueError(f"unknown tamper action {self.action!r}")


@dataclass
class EncryptedAggregate:
    """Everything the cloud sees: stacked masked shards plus row layout.

    ``z_star`` is the one (n, p + 3) array [X* | Y*]; ``x_star`` is a
    view of its feature columns. ``key_factor`` is the released R_B of
    the stacked feature keys (ridge only). ``z_factor``, once set, is the
    R factor of ``z_star``, which the cloud already holds (encrypted CV
    builds it from the fold factors), so a fit on all rows skips the rows.
    """

    z_star: np.ndarray
    origin_rows: tuple
    block_ranges: tuple
    key_factor: np.ndarray = None
    z_factor: np.ndarray = None

    @property
    def x_star(self):
        return self.z_star[:, :-3]


@dataclass
class EstimateMatrix:
    """(p, 3) estimate for [response, verification, decoy] columns."""

    values: np.ndarray


@dataclass(frozen=True)
class VerifyReport:
    verdict: str
    max_deviation: float
    tolerance: float

    @property
    def accepted(self):
        return self.verdict == "accepted"


class AgencyContext:
    """One agency's private state for a protocol run."""

    def __init__(self, agency_id, x, y, keys, bases, mode, rng, delta=None):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.agency_id = agency_id
        self.x = np.asarray(x, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        if self.x.ndim != 2 or self.y.shape != (self.x.shape[0],):
            raise DimMismatch(
                f"agency {agency_id}: x {self.x.shape} / y {self.y.shape}"
            )
        self.keys = keys
        self.bases = bases
        self.mode = mode
        self.rng = rng
        self.delta = delta
        self.responses = keygen.make_responses(self.x, self.y, mode, rng,
                                               delta=delta)

    @property
    def n_rows(self):
        return self.x.shape[0]

    @property
    def num_agencies(self):
        return len(self.keys.row_counts)


def _mask_shard(ctx, origin, applied, x, y):
    """The shard frame of (A·x·B, A·y·C), with this agency's keys and its
    row mask A for ``origin``, which is drawn here and dropped on return;
    ``applied`` gains this agency's id."""
    keys = ctx.keys
    rng = keys.mask_rng(origin)
    n_rows = keys.row_counts[origin - 1]
    if n_rows != x.shape[0]:
        raise DimMismatch(
            f"agency {ctx.agency_id} mask covers {n_rows} rows, "
            f"shard {origin} has {x.shape[0]}"
        )
    blocks = keygen.random_ortho_blocks(n_rows, keys.block_size, rng)
    applied = applied + (ctx.agency_id,)
    return Frame(MSG_SHARD, origin, len(applied), applied,
                 (_mask_rows(blocks, x, keys.b_key),
                  _mask_rows(blocks, y, keys.c_key)))


def _mask_rows(blocks, m, key):
    """``blocks·m·key``; the key multiplies each row block in one batched
    product, so no GEMM is tall enough for BLAS to split across threads
    that would compete with the other agencies' threads (DECISIONS.md, "No
    BLAS call on an op's path is large enough to thread")."""
    a = blocks.apply(m)
    nb, bs, _ = blocks.full.shape
    cut = nb * bs
    q = key.shape[1]
    out = np.empty((a.shape[0], q))
    np.matmul(a[:cut].reshape(nb, bs, a.shape[1]), key,
              out=out[:cut].reshape(nb, bs, q))
    np.matmul(a[cut:], key, out=out[cut:])
    return out


def local_encrypt(ctx):
    """First masking step an origin applies to its own shard; returns the
    shard's frame, round 1."""
    shifted = ctx.x if ctx.delta is None else ctx.x + ctx.delta
    return _mask_shard(ctx, ctx.agency_id, (), shifted, ctx.responses)


def pass_encrypt(ctx, shard):
    """Stack this agency's masks onto a shard frame passing through the
    ring; returns the next frame, one round on."""
    if ctx.agency_id in shard.applied:
        raise DuplicatePass(
            f"agency {ctx.agency_id} already masked shard {shard.origin}"
        )
    return _mask_shard(ctx, shard.origin, shard.applied, *shard.matrices)


def assemble_aggregate(shards, num_agencies, block_size):
    """Stack completed shard frames (in origin order) into the cloud's
    view."""
    by_origin = {s.origin: s for s in shards}
    if sorted(by_origin) != list(range(1, num_agencies + 1)):
        raise ProtocolOrderViolation(
            f"expected one shard per agency 1..{num_agencies}, "
            f"got origins {sorted(by_origin)}"
        )
    for s in shards:
        if len(s.applied) != num_agencies:
            raise ProtocolOrderViolation(
                f"shard {s.origin} was masked by {len(s.applied)} of "
                f"{num_agencies} agencies"
            )
    p = shards[0].matrices[0].shape[1]
    n_total = sum(s.matrices[0].shape[0] for s in shards)
    z_star = np.empty((n_total, p + 3))
    origin_rows, block_ranges = [], []
    offset = 0
    for origin in range(1, num_agencies + 1):
        x_star, y_star = by_origin[origin].matrices
        n = x_star.shape[0]
        z_star[offset:offset + n, :p] = x_star
        z_star[offset:offset + n, p:] = y_star
        origin_rows.append((offset, offset + n))
        for size in split_block_sizes(n, block_size):
            block_ranges.append((offset, offset + size))
            offset += size
    return EncryptedAggregate(
        z_star=z_star,
        origin_rows=tuple(origin_rows),
        block_ranges=tuple(block_ranges),
    )


def r_factor(a):
    """The (q, q) upper-triangular R of ``a = QR``, with a diagonal >= 0.

    RᵀR = aᵀa, so R is all a least-squares fit on the rows of ``a`` needs,
    and the R factors of row blocks stack: the R of their vertical stack is
    the R of the stacked rows. This is the full TSQR tree (Demmel, Grigori,
    Hoemmen & Langou, SIAM J. Sci. Comput. 2012): each level factors every
    block of ``max(TSQR_ROWS, 2q)`` rows in one batched QR and keeps their
    stacked factors and the leftover rows, until one block's worth is left
    for the last QR. A block of at least 2q rows at least halves the rows a
    level passes on, so the tree stays O(log n) deep at any width. No QR
    sees more than one block, so for narrow ``a`` none is large enough for
    BLAS to thread (DECISIONS.md, "No BLAS call on an op's path is large
    enough to thread").
    """
    a = np.asarray(a, dtype=np.float64)
    n, q = a.shape
    rows = max(TSQR_ROWS, 2 * q)
    while a.shape[0] > rows:
        nb = a.shape[0] // rows
        head = a[:nb * rows].reshape(nb, rows, q)
        a = np.vstack([np.linalg.qr(head, mode="r").reshape(-1, q),
                       a[nb * rows:]])
    r = np.linalg.qr(a, mode="r")
    if r.shape[0] < q:  # fewer rows than columns: the rest of R is zero
        r = np.vstack([r, np.zeros((q - r.shape[0], q))])
    r *= np.where(np.diag(r) < 0.0, -1.0, 1.0)[:, None]
    return r


def solve_factor(r, mode, lam=0.0, r_b=None):
    """Masked (p, 3) estimate R_xx⁻¹·R_xy from the R factor of [X* | Y*].

    For ridge, √λ·[R_B | 0] is stacked under R and factored again, which
    adds λ·R_BᵀR_B = λ·(ΠB)ᵀ(ΠB) to the Gram of the triangle: the exact
    regularizer that makes the masked solve decrypt to a plaintext ridge
    fit. ``r`` may be a stack (..., q, q) of factors and ``lam`` an array
    that broadcasts against the stack's leading axes; every member is then
    re-factored by one batched QR and solved by one batched solve, giving
    a (..., p, 3) stack. Raises :class:`SingularResult` when, in any
    member, a diagonal entry of R_xx is at most ``SINGULAR_RTOL`` of the
    largest.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    p = r.shape[-1] - 3
    if mode == "ridge":
        lam = np.asarray(lam, dtype=np.float64)
        if not np.all((lam >= 0.0) & (lam < np.inf)):  # NaN fails both
            raise ValueError(f"lambda must be finite and >= 0, got {lam}")
        if r_b is None:
            raise ProtocolOrderViolation(
                "ridge fit requested before the key factor was released"
            )
        stack = np.broadcast_shapes(r.shape[:-2], lam.shape)
        penalty = np.zeros(stack + (p, p + 3))
        penalty[..., :p] = np.sqrt(lam)[..., None, None] * r_b
        r = np.linalg.qr(np.concatenate(
            [np.broadcast_to(r, stack + r.shape[-2:]), penalty], axis=-2
        ), mode="r")
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1)[..., :p])
    low, high = np.ravel(diag.min(axis=-1)), np.ravel(diag.max(axis=-1))
    singular = np.flatnonzero(low <= SINGULAR_RTOL * high)
    if singular.size:
        i = singular[0]
        raise SingularResult(
            f"masked design is numerically singular: smallest R diagonal "
            f"{low[i]:.3g}, largest {high[i]:.3g}"
        )
    return np.linalg.solve(r[..., :p, :p], r[..., :p, p:])


def residual_gram(r, values):
    """(Y − X·β)ᵀ(Y − X·β) over the rows whose [X | Y] has R factor ``r``.

    With M = [−β; I₃], R·M is R's last three columns minus its first p
    times β, and the Gram is (R·M)ᵀ(R·M), an O(p²) product. Stacks of
    factors (..., q, q) and estimates (..., p, 3) broadcast against each
    other and give a (..., 3, 3) stack.
    """
    p = values.shape[-2]
    rm = r[..., p:] - r[..., :p] @ values
    return rm.swapaxes(-1, -2) @ rm


def cloud_fit(agg, mode, lam=0.0, rows=None):
    """Solve least squares by QR on the masked rows; the result is still
    masked. For ridge, ``agg.key_factor`` must have been released. A fit
    on all rows uses ``agg.z_factor`` when it is set."""
    if rows is None and agg.z_factor is not None:
        r = agg.z_factor
    else:
        r = r_factor(agg.z_star if rows is None else agg.z_star[rows])
    values = solve_factor(r, mode, lam, agg.key_factor)
    return EstimateMatrix(values=values)


def decrypt_round(ctx, values):
    """Apply one agency's decryption: values <- B_i @ values @ C_i^{-1}."""
    try:
        right = np.linalg.solve(ctx.keys.c_key.T, values.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularResult(f"response key is singular: {exc}") from exc
    return ctx.keys.b_key @ right


def gram_release_step(ctx, r):
    """One round-robin step of releasing the stacked-key factor:
    R <- qr(R B_i).R. From R = I the ring returns R_B, the Cholesky factor
    with a positive diagonal of (ΠB)ᵀ(ΠB)."""
    return r_factor(r @ ctx.keys.b_key)


def residual_gram_decrypt_step(ctx, s):
    """One conjugation step that strips this agency's response key from
    every masked residual Gram in a vertical stack ``s`` of m 3×3 blocks,
    shape (3m, 3): each block S becomes C_i^{-T} S C_i^{-1}."""
    c = ctx.keys.c_key
    q = c.shape[0]
    s = np.asarray(s)
    if s.ndim != 2 or s.shape[1] != q or s.shape[0] == 0 or s.shape[0] % q:
        raise DimMismatch(
            f"agency {ctx.agency_id} expected a stack of {q}x{q} residual "
            f"Grams, got shape {s.shape}"
        )
    try:
        half = np.linalg.solve(c.T, s.reshape(-1, q, q))
        out = np.linalg.solve(c.T, half.swapaxes(-1, -2)).swapaxes(-1, -2)
    except np.linalg.LinAlgError as exc:
        raise SingularResult(f"response key is singular: {exc}") from exc
    return out.reshape(s.shape)


def verify_estimate(values, mode, tol=VERIFY_TOL):
    """Check the verification column of a decrypted (p, 3) estimate.

    Linear fits regress the row sums of the (offset) features, so the
    verification coefficients must all be 1; ridge fits regress the zero
    vector, so they must all be 0. A deviation beyond ``tol`` in max-norm
    is ruled tampered. That every agency decrypted exactly once is the
    decryption ring's check (``runner.ring_pass``), not this one's.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    target = 1.0 if mode == "linear" else 0.0
    max_dev = float(np.max(np.abs(values[:, 1] - target)))
    verdict = "accepted" if max_dev <= tol else "tampered"
    return VerifyReport(verdict=verdict, max_deviation=max_dev, tolerance=tol)


def inject_tamper(contexts, plan):
    """Mutate agency state according to a tamper plan.

    Two actions corrupt the named agency in place before it masks:

    - ``skip_pseudo_response``: replaces the verification response with
      noise, i.e. the agency never computes the pseudo-response it owes;
    - ``non_commutative_key``: swaps the feature key for a random invertible
      matrix that is *not* a polynomial in the shared base.

    The runner applies the other two at the step they corrupt, after the
    masking phase and the R_B release: ``perturb_result`` shifts the
    cloud's masked estimate, and ``wrong_decrypt`` swaps the named agency's
    feature key for ``_fresh_key``, so it decrypts with a key it did not
    encrypt with. Here ``wrong_decrypt`` only has its agency looked up.
    """
    if plan.action in ("honest", "perturb_result"):
        return
    ctx = _find_agency(contexts, plan.agency)
    if plan.action == "skip_pseudo_response":
        ctx.responses[:, 1] = ctx.rng.standard_normal(ctx.n_rows)
    elif plan.action == "non_commutative_key":
        ctx.keys.b_key = _rogue_invertible(ctx.keys.b_key.shape[0], ctx.rng)


def _find_agency(contexts, agency_id):
    for ctx in contexts:
        if ctx.agency_id == agency_id:
            return ctx
    raise ValueError(f"no agency with id {agency_id}")


def _rogue_invertible(dim, rng):
    """Random well-conditioned matrix; a fresh Gaussian draw is not a
    polynomial in the shared base with probability one."""
    for _ in range(100):
        m = rng.standard_normal((dim, dim))
        if np.linalg.cond(m) <= 1e3:
            return m / np.linalg.norm(m, 2)
    raise SingularResult("could not draw an invertible rogue key")


def _fresh_key(ctx):
    # A fresh polynomial over the shared base still commutes with every
    # honest key, which is the subtle case: decryption "works"
    # algebraically but with the wrong coefficients.
    _, key = keygen.draw_commuting_key(
        ctx.bases.b_basis, keygen.default_degree(ctx.bases.b_basis.shape[0]),
        ctx.rng, ctx.num_agencies,
    )
    return key
