"""Protocol state and the single-step operations agencies perform.

The data flow for K agencies, a coordinating cloud and feature matrices
X_1..X_K (row-partitioned across agencies):

1. every agency encrypts its own shard: rows are mixed by a private
   block-diagonal orthogonal mask, columns by its commuting feature key;
   the three-column response bundle is masked the same way with the
   response key;
2. shards travel around a ring so every *other* agency stacks its own
   masks on top; the completed shards go to the cloud;
3. the cloud solves least squares by QR on the masked data: it takes the
   R factor of the stacked masked matrix [X* | Y*] and back-substitutes,
   and gets a masked estimate;
4. the masked estimate travels one decryption round per agency; what
   comes out is the plaintext estimate for all three response columns;
5. anyone can then check the verification column: all ones for a linear
   fit, all zeros for a ridge fit. Any deviation beyond tolerance means
   some step was corrupted.

Orchestration across a transport lives in :mod:`maskreg.runner`; functions
here are pure single steps so they can be tested (and attacked) directly.
"""

from dataclasses import dataclass

import numpy as np

from . import keygen
from .errors import (
    DimMismatch,
    DoubleDecrypt,
    DuplicatePass,
    ProtocolOrderViolation,
    SingularResult,
)
from .matrix_core import solve_spd, split_block_sizes  # noqa: F401

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

#: Rows per block in the batched first level of :func:`r_factor`.
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
class EncryptedShard:
    """One origin's masked rows while they travel the ring."""

    origin: int
    x_star: np.ndarray
    y_star: np.ndarray
    applied: tuple
    round: int = 0


@dataclass
class EncryptedAggregate:
    """Everything the cloud sees: stacked masked shards plus row layout.

    ``z_star`` is the one (n, p + 3) array [X* | Y*]; ``x_star`` is a
    view of its feature columns. ``key_factor`` is the released R_B of
    the stacked feature keys (ridge only).
    """

    z_star: np.ndarray
    origin_rows: tuple
    block_ranges: tuple
    key_factor: np.ndarray = None

    @property
    def x_star(self):
        return self.z_star[:, :-3]


@dataclass
class EstimateMatrix:
    """(p, 3) estimate for [response, verification, decoy] columns."""

    values: np.ndarray
    stage: str
    applied: tuple = ()

    def beta(self):
        """The real-response coefficient column."""
        return self.values[:, 0]


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
        return len(self.keys.a_blocks_for)


def local_encrypt(ctx):
    """First masking step an origin applies to its own shard."""
    shifted = ctx.x if ctx.delta is None else ctx.x + ctx.delta
    blocks = ctx.keys.a_blocks_for[ctx.agency_id]
    x_star = blocks.apply(shifted) @ ctx.keys.b_key
    y_star = blocks.apply(ctx.responses) @ ctx.keys.c_key
    return EncryptedShard(
        origin=ctx.agency_id,
        x_star=x_star,
        y_star=y_star,
        applied=(ctx.agency_id,),
        round=0,
    )


def pass_encrypt(ctx, shard):
    """Stack this agency's masks onto a shard passing through the ring."""
    if ctx.agency_id in shard.applied:
        raise DuplicatePass(
            f"agency {ctx.agency_id} already masked shard {shard.origin}"
        )
    blocks = ctx.keys.a_blocks_for[shard.origin]
    if blocks.n_rows != shard.x_star.shape[0]:
        raise DimMismatch(
            f"agency {ctx.agency_id} mask covers {blocks.n_rows} rows, "
            f"shard {shard.origin} has {shard.x_star.shape[0]}"
        )
    return EncryptedShard(
        origin=shard.origin,
        x_star=blocks.apply(shard.x_star) @ ctx.keys.b_key,
        y_star=blocks.apply(shard.y_star) @ ctx.keys.c_key,
        applied=shard.applied + (ctx.agency_id,),
        round=shard.round + 1,
    )


def assemble_aggregate(shards, num_agencies, block_size):
    """Stack completed shards (in origin order) into the cloud's view."""
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
    p = shards[0].x_star.shape[1]
    n_total = sum(s.x_star.shape[0] for s in shards)
    z_star = np.empty((n_total, p + 3))
    origin_rows, block_ranges = [], []
    offset = 0
    for origin in range(1, num_agencies + 1):
        s = by_origin[origin]
        n = s.x_star.shape[0]
        z_star[offset:offset + n, :p] = s.x_star
        z_star[offset:offset + n, p:] = s.y_star
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
    the R of the stacked rows. One batched TSQR level (Demmel, Grigori,
    Hoemmen & Langou, SIAM J. Sci. Comput. 2012) factors every
    ``TSQR_ROWS``-row block at once, then factors the stacked block factors
    and the leftover rows.
    """
    a = np.asarray(a, dtype=np.float64)
    n, q = a.shape
    nb = n // TSQR_ROWS
    if nb > 1:
        head = a[:nb * TSQR_ROWS].reshape(nb, TSQR_ROWS, q)
        a = np.vstack([np.linalg.qr(head, mode="r").reshape(-1, q),
                       a[nb * TSQR_ROWS:]])
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
    fit. Raises :class:`SingularResult` when a diagonal entry of R_xx is at
    most ``SINGULAR_RTOL`` of the largest.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    p = r.shape[0] - 3
    if mode == "ridge":
        if lam < 0.0:
            raise ValueError(f"lambda must be >= 0, got {lam}")
        if r_b is None:
            raise ProtocolOrderViolation(
                "ridge fit requested before the key factor was released"
            )
        penalty = np.zeros((p, p + 3))
        penalty[:, :p] = np.sqrt(lam) * r_b
        r = r_factor(np.vstack([r, penalty]))
    diag = np.abs(np.diag(r)[:p])
    if diag.min() <= SINGULAR_RTOL * diag.max():
        raise SingularResult(
            f"masked design is numerically singular: smallest R diagonal "
            f"{diag.min():.3g}, largest {diag.max():.3g}"
        )
    return np.linalg.solve(r[:p, :p], r[:p, p:])


def residual_gram(r, values):
    """(Y − X·β)ᵀ(Y − X·β) over the rows whose [X | Y] has R factor ``r``.

    With M = [−β; I₃] this is (R·M)ᵀ(R·M), an O(p²) product.
    """
    rm = r @ np.vstack([-values, np.eye(values.shape[1])])
    return rm.T @ rm


def cloud_fit(agg, mode, lam=0.0, rows=None):
    """Solve least squares by QR on the masked rows; the result is still
    masked. For ridge, ``agg.key_factor`` must have been released."""
    z = agg.z_star if rows is None else agg.z_star[rows]
    values = solve_factor(r_factor(z), mode, lam, agg.key_factor)
    return EstimateMatrix(values=values, stage="encrypted", applied=())


def decrypt_round(ctx, est):
    """Apply one agency's decryption: values <- B_i @ values @ C_i^{-1}."""
    if ctx.agency_id in est.applied:
        raise DoubleDecrypt(
            f"agency {ctx.agency_id} already ran its decryption round"
        )
    try:
        right = np.linalg.solve(ctx.keys.decrypt_c_key.T, est.values.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularResult(f"response key is singular: {exc}") from exc
    values = ctx.keys.decrypt_b_key @ right
    applied = est.applied + (ctx.agency_id,)
    stage = "plain" if len(applied) == ctx.num_agencies else "partially_decrypted"
    return EstimateMatrix(values=values, stage=stage, applied=applied)


def gram_release_step(ctx, r):
    """One round-robin step of releasing the stacked-key factor:
    R <- qr(R B_i).R. From R = I the ring returns R_B, the Cholesky factor
    with a positive diagonal of (ΠB)ᵀ(ΠB)."""
    return r_factor(r @ ctx.keys.b_key)


def residual_gram_decrypt_step(ctx, s):
    """One conjugation step that strips this agency's response key from a
    masked residual Gram: C_i^{-T} s C_i^{-1}."""
    c = ctx.keys.decrypt_c_key
    try:
        half = np.linalg.solve(c.T, s)
        return np.linalg.solve(c.T, half.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularResult(f"response key is singular: {exc}") from exc


def verify_estimate(est, mode, tol=VERIFY_TOL):
    """Check the verification column of a fully decrypted estimate.

    Linear fits regress the row sums of the (offset) features, so the
    verification coefficients must all be 1; ridge fits regress the zero
    vector, so they must all be 0. A deviation beyond ``tol`` in max-norm
    is ruled tampered.
    """
    if est.stage != "plain":
        raise ProtocolOrderViolation(
            f"cannot verify an estimate in stage {est.stage!r}"
        )
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    target = 1.0 if mode == "linear" else 0.0
    max_dev = float(np.max(np.abs(est.values[:, 1] - target)))
    verdict = "accepted" if max_dev <= tol else "tampered"
    return VerifyReport(verdict=verdict, max_deviation=max_dev, tolerance=tol)


def inject_tamper(contexts, plan):
    """Mutate agency state according to a tamper plan.

    ``perturb_result`` is cloud-side and handled by the runner; the other
    actions corrupt the named agency in place:

    - ``skip_pseudo_response``: replaces the verification response with
      noise, i.e. the agency never computes the pseudo-response it owes;
    - ``non_commutative_key``: swaps the feature key for a random invertible
      matrix that is *not* a polynomial in the shared base;
    - ``wrong_decrypt``: the agency decrypts with a fresh key instead of
      the one it encrypted with.
    """
    if plan.action in ("honest", "perturb_result"):
        return
    ctx = _find_agency(contexts, plan.agency)
    if plan.action == "skip_pseudo_response":
        ctx.responses[:, 1] = ctx.rng.standard_normal(ctx.n_rows)
    elif plan.action == "non_commutative_key":
        rogue = _rogue_invertible(ctx.keys.b_key.shape[0], ctx.rng)
        ctx.keys.b_key = rogue
        ctx.keys.decrypt_b_key = rogue
    elif plan.action == "wrong_decrypt":
        _, wrong_b = _fresh_key(ctx)
        ctx.keys.decrypt_b_key = wrong_b
    else:  # pragma: no cover - guarded by TamperPlan.__post_init__
        raise ValueError(f"unknown tamper action {plan.action!r}")


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
    return keygen.draw_commuting_key(
        ctx.bases.b_basis, ctx.bases.degree, ctx.rng, ctx.num_agencies
    )
