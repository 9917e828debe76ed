"""Protocol state and the single-step operations agencies perform.

The data flow for K agencies, a coordinating cloud and feature matrices
X_1..X_K (row-partitioned across agencies):

1. every agency factors its own shard: the rows of [X + Δ | Y], with Δ
   its local-DP offset, added to its rows once when its context is built
   (``runner.build_contexts``), and Y = [y | v | decoy] the three response
   columns. The verification column v = (X + Δ)·w, with w all ones for a
   linear fit and all zeros for ridge, lies in the span of X + Δ, so the
   agency factors only [X + Δ | y, decoy] and writes v's column of each
   factor as R_xx·w over zeros. The rows fall into ``block_size``-row
   blocks, block j into fold j mod F, and each fold's rows give one
   (q, q) R factor. The agency keys each factor with its feature key B
   and its response key C, R ← R(R·diag(B, C)), and sends the (F·q, q)
   stack on as round 1. No row leaves the agency, and no row count
   either: every agency's is public (``AgencyKeys.row_counts``);
2. the shard travels around a ring, and every other agency checks the
   factors and keys them the same way, one round on. With M the shard's
   rows and K the product of the keys so far, (M·K)ᵀ(M·K) = (R·K)ᵀ(R·K),
   so R(M·K) = R(R·K): each hop's factors are those of the keyed rows. A
   row mask whose blocks lie inside the folds would leave every fold's R
   unchanged, R(A·M) = R(M), so no hop draws one. A shard is its
   (F·q, q) factor matrix; the runner sends it in a frame whose header
   it checks at every hop: the applied ids, the agencies that keyed it in
   order, and the matrix's shape, which is public. A hop checks only
   what a header cannot show: each factor is finite and upper
   triangular, with a non-negative diagonal;
3. the shard's last holder sends it to the cloud. The cloud stacks the
   factors, takes the R factor of every keyed row from them and
   back-substitutes, and gets a masked estimate; it derives each fold's
   row count from the public row counts. With one agency, the origin
   sends its round-1 factors to the cloud;
4. the masked estimate travels one decryption round per agency; what
   comes out is the plaintext estimate for all three response columns;
5. the cloud checks the verification column of an estimate that came
   back through every agency: all ones for a linear fit, all zeros for a
   ridge fit. Any deviation beyond tolerance means some step was
   corrupted.

Orchestration across a transport lives in :mod:`maskreg.runner`; functions
here are pure single steps that take and return matrices, so they can be
tested (and attacked) directly. Only the runner builds a frame and checks
its header.
"""

from dataclasses import dataclass

import numpy as np

from . import keygen
from .errors import (
    DimMismatch,
    FoldBlockMisaligned,
    ProtocolOrderViolation,
    SingularResult,
)
from .matrix_core import random_well_conditioned, split_block_sizes
# perfbench/spans.py:135 wraps protocol.solve_spd (ROADMAP direction 2)
from .model import solve_spd  # noqa: F401

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

#: Most elements of [X + Δ | y, decoy] that :func:`shard_factors` copies
#: and factors at once (512 KB).
SHARD_CHUNK = 2**16

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
        if not np.isfinite(self.magnitude):
            raise ValueError(
                f"tamper magnitude must be finite, got {self.magnitude}")


@dataclass
class EncryptedAggregate:
    """Everything the cloud keeps of the completed shards: the R factors
    their last holders sent and the per-fold row counts the public row
    counts give. The cloud never receives a row.

    ``fold_factors`` stacks the (q, q) R factor of each fold's keyed rows
    of [X* | Y*] (one fold when no CV runs), and ``fold_sizes`` their row
    counts; ``z_factor`` is the R factor of every row. ``key_factor`` is
    the released R_B of the stacked feature keys (ridge only).
    """

    fold_factors: np.ndarray
    fold_sizes: tuple
    z_factor: np.ndarray
    key_factor: np.ndarray = None

    # perfbench/spans.py:116 reads x_star's row count (ROADMAP direction 2)
    @property
    def x_star(self):
        """Shape-only (n, p) stand-in for the stacked masked features: a
        read-only all-NaN view that allocates nothing."""
        n = sum(self.fold_sizes)
        return np.broadcast_to(np.nan, (n, self.z_factor.shape[1] - 3))


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
    """One agency's private state for a protocol run. ``x`` is the rows it
    encrypts: its features with its local-DP offset already added, if the
    run has one. ``responses`` is the (n, 2) columns [y | decoy] it factors
    beside them, and ``verify_weights`` the (p,) w of its verification
    column x·w (``keygen.make_responses``)."""

    def __init__(self, agency_id, x, y, keys, bases, mode, rng):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.agency_id = agency_id
        self.x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if self.x.ndim != 2 or y.shape != (self.x.shape[0],):
            raise DimMismatch(
                f"agency {agency_id}: x {self.x.shape} / y {y.shape}"
            )
        self.keys = keys
        self.bases = bases
        self.rng = rng
        self.responses, self.verify_weights = keygen.make_responses(
            self.x, y, mode, rng)

    @property
    def num_agencies(self):
        return len(self.keys.row_counts)


def _keyed(ctx, r):
    """The shard one hop on from ``r``, a (folds, q, q) stack of fold
    factors: each factor keyed with this agency's keys,
    R ← R(R·diag(B, C)), and the stack returned as one (folds·q, q)
    matrix."""
    keys = ctx.keys
    p = keys.b_key.shape[0]
    r = r_factor(np.concatenate(
        [r[..., :p] @ keys.b_key, r[..., p:] @ keys.c_key], axis=-1))
    return r.reshape(-1, p + 3)


def local_encrypt(ctx, folds):
    """Round 1 of an origin's own shard: the keyed factors of each fold of
    its [X + Δ | y, v, decoy]. It factors [X + Δ | y, decoy] (``ctx.x``
    and ``ctx.responses``, ``shard_factors``) and writes in the column of
    v = (X + Δ)·w (``_with_pseudo_response``). The agency's own rows are
    read, never written or sent."""
    r = shard_factors(ctx.x, ctx.responses, ctx.keys.block_size, folds)
    return _keyed(ctx, _with_pseudo_response(r, ctx.verify_weights))


def _with_pseudo_response(r, w):
    """The (..., q, q) factors of [X | y, X·w, decoy], given the
    (..., q − 1, q − 1) factors ``r`` of [X | y, decoy] and the (p,)
    weights ``w``.

    X·w lies in the span of X, so its column of R is R_xx·w over zeros:
    the decoy's column and diagonal move one place right, and the row
    beneath R_xx·w is zero. RᵀR is then the Gram of [X | y, X·w, decoy]
    whenever ``r``'s is that of [X | y, decoy]. The R of these
    rank-deficient rows is not unique below the dependent column, and this
    is one valid choice."""
    p = w.shape[0]
    keep = np.r_[:p + 1, p + 2]
    full = np.zeros(r.shape[:-2] + (p + 3, p + 3))
    full[..., keep[:, None], keep] = r
    full[..., :p, p + 1] = full[..., :p, :p] @ w
    return full


def pass_encrypt(ctx, shard, origin):
    """One hop of origin's shard, its (folds·q, q) factor matrix: check its
    factors as the cloud does (``_completed_parts``) and key them, one
    round on. The last holder sends the result to the cloud."""
    return _keyed(ctx, _completed_parts(
        shard, f"agency {ctx.agency_id}: shard {origin}"))


def shard_factors(x, y, block_size, folds):
    """(folds, q, q) stack of the R factors of each fold's rows of [x | y].

    Block j of the rows (the full blocks in row order, then the tail)
    belongs to fold j mod ``folds``, as in ``runner.fold_rows``. The rows
    are copied into one small buffer a chunk of whole rounds of ``folds``
    blocks at a time, at most ``SHARD_CHUNK`` elements, and each chunk's
    folds are factored by one stacked ``r_factor``, so no temporary grows
    with the shard. The last chunk is padded with zero rows, which leave
    every R unchanged, to whole rounds.
    Raises :class:`FoldBlockMisaligned` when the rows make fewer blocks
    than folds.
    """
    n, p = x.shape
    q = p + y.shape[1]
    blocks = len(split_block_sizes(n, block_size))
    if blocks < folds:
        raise FoldBlockMisaligned(
            f"{n} rows make {blocks} blocks of {block_size}, fewer than "
            f"{folds} folds; lower the block size or folds"
        )
    span = block_size * folds

    def fold_factors(lo, hi):
        """(folds, q, q) R factors of rows lo:hi of [x | y]."""
        buf = np.zeros((-(-(hi - lo) // span) * span, q))
        buf[:hi - lo, :p] = x[lo:hi]
        buf[:hi - lo, p:] = y[lo:hi]
        return r_factor(buf.reshape(-1, folds, block_size, q)
                        .swapaxes(0, 1).reshape(folds, -1, q))

    step = span * max(1, SHARD_CHUNK // (span * q))
    return r_factor(np.concatenate(
        [fold_factors(lo, min(lo + step, n)) for lo in range(0, n, step)],
        axis=-2))


def _completed_parts(r, where):
    """A shard's (folds, q, q) factor stack, once its (folds·q, q) matrix
    ``r`` is checked; ``where`` names the receiver and the shard in
    errors. The runner has checked the matrix's shape with the frame's
    header (``runner._expect``); this checks what a header cannot show.
    Raises :class:`ProtocolOrderViolation` for a factor that is not
    finite, upper triangular and non-negative on its diagonal, which an
    honest sender could not have sent."""
    r = r.reshape(-1, r.shape[1], r.shape[1])
    if (not np.all(np.isfinite(r)) or np.any(np.tril(r, -1))
            or np.any(np.diagonal(r, 0, -2, -1) < 0.0)):
        raise ProtocolOrderViolation(
            f"{where}: a factor is not finite and upper triangular with a "
            f"non-negative diagonal")
    return r


def assemble_aggregate(shards, row_counts, block_size, folds=1):
    """The cloud's view of the completed shards, the factor matrices
    (``pass_encrypt`` of each last holder) in origin order; ``shards`` may
    be a generator that receives each one.

    Each matrix holds one shard's keyed fold factors, its shape checked
    with its frame's header (``runner._expect``) and its factors as they
    are taken. Its row count is public: ``row_counts`` (the
    ``AgencyKeys.row_counts`` of the run) holds every origin's, and its
    length is the number of agencies. From a count, ``block_size`` and
    ``folds`` the cloud derives the shard's per-fold row counts, in
    O(folds) whatever the count: block j is in fold j mod ``folds``. Each
    fold's factor is the R of its stacked per-shard factors, and the
    factor of every row is the R of the stacked fold factors (Demmel,
    Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 2012).
    """
    k = len(row_counts)
    parts, sizes = [], 0
    for origin, s in enumerate(shards, start=1):
        if origin > k:
            raise ProtocolOrderViolation(
                f"expected one shard per agency 1..{k}, got more")
        parts.append(_completed_parts(s, f"cloud: completed shard {origin}"))
        n = row_counts[origin - 1]
        rounds, rest = divmod(n, block_size * folds)
        sizes += rounds * block_size + np.clip(
            rest - block_size * np.arange(folds), 0, block_size)
    if len(parts) != k:
        raise ProtocolOrderViolation(
            f"expected one shard per agency 1..{k}, got {len(parts)}"
        )
    fold_factors = r_factor(np.concatenate(parts, axis=-2))
    return EncryptedAggregate(
        fold_factors=fold_factors,
        fold_sizes=tuple(int(v) for v in sizes),
        z_factor=r_factor(np.concatenate(fold_factors)),
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
    enough to thread"). A stack (..., n, q) gives a (..., q, q) stack of
    factors, each level one batched QR over the whole stack.
    """
    a = np.asarray(a, dtype=np.float64)
    *stack, n, q = a.shape
    rows = max(TSQR_ROWS, 2 * q)
    while a.shape[-2] > rows:
        nb = a.shape[-2] // rows
        head = a[..., :nb * rows, :].reshape(*stack, nb, rows, q)
        a = np.concatenate([
            np.linalg.qr(head, mode="r").reshape(*stack, nb * q, q),
            a[..., nb * rows:, :],
        ], axis=-2)
    r = np.linalg.qr(a, mode="r")
    if r.shape[-2] < q:  # fewer rows than columns: the rest of R is zero
        r = np.concatenate(
            [r, np.zeros((*stack, q - r.shape[-2], q))], axis=-2)
    sign = np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)
    r *= sign[..., None]
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


# perfbench/workloads.py:171 passes rows=rows (ROADMAP direction 2)
def cloud_fit(agg, mode, lam=0.0, rows=None):
    """Solve least squares from ``agg.z_factor``, the R factor of every
    masked row; the result is still masked. For ridge,
    ``agg.key_factor`` must have been released. The cloud keeps no rows,
    so ``rows`` must be None."""
    if rows is not None:
        raise ValueError(
            "the cloud keeps R factors, not rows; rows must be None")
    values = solve_factor(agg.z_factor, mode, lam, agg.key_factor)
    return EstimateMatrix(values=values)


def decrypt_round(ctx, values):
    """Apply one agency's decryption: values <- B_i @ values @ C_i^{-1}.
    An estimate perturbed near the float64 limit overflows here, silently:
    ``verify_estimate`` rules a non-finite estimate tampered."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            right = np.linalg.solve(ctx.keys.c_key.T, values.T).T
        except np.linalg.LinAlgError as exc:
            raise SingularResult(f"response key is singular: {exc}") from exc
        return ctx.keys.b_key @ right


def gram_release_step(ctx, r):
    """One round-robin step of releasing the stacked-key factor:
    R <- qr(R B_i).R. From R = I the ring returns R_B, the Cholesky factor
    with a positive diagonal of (ΠB)ᵀ(ΠB)."""
    b = ctx.keys.b_key
    return r_factor(r @ b)


def residual_gram_decrypt_step(ctx, s):
    """One conjugation step that strips this agency's response key from
    every masked residual Gram in a vertical stack ``s`` of m 3×3 blocks,
    shape (3m, 3): each block S becomes C_i^{-T} S C_i^{-1}."""
    c = ctx.keys.c_key
    try:
        half = np.linalg.solve(c.T, s.reshape(-1, 3, 3))
        out = np.linalg.solve(c.T, half.swapaxes(-1, -2)).swapaxes(-1, -2)
    except np.linalg.LinAlgError as exc:
        raise SingularResult(f"response key is singular: {exc}") from exc
    return out.reshape(s.shape)


def verify_estimate(values, mode, tol=VERIFY_TOL):
    """Check the verification column of a decrypted (p, 3) estimate.

    Linear fits regress the row sums of the (offset) features, so the
    verification coefficients must all be 1; ridge fits regress the zero
    vector, so they must all be 0. A deviation beyond ``tol`` in max-norm,
    or any entry of ``values`` that is not finite, is ruled tampered. That
    every agency decrypted exactly once is the decryption ring's check
    (``runner.ring_pass``), not this one's.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    target = 1.0 if mode == "linear" else 0.0
    max_dev = float(np.max(np.abs(values[:, 1] - target)))
    honest = max_dev <= tol and np.all(np.isfinite(values))
    verdict = "accepted" if honest else "tampered"
    return VerifyReport(verdict=verdict, max_deviation=max_dev, tolerance=tol)


def inject_tamper(contexts, plan):
    """Mutate agency state according to a tamper plan.

    Two actions corrupt the named agency in place before it masks:

    - ``skip_pseudo_response``: replaces the verification weights w with
      noise, so the agency regresses X·w′, not the pseudo-response it
      owes;
    - ``non_commutative_key``: swaps the feature key for a random
      well-conditioned matrix that does not commute with the shared base.

    The runner applies the other two at the step they corrupt, after the
    masking phase and the R_B release: ``perturb_result`` shifts the
    cloud's masked estimate, and ``wrong_decrypt`` swaps the named agency's
    feature key for ``_fresh_key``, so it decrypts with a key it did not
    encrypt with. Agency ids are 1..k in context order.
    """
    if plan.action not in ("skip_pseudo_response", "non_commutative_key"):
        return
    ctx = contexts[plan.agency - 1]
    if plan.action == "skip_pseudo_response":
        ctx.verify_weights = ctx.rng.standard_normal(ctx.x.shape[1])
    elif plan.action == "non_commutative_key":
        # cond ≤ 2, and with probability one not in the base's commutant
        ctx.keys.b_key = random_well_conditioned(ctx.keys.b_key.shape[0],
                                                 ctx.rng)[0]


def _fresh_key(ctx):
    # A fresh key over the shared base still commutes with every honest
    # key, which is the subtle case: decryption "works" algebraically but
    # with the wrong blocks.
    _, key = keygen.draw_commuting_key(ctx.bases.b_v, ctx.bases.b_v_inv,
                                       ctx.rng, ctx.num_agencies)
    return key
