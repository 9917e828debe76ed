"""Protocol state and the single-step operations agencies perform.

The data flow for K agencies, a coordinating cloud and feature matrices
X_1..X_K (row-partitioned across agencies):

1. every agency factors its own shard: the rows of [X + Δ | Y], with Δ
   its local-DP offset, added to its rows once when its context is built
   (``runner.build_contexts``), and Y the three-column response bundle,
   whose verification column sums each row of X + Δ. The rows fall into
   ``block_size``-row blocks, block j into fold j mod F, and each fold's
   rows give one (q, q) R factor. The agency keys each factor with its
   feature key B and its response key C, R ← R(R·diag(B, C)), and sends
   the (F·q, q) stack on as round 1. No row leaves the agency, and no row
   count either: every agency's is public (``AgencyKeys.row_counts``);
2. the shard travels around a ring, and every other agency checks the
   frame and keys the factors it received the same way, one round on.
   With M the shard's rows and K the product of the keys so far,
   (M·K)ᵀ(M·K) = (R·K)ᵀ(R·K), so R(M·K) = R(R·K): each hop's factors are
   those of the keyed rows. A row mask whose blocks lie inside the folds
   would leave every fold's R unchanged, R(A·M) = R(M), so no hop draws
   one. A shard is the :class:`~maskreg.transport.Frame` that carries it:
   origin, the ids that keyed it, in order, and its one matrix, the
   factors;
3. the shard's last holder sends it to the cloud. The cloud stacks the
   factors, takes the R factor of every keyed row from them and
   back-substitutes, and gets a masked estimate; it derives each fold's
   row count from the public row counts. With one agency, the origin
   sends its round-1 frame to the cloud;
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
    FoldBlockMisaligned,
    ProtocolOrderViolation,
    SingularResult,
)
from .matrix_core import (  # noqa: F401
    random_well_conditioned,
    solve_spd,
    split_block_sizes,
)
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

#: Most elements of [X + Δ | Y] that :func:`shard_factors` copies and
#: factors at once (512 KB).
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
    their last holders sent and the row layout the public row counts give.
    The cloud never receives a row.

    ``fold_factors`` stacks the (q, q) R factor of each fold's keyed rows
    of [X* | Y*] (one fold when no CV runs), and ``fold_sizes`` their row
    counts; ``z_factor`` is the R factor of every row. ``origin_rows`` is
    each shard's row range in the stacked order, and ``block_size`` the
    rows per fold block. ``key_factor`` is the released R_B of the
    stacked feature keys (ridge only).
    """

    fold_factors: np.ndarray
    fold_sizes: tuple
    z_factor: np.ndarray
    origin_rows: tuple
    block_size: int
    key_factor: np.ndarray = None

    @property
    def block_ranges(self):
        """Each fold block's row range in the stacked order, built on
        demand: the cloud itself never walks the blocks."""
        ranges = []
        for lo, hi in self.origin_rows:
            for size in split_block_sizes(hi - lo, self.block_size):
                ranges.append((lo, lo + size))
                lo += size
        return tuple(ranges)

    @property
    def x_star(self):
        """Shape-only (n, p) stand-in for the stacked masked features: a
        read-only all-NaN view that allocates nothing, since the cloud
        keeps no rows."""
        n = self.origin_rows[-1][1]
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
    run has one."""

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
        self.responses = keygen.make_responses(self.x, y, mode, rng)

    @property
    def n_rows(self):
        return self.x.shape[0]

    @property
    def num_agencies(self):
        return len(self.keys.row_counts)


def _keyed(ctx, origin, applied, r):
    """The shard frame one hop on from ``r``, a (folds, q, q) stack of fold
    factors of origin's rows: each factor keyed with this agency's keys,
    R ← R(R·diag(B, C)), this agency's id appended to ``applied`` and the
    stack sent as one (folds·q, q) matrix."""
    keys = ctx.keys
    p = keys.b_key.shape[0]
    r = r_factor(np.concatenate(
        [r[..., :p] @ keys.b_key, r[..., p:] @ keys.c_key], axis=-1))
    return Frame(MSG_SHARD, origin, applied + (ctx.agency_id,),
                 r.reshape(-1, p + 3))


def local_encrypt(ctx, folds):
    """Round 1 of an origin's own shard: the keyed factors of each fold of
    its [X + Δ | Y] (``ctx.x``, ``shard_factors``). The agency's own rows
    are read, never written or sent."""
    r = shard_factors(ctx.x, ctx.responses, ctx.keys.block_size, folds)
    return _keyed(ctx, ctx.agency_id, (), r)


def pass_encrypt(ctx, shard, folds):
    """One hop of a shard: check the received frame as the cloud does
    (``_completed_parts``) and key its factors, one round on. The last
    holder sends the result to the cloud."""
    where = f"agency {ctx.agency_id}: shard {shard.origin}"
    if ctx.agency_id in shard.applied:
        raise DuplicatePass(f"{where} was already keyed by this agency")
    if not 1 <= shard.origin <= ctx.num_agencies:
        raise ProtocolOrderViolation(f"{where} has no such origin")
    r = _completed_parts(shard, where, folds, ctx.keys.b_key.shape[0] + 3)
    return _keyed(ctx, shard.origin, shard.applied, r)


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
    blocks = len(split_block_sizes(n, block_size))
    if blocks < folds:
        raise FoldBlockMisaligned(
            f"{n} rows make {blocks} blocks of {block_size}, fewer than "
            f"{folds} folds; lower the block size or folds"
        )
    span = block_size * folds

    def fold_factors(lo, hi):
        """(folds, q, q) R factors of rows lo:hi of [x | y]."""
        buf = np.zeros((-(-(hi - lo) // span) * span, p + 3))
        buf[:hi - lo, :p] = x[lo:hi]
        buf[:hi - lo, p:] = y[lo:hi]
        return r_factor(buf.reshape(-1, folds, block_size, p + 3)
                        .swapaxes(0, 1).reshape(folds, -1, p + 3))

    step = span * max(1, SHARD_CHUNK // (span * (p + 3)))
    return r_factor(np.concatenate(
        [fold_factors(lo, min(lo + step, n)) for lo in range(0, n, step)],
        axis=-2))


def _completed_parts(shard, where, folds, q=None):
    """A shard frame's (folds, q, q) factor stack, once it is checked;
    ``where`` names the receiver and the shard in errors, and ``q`` is the
    expected width, or None for any. Raises :class:`DimMismatch` for a
    matrix of the wrong shape and :class:`ProtocolOrderViolation` for a
    factor that is not finite, upper triangular and non-negative on its
    diagonal, which an honest sender could not have sent."""
    r = shard.matrix
    width = q or (r.shape[1] if r.ndim == 2 else 0)
    if r.ndim != 2 or width < 4 or r.shape != (folds * width, width):
        raise DimMismatch(
            f"{where} has a matrix of shape {r.shape}, expected "
            f"({folds}*q, q) with q >= 4")
    r = r.reshape(folds, width, width)
    if (not np.all(np.isfinite(r)) or np.any(np.tril(r, -1))
            or np.any(np.diagonal(r, 0, -2, -1) < 0.0)):
        raise ProtocolOrderViolation(
            f"{where}: a factor is not finite and upper triangular with a "
            f"non-negative diagonal")
    return r


def assemble_aggregate(shards, row_counts, block_size, folds=1):
    """The cloud's view of the completed shard frames (``pass_encrypt`` of
    each last holder), which must come in origin order; ``shards`` may be
    a generator that receives each one.

    Each frame carries one shard's keyed fold factors, checked as they are
    taken. Its row count is public: ``row_counts`` (the
    ``AgencyKeys.row_counts`` of the run) holds every origin's, and its
    length is the number of agencies. From a count, ``block_size`` and
    ``folds`` the cloud derives the shard's row range and per-fold row
    counts, in O(folds) whatever the count: block j is in fold j mod
    ``folds``. Each fold's factor is the R of its stacked per-shard
    factors, and the factor of every row is the R of the stacked fold
    factors (Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 2012).
    """
    k = len(row_counts)
    parts, sizes, origin_rows = [], 0, []
    offset, q = 0, None
    for origin, s in enumerate(shards, start=1):
        if origin > k or s.origin != origin or len(s.applied) != k:
            raise ProtocolOrderViolation(
                f"expected shard {origin} keyed by all {k} agencies, got "
                f"shard {s.origin} keyed by {len(s.applied)}"
            )
        r = _completed_parts(s, f"cloud: completed shard {s.origin}", folds,
                             q)
        parts.append(r)
        q = r.shape[-1]
        n = row_counts[origin - 1]
        rounds, rest = divmod(n, block_size * folds)
        sizes += rounds * block_size + np.clip(
            rest - block_size * np.arange(folds), 0, block_size)
        origin_rows.append((offset, offset + n))
        offset += n
    if len(parts) != k:
        raise ProtocolOrderViolation(
            f"expected one shard per agency 1..{k}, got {len(parts)}"
        )
    fold_factors = r_factor(np.concatenate(parts, axis=-2))
    return EncryptedAggregate(
        fold_factors=fold_factors,
        fold_sizes=tuple(int(v) for v in sizes),
        z_factor=r_factor(fold_factors.reshape(-1, q)),
        origin_rows=tuple(origin_rows),
        block_size=block_size,
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


def _shaped(ctx, m, shape, what):
    """``m`` as an array, if its shape is ``shape``; otherwise raise
    :class:`DimMismatch` naming the agency."""
    m = np.asarray(m)
    if m.shape != shape:
        raise DimMismatch(f"agency {ctx.agency_id} expected a {what} of "
                          f"shape {shape}, got shape {m.shape}")
    return m


def decrypt_round(ctx, values):
    """Apply one agency's decryption: values <- B_i @ values @ C_i^{-1}."""
    values = _shaped(ctx, values, (ctx.keys.b_key.shape[0], 3), "estimate")
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
    return r_factor(_shaped(ctx, r, b.shape, "key factor") @ b)


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
    - ``non_commutative_key``: swaps the feature key for a random
      well-conditioned matrix that does not commute with the shared base.

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
        # cond ≤ 2, and with probability one not in the base's commutant
        ctx.keys.b_key = random_well_conditioned(ctx.keys.b_key.shape[0],
                                                 ctx.rng)[0]


def _find_agency(contexts, agency_id):
    for ctx in contexts:
        if ctx.agency_id == agency_id:
            return ctx
    raise ValueError(f"no agency with id {agency_id}")


def _fresh_key(ctx):
    # A fresh key over the shared base still commutes with every honest
    # key, which is the subtle case: decryption "works" algebraically but
    # with the wrong blocks.
    _, key = keygen.draw_commuting_key(ctx.bases.b_v, ctx.bases.b_v_inv,
                                       ctx.rng, ctx.num_agencies)
    return key
