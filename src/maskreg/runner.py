"""Drives complete protocol runs over a transport.

The shard phase (the only one moving large frames) runs one thread per
agency, and each agency draws its row masks on that thread as it masks
each shard; the release, decryption and cross-validation chains are strictly
sequential rings, so they run single-threaded in deterministic order. All
messages cross the configured transport as encoded frames even when
everything lives in one process — the bus and the TCP mesh carry identical
bytes.
"""

import logging
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import keygen, protocol
from .errors import (
    DimMismatch,
    FoldBlockMisaligned,
    ProtocolOrderViolation,
    TooManyAgencies,
)
from .model import auc, mse
from .transport import (
    MSG_ESTIMATE,
    MSG_GRAM_RELEASE,
    MSG_RESIDUAL_GRAM,
    MSG_SHARD,
    MAX_PARTICIPANTS,
    Frame,
    make_transport,
)

logger = logging.getLogger(__name__)

CLOUD = 0


@dataclass(frozen=True)
class RunConfig:
    """Knobs for a protocol run; defaults give a two-agency linear fit."""

    k: int = 2
    mode: str = "linear"
    lam: float = 1.0
    lambda_grid: tuple = (0.01, 0.1, 1.0, 10.0)
    folds: int = 5
    block_size: int = 16
    sigma_coeff: float = 1.0
    delta: float = None
    seed: int = 0
    transport: str = "bus"
    tamper: protocol.TamperPlan = field(default_factory=protocol.TamperPlan)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"need at least one agency, got k={self.k}")
        if self.k >= MAX_PARTICIPANTS:
            raise TooManyAgencies(
                f"wire format addresses at most {MAX_PARTICIPANTS - 1} "
                f"agencies, got k={self.k}"
            )
        if self.mode not in protocol.MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.folds < 2:
            raise ValueError(f"need at least two folds, got {self.folds}")
        if len(self.lambda_grid) == 0:
            raise ValueError("lambda_grid is empty")
        for lam in (self.lam, *self.lambda_grid):
            if not 0.0 <= lam < math.inf:  # NaN fails both comparisons
                raise ValueError(f"lambda must be finite and >= 0, got {lam}")
        if not 0.0 < self.sigma_coeff < math.inf:
            raise ValueError(
                f"sigma_coeff must be finite and > 0, got {self.sigma_coeff}"
            )
        if self.delta is not None and not 0.0 <= self.delta < math.inf:
            raise ValueError(
                f"delta must be None or finite and >= 0, got {self.delta}"
            )


def build_contexts(datasets, config):
    """Derive bases, generate every agency's keys and mask seed, and build
    their contexts. No row mask is drawn here (see ``protocol``)."""
    if len(datasets) != config.k:
        raise DimMismatch(
            f"config says k={config.k} but {len(datasets)} datasets given"
        )
    p = datasets[0][0].shape[1]
    for x, _ in datasets:
        if x.shape[1] != p:
            raise DimMismatch("all agencies must hold the same features")
    bases = keygen.derive_bases(config.seed, p)
    row_counts = [x.shape[0] for x, _ in datasets]
    contexts = []
    for i, (x, y) in enumerate(datasets, start=1):
        rng = keygen.agency_rng(config.seed, i)
        keys = keygen.gen_agency_keys(
            bases, i, row_counts, config.block_size, rng,
            sigma_coeff=config.sigma_coeff,
        )
        delta = None
        if config.delta is not None and config.delta > 0.0:
            delta = rng.normal(0.0, config.delta, size=x.shape)
        contexts.append(
            protocol.AgencyContext(
                i, x, y, keys, bases, config.mode, rng, delta=delta
            )
        )
    protocol.inject_tamper(contexts, config.tamper)
    return contexts, bases


def _holders(origin, k):
    """The agencies that mask origin's shard, in order: origin, origin + 1,
    ... (mod k). Agency a therefore always receives from a - 1 and sends to
    a + 1, and a shard's last pass goes to the cloud."""
    return tuple((origin + j - 1) % k + 1 for j in range(k))


def _expect(frame, me, msg_type, origin, round_, applied):
    """Return ``frame`` if its whole header is the one ``me`` expects:
    type, origin (the sender, on a ring), round and exactly the ids applied
    before this hop; otherwise raise :class:`ProtocolOrderViolation`."""
    want = (msg_type, origin, round_, applied)
    got = (frame.msg_type, frame.origin, frame.round, frame.applied)
    if got != want:
        raise ProtocolOrderViolation(
            f"participant {me} expected (type, origin, round, applied) "
            f"{want}, got {got}"
        )
    return frame


def _agency_shard_work(ctx, transport, k):
    """One agency's shard phase: encrypt its own, pass every visitor on."""
    me = ctx.agency_id

    def forward(frame):  # a shard masked by all k agencies goes to the cloud
        transport.send(me, me % k + 1 if frame.round < k else CLOUD, frame)

    forward(protocol.local_encrypt(ctx))
    for r in range(1, k):  # origin me - r's shard arrives with r masks on it
        origin = (me - r - 1) % k + 1
        frame = transport.recv((me - 2) % k + 1, me)
        forward(protocol.pass_encrypt(ctx, _expect(
            frame, me, MSG_SHARD, origin, r, _holders(origin, k)[:r])))


def run_pre_modeling(contexts, transport):
    """Execute the masking ring and return the cloud's assembled view.

    The first exception any participant records aborts the transport, so
    everyone else stops waiting at once, and is re-raised here as itself.
    """
    k = len(contexts)
    errors = []

    def fail(exc):
        errors.append(exc)
        transport.abort(exc)

    def work(ctx):
        try:
            _agency_shard_work(ctx, transport, k)
        except Exception as exc:  # re-raised by the caller after join
            fail(exc)

    threads = [
        threading.Thread(target=work, args=(ctx,), daemon=True)
        for ctx in contexts
    ]
    for t in threads:
        t.start()
    shards = []
    try:
        for origin in range(1, k + 1):
            holders = _holders(origin, k)
            shards.append(_expect(transport.recv(holders[-1], CLOUD), CLOUD,
                                  MSG_SHARD, origin, k, holders))
    except Exception as exc:  # wakes the agencies before the join below
        fail(exc)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    block_size = contexts[0].keys.block_size
    return protocol.assemble_aggregate(shards, k, block_size)


def ring_pass(contexts, transport, msg_type, matrix, step):
    """Carry one matrix cloud -> 1 -> ... -> k -> cloud; return what returns.

    Agency ``a`` replaces the matrix by ``step(contexts[a - 1], matrix)``
    and appends its id to the frame's applied ids. Every hop carries round
    0, and hop ``a`` must arrive from ``a - 1`` with ids (1, ..., a - 1),
    so the cloud gets back only a matrix every agency stepped exactly once.
    """
    k = len(contexts)
    hops = [CLOUD, *range(1, k + 1), CLOUD]
    transport.send(CLOUD, 1, Frame(msg_type, CLOUD, 0, (), (matrix,)))
    for prev, a, nxt in zip(hops, hops[1:], hops[2:]):
        frame = _expect(transport.recv(prev, a), a, msg_type, prev, 0,
                        tuple(range(1, a)))
        matrix = step(contexts[a - 1], frame.matrices[0])
        transport.send(a, nxt, Frame(msg_type, a, 0, frame.applied + (a,),
                                     (matrix,)))
    frame = _expect(transport.recv(k, CLOUD), CLOUD, msg_type, k, 0,
                    tuple(range(1, k + 1)))
    return frame.matrices[0]


def release_key_factor(contexts, transport):
    """Round-robin release of R_B, the triangular factor of the stacked
    feature keys: R_BᵀR_B = (ΠB_i)ᵀ(ΠB_i)."""
    p = contexts[0].keys.b_key.shape[0]
    return ring_pass(contexts, transport, MSG_GRAM_RELEASE, np.eye(p),
                     protocol.gram_release_step)


def fold_rows(agg, folds):
    """Assign whole mask blocks to folds, round-robin within each agency.

    Every fold therefore contains complete blocks only (so row masks never
    straddle a fold boundary) and every agency contributes blocks to every
    fold. Raises :class:`FoldBlockMisaligned` when an agency has fewer
    blocks than folds.
    """
    assignments = [[] for _ in range(folds)]
    for origin, (lo, hi) in enumerate(agg.origin_rows, start=1):
        agency_blocks = [
            (a, b) for a, b in agg.block_ranges if a >= lo and b <= hi
        ]
        if len(agency_blocks) < folds:
            raise FoldBlockMisaligned(
                f"agency {origin} has {len(agency_blocks)} mask blocks, "
                f"fewer than {folds} folds; lower the block size or folds"
            )
        for j, (a, b) in enumerate(agency_blocks):
            assignments[j % folds].extend(range(a, b))
    return [np.asarray(rows, dtype=np.intp) for rows in assignments]


@dataclass
class RunReport:
    """Everything a run produces, ready to serialize."""

    config: dict
    protocol_info: dict
    estimate: np.ndarray
    verify: protocol.VerifyReport
    metrics: dict
    timings_ms: dict
    cv: dict = None

    def beta(self):
        return self.estimate[:, 0]

    def to_dict(self):
        out = {
            "config": self.config,
            "protocol": self.protocol_info,
            "estimate": [[float(v) for v in row] for row in self.estimate],
            "beta": [float(v) for v in self.estimate[:, 0]],
            "verify": {
                "verdict": self.verify.verdict,
                "max_deviation": float(self.verify.max_deviation),
                "tolerance": float(self.verify.tolerance),
            },
            "metrics": self.metrics,
            "timings_ms": self.timings_ms,
        }
        if self.cv is not None:
            out["cv"] = self.cv
        return out


def _config_echo(config, p, n_total):
    return {
        "k": config.k,
        "mode": config.mode,
        "lambda": float(config.lam),
        "lambda_grid": [float(v) for v in config.lambda_grid],
        "folds": config.folds,
        "block_size": config.block_size,
        "degree": keygen.default_degree(p),
        "sigma_coeff": float(config.sigma_coeff),
        "delta": None if config.delta is None else float(config.delta),
        "seed": int(config.seed),
        "transport": config.transport,
        "verify_tol": protocol.VERIFY_TOL,
        "tamper": {
            "action": config.tamper.action,
            "agency": config.tamper.agency,
            "magnitude": float(config.tamper.magnitude),
        },
        "n": int(n_total),
        "p": int(p),
    }


def _metrics(datasets, beta):
    """Pooled MSE (and AUC for a binary response) of ``beta`` on every
    agency's rows. Each agency's rows are scored by ``einsum``: one BLAS
    matvec over all of them is large enough to wake BLAS's worker threads
    (DECISIONS.md, "No BLAS call on an op's path is large enough to
    thread")."""
    y = np.concatenate([y for _, y in datasets])
    scores = np.concatenate([np.einsum("ij,j->i", x, beta)
                             for x, _ in datasets])
    out = {"mse": float(mse(y, scores))}
    if np.unique(y).size == 2:
        out["auc"] = float(auc(y, scores))
    return out


def run_protocol(datasets, config):
    """Full run: keygen, masking ring, cloud fit, decryption, verification."""
    return _run(datasets, config)


def cross_validate_encrypted(datasets, config):
    """K-fold ridge cross-validation entirely on masked data.

    Fits every (lambda, fold) pair on the masked aggregate in one batched
    solve, decrypts only their 3x3 residual Grams (never per-fold
    estimates), all stacked in one matrix that makes one decryption ring
    whatever the grid and fold count, picks the lambda with the smallest
    mean fold MSE (ties favor the smallest lambda), refits on all rows from
    the fold factors and decrypts that single final estimate.
    """
    if config.mode != "ridge":
        raise ValueError("cross-validation tunes lambda; use mode='ridge'")
    return _run(datasets, config, select_lambda=_select_lambda)


def _select_lambda(contexts, transport, agg, config):
    """Encrypted CV over ``config.lambda_grid``; returns (lambda, cv info).

    Each fold's rows are factored once; a fold's training factor is the R
    of the other folds' stacked factors, and the R of all of them is the
    factor of every row, which is left on ``agg.z_factor`` for the final
    fit. All L·F (lambda, fold) fits are one stacked ``solve_factor`` call,
    each O(p³) whatever the row count. Their L·F masked residual Grams go
    around the decryption ring once, as one (3·L·F, 3) stack.
    """
    folds = fold_rows(agg, config.folds)
    test_r = np.stack([protocol.r_factor(agg.z_star[rows]) for rows in folds])
    train_r = np.stack([
        protocol.r_factor(np.vstack(np.delete(test_r, f, axis=0)))
        for f in range(config.folds)
    ])
    agg.z_factor = protocol.r_factor(np.vstack(test_r))
    grid = [float(v) for v in config.lambda_grid]
    values = protocol.solve_factor(
        train_r, "ridge", np.asarray(grid)[:, None], agg.key_factor
    )
    stack = protocol.residual_gram(test_r, values).reshape(-1, 3)
    s_plain = ring_pass(contexts, transport, MSG_RESIDUAL_GRAM, stack,
                        protocol.residual_gram_decrypt_step)
    if s_plain.shape != stack.shape:
        raise ProtocolOrderViolation(
            f"sent {len(stack) // 3} stacked residual Grams around the "
            f"ring, got back shape {s_plain.shape}"
        )
    sizes = np.array([rows.size for rows in folds])
    fold_mse = s_plain[::3, 0].reshape(len(grid), config.folds) / sizes
    mean_mse = fold_mse.mean(axis=1)
    chosen_idx = int(np.argmin(mean_mse))  # argmin takes the first of ties
    logger.info("cv chose lambda=%g", grid[chosen_idx])
    return grid[chosen_idx], {
        "lambda_grid": grid,
        "fold_mse": [[float(v) for v in row] for row in fold_mse],
        "mean_mse": [float(v) for v in mean_mse],
        "chosen_lambda": grid[chosen_idx],
        "chosen_index": chosen_idx,
        "folds": config.folds,
    }


@contextmanager
def _timed(timings, name):
    t = time.perf_counter()
    yield
    timings[name] = (time.perf_counter() - t) * 1e3


def _run(datasets, config, select_lambda=None):
    """One run from keygen to verdict; ``select_lambda`` picks the final
    fit's lambda on the masked aggregate, as encrypted CV does."""
    t0 = time.perf_counter()
    timings = {}
    datasets = [(np.asarray(x, float), np.asarray(y, float)) for x, y in datasets]

    with _timed(timings, "keygen"):
        contexts, _ = build_contexts(datasets, config)

    participants = [CLOUD] + [c.agency_id for c in contexts]
    transport = make_transport(config.transport, participants)
    try:
        with _timed(timings, "masking"):
            agg = run_pre_modeling(contexts, transport)
            if config.mode == "ridge":
                agg.key_factor = release_key_factor(contexts, transport)
        lam, cv = config.lam, None
        if select_lambda is not None:
            with _timed(timings, "cv"):
                lam, cv = select_lambda(contexts, transport, agg, config)
        with _timed(timings, "fit"):
            est = protocol.cloud_fit(agg, config.mode, lam=lam)
            if config.tamper.action == "perturb_result":
                est.values[0, 0] += config.tamper.magnitude
            elif config.tamper.action == "wrong_decrypt":
                rogue = protocol._find_agency(contexts, config.tamper.agency)
                rogue.keys.b_key = protocol._fresh_key(rogue)
        with _timed(timings, "decrypt"):
            plain = ring_pass(contexts, transport, MSG_ESTIMATE, est.values,
                              protocol.decrypt_round)
    finally:
        transport.close()

    with _timed(timings, "verify"):
        verify = protocol.verify_estimate(plain, config.mode)
    timings["total"] = (time.perf_counter() - t0) * 1e3

    p = datasets[0][0].shape[1]
    n_total = sum(x.shape[0] for x, _ in datasets)
    logger.info(
        "run complete: k=%d mode=%s n=%d p=%d verdict=%s",
        config.k, config.mode, n_total, p, verify.verdict,
    )
    return RunReport(
        config=_config_echo(config, p, n_total),
        protocol_info={
            "rounds": config.k,
            "transport": config.transport,
            "verification": "row-sum response" if config.mode == "linear"
            else "zero response",
        },
        estimate=plain,
        verify=verify,
        metrics=_metrics(datasets, plain[:, 0]),
        timings_ms=timings,
        cv=cv,
    )
