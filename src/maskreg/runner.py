"""Drives complete protocol runs over a transport.

The caller's thread drives every participant in a deterministic order,
one ring at a time, and every ring is one ``ring_pass``. Each agency's
shard travels its own ring, from the agency that factors it through
every other agency, which keys its fold factors once, to the cloud; the
release, decryption and cross-validation rings start and end at the
cloud. All messages cross the configured transport as encoded frames
even when everything lives in one process — the bus and the TCP mesh
carry identical bytes.
"""

import functools
import logging
import math
import numbers
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
    TRANSPORTS,
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
    delta: float = None
    seed: int = 0
    transport: str = "bus"
    tamper: protocol.TamperPlan = field(default_factory=protocol.TamperPlan)

    def __post_init__(self):
        for name in ("k", "folds", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, "
                                 f"got {getattr(self, name)!r}")
        if self.k < 1:
            raise ValueError(f"need at least one agency, got k={self.k}")
        if self.k >= MAX_PARTICIPANTS:
            raise TooManyAgencies(
                f"wire format addresses at most {MAX_PARTICIPANTS - 1} "
                f"agencies, got k={self.k}"
            )
        if self.mode not in protocol.MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport!r}")
        if (not isinstance(self.block_size, numbers.Integral)
                or self.block_size < 1):
            raise ValueError(f"block_size must be an integer >= 1, "
                             f"got {self.block_size!r}")
        if self.folds < 2:
            raise ValueError(f"need at least two folds, got {self.folds}")
        if len(self.lambda_grid) == 0:
            raise ValueError("lambda_grid is empty")
        for lam in (self.lam, *self.lambda_grid):
            if not 0.0 <= lam < math.inf:  # NaN fails both comparisons
                raise ValueError(f"lambda must be finite and >= 0, got {lam}")
        if self.delta is not None and not 0.0 <= self.delta < math.inf:
            raise ValueError(
                f"delta must be None or finite and >= 0, got {self.delta}"
            )
        if (self.tamper.action not in ("honest", "perturb_result")
                and not 1 <= self.tamper.agency <= self.k):
            raise ValueError(f"tamper agency {self.tamper.agency} is not "
                             f"one of agencies 1..{self.k}")


def build_contexts(datasets, config):
    """Derive bases, generate every agency's keys, and build their
    contexts."""
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
        keys = keygen.gen_agency_keys(bases, i, row_counts,
                                      config.block_size, rng)
        if config.delta is not None and config.delta > 0.0:
            offset = rng.normal(0.0, config.delta, size=x.shape)
            offset += x  # the offset rows, with no second (n, p) array
            x = offset
        contexts.append(
            protocol.AgencyContext(i, x, y, keys, bases, config.mode, rng))
    protocol.inject_tamper(contexts, config.tamper)
    return contexts


def channels(k):
    """The run's (src, dst) pairs, sorted: each agency a sends to the next
    around the ring, a % k + 1 (for k >= 2), and to the cloud, and the
    cloud sends to agency 1. That is 2k + 1 channels, or 2 for k = 1."""
    ring = [(a, a % k + 1) for a in range(1, k + 1)] if k >= 2 else []
    return sorted([(CLOUD, 1), *ring, *((a, CLOUD) for a in range(1, k + 1))])


def _expect(frame, me, msg_type, applied, shape):
    """Return ``frame`` if its whole header is the one ``me`` expects: its
    type, exactly the ids applied before this hop and its matrix's shape,
    which is public; otherwise raise :class:`ProtocolOrderViolation`. The
    sender is the channel's."""
    want = (msg_type, applied, shape)
    got = (frame.msg_type, frame.applied, frame.matrix.shape)
    if got != want:
        raise ProtocolOrderViolation(f"participant {me} expected (type, "
                                     f"applied, shape) {want}, got {got}")
    return frame


def run_pre_modeling(contexts, transport, folds=1):
    """Execute the masking rings and return the cloud's assembled view.

    One origin at a time, each agency factors its own shard into its
    ``folds`` keyed fold factors (``protocol.local_encrypt``) and starts
    its shard's ``ring_pass``: every other agency keys it once
    (``protocol.pass_encrypt``) and the last holder sends it to the
    cloud, which stacks the completed shards in origin order
    (``protocol.assemble_aggregate``). Every shard frame has the public
    shape (F·q, q): F fold factors of the q = p + 3 columns
    [X | y, v, decoy]. An exception leaves from the call that raised it;
    the caller closes the transport.
    """
    def completed_shards():
        for origin, ctx in enumerate(contexts, start=1):
            yield ring_pass(
                contexts, transport, MSG_SHARD,
                protocol.local_encrypt(ctx, folds),
                functools.partial(protocol.pass_encrypt, origin=origin),
                start=origin)

    keys = contexts[0].keys
    return protocol.assemble_aggregate(completed_shards(), keys.row_counts,
                                       keys.block_size, folds)


def ring_pass(contexts, transport, msg_type, matrix, step, start=CLOUD):
    """Carry one matrix from ``start`` once around the agencies to the
    cloud; return what reaches the cloud.

    The cloud starts a ring with no id applied, and it goes 1, ..., k.
    An origin agency starts its shard's ring with its own factors as
    ``matrix`` and its id applied, and it goes origin + 1, ..., k, 1, ...,
    origin - 1. Each agency ``a`` after the start replaces the matrix by
    ``step(contexts[a - 1], matrix)`` and appends its id to the frame's
    applied ids. Each hop must arrive from the previous holder with
    exactly the ids applied before it and in the shape of the matrix the
    ring starts with, which is public: (F·q, q) for a shard, p×p for the
    R_B release, p×3 for the estimate and (3·L·F)×3 for the residual
    Grams of L lambdas and F folds. So the cloud gets back only a matrix
    every agency stepped exactly once, in that shape: any other frame
    raises :class:`ProtocolOrderViolation` where it arrives.
    """
    k = len(contexts)
    shape = np.shape(matrix)
    applied = () if start == CLOUD else (start,)
    hops = [start, *((start + j) % k + 1 for j in range(k - len(applied))),
            CLOUD]
    transport.send(start, hops[1], Frame(msg_type, applied, matrix))
    for prev, a, nxt in zip(hops, hops[1:], hops[2:]):
        frame = _expect(transport.recv(prev, a), a, msg_type, applied, shape)
        matrix = step(contexts[a - 1], frame.matrix)
        applied += (a,)
        transport.send(a, nxt, Frame(msg_type, applied, matrix))
    return _expect(transport.recv(hops[-2], CLOUD), CLOUD, msg_type, applied,
                   shape).matrix


# perfbench/workloads.py:130 calls fold_rows (ROADMAP direction 2)
def fold_rows(layout, folds):
    """Assign whole blocks to folds, round-robin within each agency.

    ``layout`` gives each agency's row range in the stacked order as
    ``origin_rows`` and each block's as ``block_ranges``. Every fold
    therefore contains complete blocks only, as in
    ``protocol.shard_factors``, and every agency contributes blocks to
    every fold. Raises :class:`FoldBlockMisaligned` when an agency has
    fewer blocks than folds.
    """
    assignments = [[] for _ in range(folds)]
    for origin, (lo, hi) in enumerate(layout.origin_rows, start=1):
        agency_blocks = [
            (a, b) for a, b in layout.block_ranges if a >= lo and b <= hi
        ]
        if len(agency_blocks) < folds:
            raise FoldBlockMisaligned(
                f"agency {origin} has {len(agency_blocks)} blocks, "
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
            "estimate": [[_finite(v) for v in row] for row in self.estimate],
            "beta": [_finite(v) for v in self.estimate[:, 0]],
            "verify": {
                "verdict": self.verify.verdict,
                "max_deviation": _finite(self.verify.max_deviation),
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
    agency's rows; a metric that overflows, as a tampered β of 1e200 makes
    the MSE, is None. Each agency's rows are scored by ``einsum``: one BLAS
    matvec over all of them is large enough to wake BLAS's worker threads
    (DECISIONS.md, "No BLAS call on an op's path is large enough to
    thread")."""
    y = np.concatenate([y for _, y in datasets])
    with np.errstate(over="ignore", invalid="ignore"):
        scores = np.concatenate([np.einsum("ij,j->i", x, beta)
                                 for x, _ in datasets])
        out = {"mse": mse(y, scores)}
        lo, hi = y.min(), y.max()
        if lo != hi and np.all((y == lo) | (y == hi)):  # two values, no sort
            out["auc"] = auc(y, scores)
    return {name: _finite(v) for name, v in out.items()}


def _finite(v):
    """``v`` as a float, or None when it is not finite: report.json is
    strict JSON."""
    return float(v) if math.isfinite(v) else None


def run_protocol(datasets, config):
    """Full run: keygen, masking ring, cloud fit, decryption, verification."""
    return _run(datasets, config)


def cross_validate_encrypted(datasets, config):
    """K-fold ridge cross-validation entirely on masked data.

    Fits every (lambda, fold) pair on the masked aggregate from one SVD
    per fold (``protocol.solve_factor``), decrypts only their 3x3
    residual Grams (never per-fold estimates), all stacked in one matrix
    that makes one decryption ring whatever the grid and fold count, and
    picks the lambda with the smallest mean fold MSE. Ties go to the first
    lambda in grid order, as in ``model.cross_validate``: on an unsorted
    grid that need not be the smallest. It then refits on all rows from
    the fold factors and decrypts that single final estimate.
    """
    if config.mode != "ridge":
        raise ValueError("cross-validation tunes lambda; use mode='ridge'")
    return _run(datasets, config, select_lambda=_select_lambda)


def _select_lambda(contexts, transport, agg, config):
    """Encrypted CV over ``config.lambda_grid``; returns (lambda, cv info).

    The masking phase left each fold's R factor on ``agg.fold_factors``; a
    fold's training factor is the R of the other folds' stacked factors,
    all folds in one stacked ``r_factor``. All L·F (lambda, fold) fits are
    one stacked ``solve_factor`` call: one SVD per training factor, O(p³)
    whatever the row count, then O(p²) per lambda. Their L·F masked
    residual Grams go around the decryption ring once, as one (3·L·F, 3)
    stack.
    """
    test_r = agg.fold_factors
    q = test_r.shape[-1]
    train_r = protocol.r_factor(np.stack([
        np.delete(test_r, f, axis=0).reshape(-1, q)
        for f in range(config.folds)
    ]))
    grid = [float(v) for v in config.lambda_grid]
    values = protocol.solve_factor(
        train_r, "ridge", np.asarray(grid)[:, None], agg.key_factor
    )
    stack = protocol.residual_gram(test_r, values).reshape(-1, 3)
    s_plain = ring_pass(contexts, transport, MSG_RESIDUAL_GRAM, stack,
                        protocol.residual_gram_decrypt_step)
    fold_mse = (s_plain[::3, 0].reshape(len(grid), config.folds)
                / np.asarray(agg.fold_sizes))
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
        contexts = build_contexts(datasets, config)

    transport = make_transport(config.transport, channels(config.k))
    try:
        with _timed(timings, "masking"):
            agg = run_pre_modeling(
                contexts, transport,
                folds=1 if select_lambda is None else config.folds,
            )
            if config.mode == "ridge":
                p = contexts[0].keys.b_key.shape[0]
                agg.key_factor = ring_pass(contexts, transport,
                                           MSG_GRAM_RELEASE, np.eye(p),
                                           protocol.gram_release_step)
        lam, cv = config.lam, None
        if select_lambda is not None:
            with _timed(timings, "cv"):
                lam, cv = select_lambda(contexts, transport, agg, config)
        with _timed(timings, "fit"):
            est = protocol.cloud_fit(agg, config.mode, lam=lam)
            if config.tamper.action == "perturb_result":
                est.values[0, 0] += config.tamper.magnitude
            elif config.tamper.action == "wrong_decrypt":
                rogue = contexts[config.tamper.agency - 1]
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
