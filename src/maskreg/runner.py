"""Drives complete protocol runs over a transport.

The caller's thread drives every participant in a deterministic order.
The shard phase runs in rounds: each agency factors its own rows, then
keys every shard's fold factors once as they pass around the ring. The
release, decryption and cross-validation chains are strictly sequential
rings. All messages cross the configured transport as encoded frames
even when everything lives in one process — the bus and the TCP mesh
carry identical bytes.
"""

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


def _holders(origin, k):
    """The agencies that hold origin's shard, in order: origin, origin + 1,
    ... (mod k). Agency a therefore always receives from a - 1 and sends to
    a + 1, and the last holder sends the shard to the cloud."""
    return tuple((origin + j - 1) % k + 1 for j in range(k))


def _expect(frame, me, msg_type, applied):
    """Return ``frame`` if its whole header is the one ``me`` expects: its
    type and exactly the ids applied before this hop; otherwise raise
    :class:`ProtocolOrderViolation`. The sender is the channel's."""
    want = (msg_type, applied)
    got = (frame.msg_type, frame.applied)
    if got != want:
        raise ProtocolOrderViolation(f"participant {me} expected (type, "
                                     f"applied) {want}, got {got}")
    return frame


def _completed_shards(transport, k):
    """The cloud's completed shards, received in origin order, each frame's
    header checked as it arrives, as factor matrices."""
    for origin in range(1, k + 1):
        holders = _holders(origin, k)
        yield _expect(transport.recv(holders[-1], CLOUD), CLOUD, MSG_SHARD,
                      holders).matrix


def run_pre_modeling(contexts, transport, folds=1):
    """Execute the masking ring and return the cloud's assembled view.

    The caller's thread drives every agency in rounds. Each agency first
    factors its own shard into its ``folds`` keyed fold factors
    (``protocol.local_encrypt``). In round r = 1..k-1 every agency sends
    the shard it holds to the next, then every agency receives, checks and
    keys the one that arrived (``protocol.pass_encrypt``), so a channel
    holds at most one frame per round. Each last holder sends the cloud
    its shard, and the cloud stacks them in origin order
    (``protocol.assemble_aggregate``). An exception leaves from the call
    that raised it; the caller closes the transport.

    A shard's frame carries its holders so far, origin first: a receiver
    requires exactly that prefix of ``_holders``, which never holds the
    receiver, and the cloud all k of them.
    """
    k = len(contexts)
    shards = [Frame(MSG_SHARD, (a,), protocol.local_encrypt(ctx, folds))
              for a, ctx in enumerate(contexts, start=1)]
    for r in range(1, k):  # agency a gets origin a - r's shard, keyed r times
        for a, shard in enumerate(shards, start=1):
            transport.send(a, a % k + 1, shard)
        for a, ctx in enumerate(contexts, start=1):
            origin = (a - r - 1) % k + 1
            frame = _expect(transport.recv((a - 2) % k + 1, a), a, MSG_SHARD,
                            _holders(origin, k)[:r])
            shards[a - 1] = Frame(MSG_SHARD, frame.applied + (a,),
                                  protocol.pass_encrypt(ctx, frame.matrix,
                                                        folds, origin))
    for a, shard in enumerate(shards, start=1):
        transport.send(a, CLOUD, shard)
    keys = contexts[0].keys
    return protocol.assemble_aggregate(
        _completed_shards(transport, k), keys.row_counts, keys.block_size,
        folds)


#: What each ring carries, as its errors name it.
_RING_CARGO = {MSG_GRAM_RELEASE: "key factor", MSG_ESTIMATE: "estimate",
               MSG_RESIDUAL_GRAM: "stack of residual Grams"}


def ring_pass(contexts, transport, msg_type, matrix, step):
    """Carry one matrix cloud -> 1 -> ... -> k -> cloud; return what returns.

    Agency ``a`` replaces the matrix by ``step(contexts[a - 1], matrix)``
    and appends its id to the frame's applied ids. Hop ``a`` must arrive
    from ``a - 1`` with ids (1, ..., a - 1), so the cloud gets back only a
    matrix every agency stepped exactly once, and only in the shape it
    sent: any other raises :class:`ProtocolOrderViolation`.
    """
    k = len(contexts)
    shape = np.shape(matrix)
    hops = [CLOUD, *range(1, k + 1), CLOUD]
    transport.send(CLOUD, 1, Frame(msg_type, (), matrix))
    for prev, a, nxt in zip(hops, hops[1:], hops[2:]):
        frame = _expect(transport.recv(prev, a), a, msg_type,
                        tuple(range(1, a)))
        matrix = step(contexts[a - 1], frame.matrix)
        transport.send(a, nxt, Frame(msg_type, frame.applied + (a,), matrix))
    frame = _expect(transport.recv(k, CLOUD), CLOUD, msg_type,
                    tuple(range(1, k + 1)))
    if frame.matrix.shape != shape:
        raise ProtocolOrderViolation(
            f"cloud sent a {_RING_CARGO[msg_type]} of shape {shape} around "
            f"the ring, got back shape {frame.matrix.shape}")
    return frame.matrix


def release_key_factor(contexts, transport):
    """Round-robin release of R_B, the triangular factor of the stacked
    feature keys: R_BᵀR_B = (ΠB_i)ᵀ(ΠB_i)."""
    p = contexts[0].keys.b_key.shape[0]
    return ring_pass(contexts, transport, MSG_GRAM_RELEASE, np.eye(p),
                     protocol.gram_release_step)


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

    The masking phase left each fold's R factor on ``agg.fold_factors``; a
    fold's training factor is the R of the other folds' stacked factors,
    all folds in one stacked ``r_factor``. All L·F (lambda, fold) fits are
    one stacked ``solve_factor`` call, each O(p³) whatever the row count.
    Their L·F masked residual Grams go around the decryption ring once, as
    one (3·L·F, 3) stack.
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
