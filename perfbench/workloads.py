"""The benchmark's workloads: inputs, the op, the plaintext oracle, checks.

Inputs depend only on the workload seed. Every op runs on the same pooled
rows with a fresh key seed derived from the workload seed, so the oracle
is computed once per run. The rationale for each workload is in README.md.
"""

import re
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

#: Maximum relative error (max-norm) against the plaintext oracle.
ORACLE_TOL = 1e-8

#: Additive corruption the tamper guard puts on the cloud's estimate.
TAMPER_MAGNITUDE = 0.01

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass(frozen=True)
class Spec:
    name: str
    k: int
    rows_per_agency: int
    p: int
    transport: str
    beta_scale: float
    noise: float
    cv: bool = False
    folds: int = 5
    grid: tuple = ()
    block_size: int = 16


# README.md gives each workload's reasons. Every shape stays clear of the
# grid points where ops fail today (p >= 32, linear fits with k >= 6), which
# README.md lists. On cv_select, the small beta and unit noise put the CV
# optimum inside the lambda grid, clear of near-ties.
SPECS = {
    spec.name: spec
    for spec in (
        Spec("tall_fit",
             k=3, rows_per_agency=24_000, p=16, transport="bus",
             beta_scale=1.0, noise=0.1),
        Spec("cv_select",
             k=2, rows_per_agency=12_000, p=24, transport="bus",
             beta_scale=0.2, noise=1.0, cv=True,
             grid=tuple(float(v) for v in np.logspace(-3.0, 2.0, 16))),
        Spec("ring_tcp",
             k=4, rows_per_agency=4_000, p=24, transport="tcp",
             beta_scale=1.0, noise=0.1),
    )
}


def make_inputs(spec, seed):
    """Pooled rows (x, y) and their equal split across the agencies."""
    rng = np.random.default_rng([seed, spec.k, spec.p])
    n = spec.k * spec.rows_per_agency
    x = rng.standard_normal((n, spec.p))
    beta = spec.beta_scale * rng.standard_normal(spec.p)
    y = x @ beta + spec.noise * rng.standard_normal(n)
    m = spec.rows_per_agency
    shards = [(x[i * m:(i + 1) * m], y[i * m:(i + 1) * m])
              for i in range(spec.k)]
    return x, y, shards


def op_seeds(seed):
    """Endless per-op key seeds derived from the workload seed."""
    rng = np.random.default_rng([seed, 0x5EED])
    while True:
        yield int(rng.integers(0, 2**62))


def config(spec, op_seed, transport=None):
    from maskreg.runner import RunConfig

    if spec.cv:
        return RunConfig(k=spec.k, mode="ridge", folds=spec.folds,
                         lambda_grid=spec.grid, block_size=spec.block_size,
                         seed=op_seed, transport=transport or spec.transport)
    return RunConfig(k=spec.k, mode="linear", block_size=spec.block_size,
                     seed=op_seed, transport=transport or spec.transport)


def entry_name(spec):
    return "cross_validate_encrypted" if spec.cv else "run_protocol"


def run_op(spec, shards, op_seed, transport=None):
    """One full protocol call, looked up on the runner module at call time."""
    from maskreg import runner

    return getattr(runner, entry_name(spec))(
        shards, config(spec, op_seed, transport))


@dataclass(frozen=True)
class Oracle:
    beta: np.ndarray
    chosen_lambda: float = None
    fold_mse: np.ndarray = None


def fold_layout(spec):
    """The cloud's row and block layout, which ``runner.fold_rows`` reads."""
    from maskreg.matrix_core import split_block_sizes

    origin_rows, block_ranges, offset = [], [], 0
    for _ in range(spec.k):
        origin_rows.append((offset, offset + spec.rows_per_agency))
        for size in split_block_sizes(spec.rows_per_agency, spec.block_size):
            block_ranges.append((offset, offset + size))
            offset += size
    return SimpleNamespace(origin_rows=tuple(origin_rows),
                           block_ranges=tuple(block_ranges))


def oracle(spec, x, y):
    """Plaintext answer from ``maskreg.model`` on the pooled rows."""
    from maskreg import model
    from maskreg.runner import fold_rows

    if not spec.cv:
        return Oracle(beta=model.ols_fit(x, y))
    folds = fold_rows(fold_layout(spec), spec.folds)
    cv = model.cross_validate(x, y, spec.grid, folds)
    return Oracle(beta=model.ridge_fit(x, y, cv.chosen_lambda),
                  chosen_lambda=cv.chosen_lambda, fold_mse=cv.fold_mse)


def rel_err(a, b):
    """Max-norm relative error, as in the acceptance tests."""
    b = np.asarray(b, float)
    return float(np.max(np.abs(np.asarray(a, float) - b))
                 / max(np.max(np.abs(b)), 1e-300))


def check(report, truth):
    """Return (failure reason or None, relative error of beta)."""
    err = rel_err(report.beta(), truth.beta)
    if report.verify.verdict != "accepted":
        return f"verdict_{report.verify.verdict}", err
    if truth.chosen_lambda is not None:
        if report.cv["chosen_lambda"] != truth.chosen_lambda:
            return "lambda_mismatch", err
        if rel_err(report.cv["fold_mse"], truth.fold_mse) > ORACLE_TOL:
            return "fold_mse_miss", err
    if err > ORACLE_TOL:
        return "oracle_miss", err
    return None, err


def tampered_verdict(spec, shards, op_seed):
    """Verdict of one op whose cloud result is perturbed before decryption.

    The perturbation is the one ``TamperPlan("perturb_result")`` applies,
    injected by wrapping ``protocol.cloud_fit`` so that it reaches the final
    fit on both entry points; ``cross_validate_encrypted`` does not act on
    that tamper plan itself.
    """
    from maskreg import protocol

    original = protocol.cloud_fit

    def perturbed(agg, mode, lam=0.0, rows=None):
        est = original(agg, mode, lam=lam, rows=rows)
        if rows is None:
            est.values[0, 0] += TAMPER_MAGNITUDE
        return est

    protocol.cloud_fit = perturbed
    try:
        return run_op(spec, shards, op_seed).verify.verdict
    finally:
        protocol.cloud_fit = original
