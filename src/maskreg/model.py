"""Plaintext regression fits and evaluation metrics.

These serve double duty: as the reference the masked protocol must
reproduce, and as the in-the-clear baseline for data each party is allowed
to see.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotPD, RankDeficient, SingleClass

logger = logging.getLogger(__name__)


def ols_fit(x, y):
    """Least-squares coefficients for y ~ x (no intercept column added).

    Raises RankDeficient when x has linearly dependent columns, since the
    masked pipeline assumes a unique solution.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < x.shape[1]:
        raise RankDeficient(
            f"design matrix has rank {rank} < {x.shape[1]} columns"
        )
    return beta


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


def ridge_fit(x, y, lam):
    """Ridge coefficients (x^T x + lam I)^-1 x^T y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if lam < 0:
        raise ValueError(f"ridge penalty must be nonnegative, got {lam}")
    p = x.shape[1]
    return solve_spd(x.T @ x + lam * np.eye(p), x.T @ y)


def mse(y_true, y_pred):
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    return float(np.mean((y_true - y_pred) ** 2))


def auc(y_true, scores):
    """Rank-based AUC (Mann-Whitney), ties counted half.

    `y_true` must contain exactly two distinct values; the larger one is
    the positive class.
    """
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=float)
    classes = np.unique(y_true)
    if classes.size != 2:
        raise SingleClass(
            f"AUC needs exactly two classes, got {classes.size}"
        )
    pos = y_true == classes[1]
    n_pos = int(pos.sum())
    n_neg = y_true.size - n_pos
    # Average ranks: a value's tied run ends at cumsum(counts).
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@dataclass(frozen=True)
class CvReport:
    """Plaintext cross-validation outcome."""

    lambda_grid: tuple
    fold_mse: np.ndarray  # (len(grid), folds)
    mean_mse: np.ndarray
    chosen_lambda: float
    chosen_index: int


def cross_validate(x, y, lambda_grid, fold_indices):
    """Plaintext ridge CV over explicit test-row folds.

    `fold_indices` is a sequence of row-index arrays (the test rows of each
    fold); using the same assignment as the masked run makes the two
    procedures directly comparable. Ties on mean MSE go to the smallest
    lambda in grid order.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    grid = [float(v) for v in lambda_grid]
    folds = len(fold_indices)
    fold_mse = np.zeros((len(grid), folds))
    n = x.shape[0]
    for li, lam in enumerate(grid):
        for f, test_rows in enumerate(fold_indices):
            test_rows = np.asarray(test_rows, dtype=np.intp)
            mask = np.ones(n, dtype=bool)
            mask[test_rows] = False
            beta = ridge_fit(x[mask], y[mask], lam)
            pred = x[test_rows] @ beta
            fold_mse[li, f] = mse(y[test_rows], pred)
    mean_mse = fold_mse.mean(axis=1)
    chosen = int(np.argmin(mean_mse))
    logger.debug("plaintext cv chose lambda=%g", grid[chosen])
    return CvReport(
        lambda_grid=tuple(grid),
        fold_mse=fold_mse,
        mean_mse=mean_mse,
        chosen_lambda=grid[chosen],
        chosen_index=chosen,
    )
