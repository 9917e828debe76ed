"""Tests for plaintext fits and metrics."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maskreg.errors import RankDeficient, SingleClass
from maskreg.model import auc, cross_validate, mse, ols_fit, ridge_fit


def test_ols_matches_lstsq():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 5))
    y = rng.standard_normal(40)
    ref, *_ = np.linalg.lstsq(x, y, rcond=None)
    np.testing.assert_allclose(ols_fit(x, y), ref, atol=1e-12)


def test_ols_multi_response():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 4))
    y = rng.standard_normal((30, 3))
    beta = ols_fit(x, y)
    assert beta.shape == (4, 3)


def test_ols_rejects_rank_deficiency():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, 3))
    x = np.hstack([x, x[:, :1]])  # duplicated column
    with pytest.raises(RankDeficient):
        ols_fit(x, rng.standard_normal(20))


def test_ridge_closed_form():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((25, 4))
    y = rng.standard_normal(25)
    lam = 3.0
    ref = np.linalg.solve(x.T @ x + lam * np.eye(4), x.T @ y)
    np.testing.assert_allclose(ridge_fit(x, y, lam), ref, atol=1e-12)


def test_ridge_zero_penalty_equals_ols():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 3))
    y = rng.standard_normal(30)
    np.testing.assert_allclose(ridge_fit(x, y, 0.0), ols_fit(x, y), atol=1e-10)


def test_ridge_rejects_negative_penalty():
    with pytest.raises(ValueError):
        ridge_fit(np.eye(3), np.ones(3), -1.0)


def test_mse():
    assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert mse([0.0, 0.0], [1.0, -1.0]) == 1.0


def test_auc_perfect_separation():
    y = np.array([0, 0, 0, 1, 1])
    scores = np.array([0.1, 0.2, 0.3, 0.8, 0.9])
    assert auc(y, scores) == 1.0
    assert auc(y, -scores) == 0.0


def test_auc_ties_count_half():
    y = np.array([0, 1, 0, 1])
    scores = np.array([0.5, 0.5, 0.5, 0.5])
    assert auc(y, scores) == 0.5


def test_auc_partial_ties_match_pairwise_count():
    # Mann-Whitney by brute force: each (positive, negative) pair scores 1
    # when the positive ranks higher and 1/2 on a tie.
    rng = np.random.default_rng(7)
    for n, levels in [(12, 3), (40, 5), (101, 20), (7, 2)]:
        y = rng.integers(0, 2, size=n)
        y[:2] = (0, 1)
        scores = rng.integers(0, levels, size=n) / 4.0
        diff = scores[y == 1][:, None] - scores[y == 0][None, :]
        ref = ((diff > 0).sum() + 0.5 * (diff == 0).sum()) / diff.size
        assert auc(y, scores) == ref


def test_auc_any_two_values():
    # the larger response value is the positive class
    y = np.array([-1, -1, 2, 2])
    scores = np.array([0.0, 0.1, 0.9, 1.0])
    assert auc(y, scores) == 1.0


def test_auc_single_class_rejected():
    with pytest.raises(SingleClass):
        auc(np.ones(4), np.arange(4.0))


def test_cross_validate_picks_best_lambda():
    rng = np.random.default_rng(5)
    n, p = 100, 5
    x = rng.standard_normal((n, p))
    y = x @ rng.normal(size=p) + 0.1 * rng.standard_normal(n)
    folds = [np.arange(i, n, 5) for i in range(5)]
    rep = cross_validate(x, y, (0.01, 0.1, 1.0, 10.0), folds)
    assert rep.fold_mse.shape == (4, 5)
    assert rep.chosen_lambda == rep.lambda_grid[rep.chosen_index]
    assert rep.mean_mse[rep.chosen_index] == rep.mean_mse.min()


def test_cross_validate_tie_breaks_to_smallest():
    # constant response: every lambda gives identical fold errors
    x = np.eye(4)
    y = np.zeros(4)
    folds = [np.array([0, 1]), np.array([2, 3])]
    rep = cross_validate(x, y, (0.5, 1.0, 2.0), folds)
    assert rep.chosen_lambda == 0.5


def test_cross_validate_deterministic():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((60, 3))
    y = rng.standard_normal(60)
    folds = [np.arange(i, 60, 3) for i in range(3)]
    a = cross_validate(x, y, (0.1, 1.0), folds)
    b = cross_validate(x, y, (0.1, 1.0), folds)
    assert np.array_equal(a.fold_mse, b.fold_mse)


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, maskreg; print(' '.join(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
