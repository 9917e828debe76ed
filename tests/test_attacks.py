"""Tests for the adversary workbench."""

import math

import numpy as np
import pytest

from maskreg.attacks import (
    INFINITE,
    NO_SOLUTION,
    cpa_attack,
    cpa_rank_analysis,
    draw_poly_key,
    kpa_gram_sweep,
    kpa_scenario_one,
    kpa_scenario_two,
    ldp_ratio,
    ldp_sweep,
    poly_key,
)
from maskreg.errors import DimMismatch, SingularResult
from maskreg.keygen import derive_bases
from maskreg.matrix_core import random_orthogonal
from toy_instance import (
    TOY_BASE,
    TOY_COLUMN_SOLUTIONS,
    TOY_OBSERVED,
    TOY_TARGET,
    TOY_TRUE_COEFFS,
)


def test_toy_instance_regression():
    rep = cpa_attack(TOY_OBSERVED, TOY_TARGET, TOY_BASE, degree=3,
                     true_coeffs=TOY_TRUE_COEFFS)
    for j in range(3):
        np.testing.assert_allclose(
            rep.solutions[j], TOY_COLUMN_SOLUTIONS[j], atol=1e-3
        )
    assert not rep.consistent
    # substituting the true coefficients leaves a large residual in every
    # column: the attacker could not even confirm the right answer
    for resid, w in zip(rep.true_coeff_residuals, rep.solutions):
        assert resid > 1e-3 * np.linalg.norm(w)


def test_toy_instance_is_row_masked_cubic_key():
    # TOY_TARGET = A @ TOY_OBSERVED @ K with A orthogonal to print
    # precision; a mistyped constant breaks this before any reference moves.
    key = poly_key(TOY_BASE, TOY_TRUE_COEFFS)
    row_mask = TOY_TARGET @ np.linalg.inv(key) @ np.linalg.inv(TOY_OBSERVED)
    sv = np.linalg.svd(row_mask, compute_uv=False)
    np.testing.assert_allclose(sv, 1.0, atol=0.01)


def test_honest_attack_recovers_coefficients():
    rng = np.random.default_rng(0)
    n = p = 5
    degree = 3
    bases = derive_bases(0, p)
    coeffs, key = draw_poly_key(bases.b_basis, degree, rng)
    x = rng.standard_normal((n, p))
    a_true = random_orthogonal(n, rng)
    rep = cpa_attack(a_true @ x, x @ key, bases.b_basis, a_plus=a_true.T,
                     degree=degree, true_coeffs=coeffs)
    assert rep.consistent
    for w in rep.solutions:
        np.testing.assert_allclose(w, coeffs, atol=1e-6)


@pytest.mark.parametrize("p", [3, 5, 8])
def test_attack_fails_without_row_mask_knowledge(p):
    failures = 0
    trials = 100
    for seed in range(trials):
        rng = np.random.default_rng([p, seed])
        bases = derive_bases(seed, p)
        _, key = draw_poly_key(bases.b_basis, 3, rng)
        x = rng.standard_normal((p, p))
        a_true = random_orthogonal(p, rng)
        rep = cpa_attack(a_true @ x, x @ key, bases.b_basis, a_plus=None,
                         degree=3)
        if not rep.consistent:
            failures += 1
    assert failures == trials


def test_fresh_square_instances_inconsistent():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        bases = derive_bases(seed + 100, 4)
        _, key = draw_poly_key(bases.b_basis, 3, rng)
        x = rng.standard_normal((4, 4))
        a_true = random_orthogonal(4, rng)
        rep = cpa_attack(a_true @ x, x @ key, bases.b_basis, degree=3)
        assert not rep.consistent


def test_cpa_attack_dim_checks():
    with pytest.raises(DimMismatch):
        cpa_attack(np.zeros((3, 3)), np.zeros((4, 3)), TOY_BASE)
    with pytest.raises(DimMismatch):
        cpa_attack(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((2, 2)))


def test_rank_analysis_case_table():
    assert cpa_rank_analysis(10, 5, 5) == NO_SOLUTION
    assert cpa_rank_analysis(3, 5, 3) == INFINITE
    assert cpa_rank_analysis(3, 3, 3) == INFINITE
    # a rank-deficient tall observation leaves free directions
    assert cpa_rank_analysis(10, 5, 4) == INFINITE


def test_rank_analysis_never_unique():
    for n in range(1, 12):
        for p in range(1, 9):
            for r in range(1, min(n, p) + 1):
                assert cpa_rank_analysis(n, p, r) in (NO_SOLUTION, INFINITE)


def test_rank_analysis_rejects_impossible_rank():
    with pytest.raises(ValueError):
        cpa_rank_analysis(3, 3, 4)


def test_kpa_one_zero_data():
    rep = kpa_scenario_one(np.zeros((10, 3)), 0.1, np.random.default_rng(0))
    assert np.all(rep.recovered == 0.0)


def test_kpa_one_small_sigma_bound():
    rng = np.random.default_rng(1)
    x22 = rng.standard_normal((50, 4))
    assert np.max(np.abs(x22.T @ x22)) < 1e3
    rep = kpa_scenario_one(x22, 1e-6, np.random.default_rng(2))
    assert np.max(np.abs(rep.recovered)) <= 1e-3


def test_kpa_one_medians_shrink_with_sigma():
    rng = np.random.default_rng(3)
    x22 = rng.standard_normal((100, 5))
    x22 = (x22 - x22.mean(axis=0)) / x22.std(axis=0)
    medians, grid = kpa_gram_sweep(x22, (1e-2, 1e-3, 1e-4), 50, seed=5)
    assert grid.shape == (3, 50)
    assert medians[0] > medians[1] > medians[2]


@pytest.mark.parametrize("rows, trials, what", [(10, 0, "one trial"),
                                                (1, 5, "two rows")])
def test_kpa_sweep_rejects_what_gives_a_nan_median(rows, trials, what):
    x22 = np.random.default_rng(3).standard_normal((rows, 3))
    with pytest.raises(ValueError, match=f"at least {what}"):
        kpa_gram_sweep(x22, (1e-2,), trials, seed=5)


def test_kpa_two_no_mask_recovers_exactly():
    rng = np.random.default_rng(4)
    x11 = rng.standard_normal((4, 4))
    x22 = rng.standard_normal((4, 4))
    rep = kpa_scenario_two(x11, x11, x22, x22)  # identity masks
    assert rep.deviation_max < 1e-10
    np.testing.assert_allclose(rep.recovered, x22, atol=1e-10)


def test_kpa_two_masked_formula_and_failure():
    large_deviations = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        p = 5
        bases = derive_bases(seed, p)
        _, b1 = draw_poly_key(bases.b_basis, 3, rng)
        _, b2 = draw_poly_key(bases.b_basis, 3, rng)
        x11 = rng.standard_normal((p, p))
        x22 = rng.standard_normal((p, p))
        rep = kpa_scenario_two(x11, x11 @ b1, x22 @ b2, x22)
        expected = x11 @ np.linalg.inv(b1) @ np.linalg.inv(x11) @ x22 @ b2
        np.testing.assert_allclose(rep.recovered, expected, atol=1e-8)
        if rep.deviation_max > 0.1 * np.max(np.abs(x22)):
            large_deviations += 1
    assert large_deviations == 20


def test_kpa_two_singular_known_block():
    with pytest.raises(SingularResult):
        kpa_scenario_two(np.eye(3), np.zeros((3, 3)), np.eye(3), np.eye(3))


def test_ldp_ratio_symmetry():
    for t, sigma in [(1.0, 0.5), (2.0, 0.1)]:
        assert ldp_ratio(t, 3.0, 3.0, sigma) == 1.0


def test_ldp_ratio_reference_value():
    assert abs(ldp_ratio(1.0, 1.0, 5.0, 0.1) - 1.0477) < 1e-3


def test_ldp_ratio_matches_gaussian_cdf_quadrature():
    integrate = pytest.importorskip("scipy.integrate")
    # independent oracle: integrate the standard normal density over the
    # standardized event (-t/s, t/s)
    def prob(norm, t, sigma):
        bound = t / (norm * sigma)
        val, _ = integrate.quad(
            lambda u: math.exp(-u * u / 2.0) / math.sqrt(2 * math.pi),
            0.0, bound, epsabs=1e-14, epsrel=1e-14, limit=200,
        )
        return 2.0 * val

    for t, n1, n2, sigma in [(1.0, 1.0, 5.0, 0.1), (2.0, 0.7, 1.3, 0.4),
                             (1.0, 1.0, 0.5, 0.05)]:
        oracle = prob(n1, t, sigma) / prob(n2, t, sigma)
        assert abs(ldp_ratio(t, n1, n2, sigma) - oracle) < 1e-9


def test_ldp_ratio_monotone_toward_one():
    # below sigma ~0.02 the erf saturates to exactly 1.0 at double
    # precision, so strict comparisons only make sense above that
    ratios = [ldp_ratio(1.0, 1.0, 5.0, s) for s in (1.0, 0.3, 0.1)]
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ldp_ratio(1.0, 1.0, 5.0, 0.001) == 1.0


def test_ldp_sweep_curve_shape():
    curve = ldp_sweep(1.0, 1.0, 5.0, (1.0, 0.1, 0.01, 0.001))
    assert len(curve.ratios) == 4
    diffs = [abs(r - 1.0) for r in curve.ratios]
    assert diffs == sorted(diffs, reverse=True)
    assert curve.ratios[-1] == pytest.approx(1.0, abs=1e-3)
    for r, e in zip(curve.ratios, curve.implied_eps):
        assert e == pytest.approx(abs(math.log(r)))


def test_ldp_sweep_flipped_norms_approach_from_below():
    curve = ldp_sweep(1.0, 1.0, 0.5, (1.0, 0.5, 0.25))
    assert all(r < 1.0 for r in curve.ratios)
    diffs = [abs(r - 1.0) for r in curve.ratios]
    assert diffs == sorted(diffs, reverse=True)


def test_ldp_sweep_single_point():
    curve = ldp_sweep(1.0, 2.0, 3.0, (0.2,))
    assert curve.ratios == (ldp_ratio(1.0, 2.0, 3.0, 0.2),)


def test_ldp_sweep_requires_descending_grid():
    with pytest.raises(ValueError):
        ldp_sweep(1.0, 1.0, 5.0, (0.01, 0.1))


def test_masked_entry_variance_matches_theory():
    # one row masked by an entrywise-Gaussian key: each output coordinate
    # has variance ||x||^2 sigma^2
    rng = np.random.default_rng(8)
    x = rng.standard_normal(6)
    sigma = 0.3
    samples = np.array([
        (x @ rng.normal(0.0, sigma, size=(6, 6)))[0] for _ in range(10_000)
    ])
    theory = (np.linalg.norm(x) * sigma) ** 2
    assert abs(samples.var() - theory) < 0.2 * theory
