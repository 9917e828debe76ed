"""Acceptance gate: the nine release criteria, one pass/fail line each.

Each test prints a single ``[criterion N] label: PASS/FAIL`` line before
asserting, so a ``pytest -v -s`` run reads as a checklist. Tolerances are
stated inline next to each assertion.
"""

import json
import time

import numpy as np
import pytest

from maskreg.attacks import (
    INFINITE,
    NO_SOLUTION,
    UNIQUE,
    cpa_attack,
    cpa_rank_analysis,
    kpa_gram_sweep,
    ldp_ratio,
    ldp_sweep,
)
from maskreg.model import cross_validate, ols_fit, ridge_fit
from maskreg.protocol import TamperPlan
from maskreg.runner import (
    RunConfig,
    cross_validate_encrypted,
    fold_rows,
    run_protocol,
)

from fold_layout import fold_layout
from toy_instance import (
    TOY_BASE,
    TOY_COLUMN_SOLUTIONS,
    TOY_OBSERVED,
    TOY_TARGET,
    TOY_TRUE_COEFFS,
)


def report_line(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {label}: {status}{suffix}")


def rel_err(a, b):
    b = np.asarray(b, float)
    return float(np.max(np.abs(np.asarray(a, float) - b))
                 / max(np.max(np.abs(b)), 1e-300))


def instance_grid(count=50):
    """Deterministic instance sizes: n in [50,500], p in [2,30], k cycling."""
    rng = np.random.default_rng(20240817)
    ks = (1, 2, 3, 5)
    out = []
    for i in range(count):
        n = int(rng.integers(50, 501))
        p = int(rng.integers(2, 31))
        out.append((i, n, p, ks[i % 4]))
    return out


def synth_datasets(n, p, k, seed, noise=0.1):
    rng = np.random.default_rng([seed, n, p, k])
    x = rng.standard_normal((n, p))
    beta = rng.standard_normal(p)
    y = x @ beta + noise * rng.standard_normal(n)
    base, extra = divmod(n, k)
    shards, start = [], 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        shards.append((x[start:start + size], y[start:start + size]))
        start += size
    return shards, x, y


# ------------------------------------------------------------------ 1


def test_c1_linear_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed, n, p, k in instance_grid(50):
        datasets, x, y = synth_datasets(n, p, k, seed)
        report = run_protocol(datasets, RunConfig(k=k, seed=seed))
        assert report.verify.verdict == "accepted"
        worst = max(worst, rel_err(report.beta(), ols_fit(x, y)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    report_line(1, "linear oracle equivalence, 50 instances", ok,
                f"worst rel err {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 60.0


# ------------------------------------------------------------------ 2


def test_c2_ridge_oracle_equivalence():
    worst = 0.0
    for seed, n, p, k in instance_grid(50):
        datasets, x, y = synth_datasets(n, p, k, seed)
        for lam in (0.1, 1.0, 10.0):
            report = run_protocol(
                datasets, RunConfig(k=k, mode="ridge", lam=lam, seed=seed)
            )
            assert report.verify.verdict == "accepted"
            worst = max(worst, rel_err(report.beta(), ridge_fit(x, y, lam)))
    ok = worst <= 1e-8
    report_line(2, "ridge oracle equivalence, 50 instances x 3 lambdas", ok,
                f"worst rel err {worst:.3e}")
    assert worst <= 1e-8


# ------------------------------------------------------------------ 3


def test_c3_verification_soundness():
    violations = ("skip_pseudo_response", "non_commutative_key",
                  "perturb_result", "wrong_decrypt")
    detected = {a: 0 for a in violations}
    honest_worst = 0.0
    for seed in range(100):
        datasets, _, _ = synth_datasets(60, 4, 2, seed)
        mode = "linear" if seed % 2 == 0 else "ridge"
        honest = run_protocol(
            datasets, RunConfig(k=2, mode=mode, lam=1.0, seed=seed)
        )
        assert honest.verify.verdict == "accepted"
        honest_worst = max(honest_worst, honest.verify.max_deviation)
        for action in violations:
            plan = TamperPlan(action=action, agency=1 + seed % 2,
                              magnitude=0.01)
            bad = run_protocol(
                datasets, RunConfig(k=2, seed=seed, tamper=plan)
            )
            detected[action] += bad.verify.verdict == "tampered"
    ok = honest_worst <= 1e-6 and all(detected[a] == 100 for a in violations)
    report_line(3, "verification soundness", ok,
                f"honest max dev {honest_worst:.3e}, detections "
                + ", ".join(f"{a}={detected[a]}/100" for a in violations))
    assert honest_worst <= 1e-6
    for action in violations:
        assert detected[action] == 100, action


# ------------------------------------------------------------------ 4

def toy_attack():
    return cpa_attack(TOY_OBSERVED, TOY_TARGET, TOY_BASE, degree=3,
                      true_coeffs=TOY_TRUE_COEFFS)


def test_c4a_toy_instance_published_solutions():
    # The reference must solve the instance on its own terms: column j of
    # TOY_TARGET from [O B, O B^2, O B^3][:, j], built without cpa_attack.
    for j, w in enumerate(TOY_COLUMN_SOLUTIONS):
        design = np.column_stack([
            (TOY_OBSERVED @ np.linalg.matrix_power(TOY_BASE, m))[:, j]
            for m in (1, 2, 3)
        ])
        resid = float(np.linalg.norm(design @ w - TOY_TARGET[:, j]))
        assert resid <= 1e-3, (j, resid)
    rep = toy_attack()
    gap = float(np.max(np.abs(np.asarray(rep.solutions)
                              - TOY_COLUMN_SOLUTIONS)))
    ok = gap <= 0.01
    report_line(4, "toy instance matches published per-column solutions", ok,
                f"max gap {gap:.4f} vs 0.01 allowed")
    assert gap <= 0.01, (
        "per-column solves of the fixed toy instance do not reproduce the "
        "published triples; see DECISIONS.md for the recomputation "
        "evidence"
    )


def test_c4b_toy_instance_inconsistent():
    rep = toy_attack()
    ok = not rep.consistent
    report_line(4, "toy instance columns mutually inconsistent", ok)
    assert not rep.consistent


def test_c4c_toy_instance_rejects_true_coefficients():
    rep = toy_attack()
    ok = any(
        resid > 1e-3 * np.linalg.norm(w)
        for resid, w in zip(rep.true_coeff_residuals, rep.solutions)
    )
    report_line(4, "true coefficient vector leaves a large residual", ok)
    assert ok


# ------------------------------------------------------------------ 5


def test_c5_rank_classification_table():
    ok = True
    for n in range(2, 12):
        for p in range(2, 12):
            rank = min(n, p)
            got = cpa_rank_analysis(n, p, rank)
            if n >= p + 1 and rank == p:
                ok &= got == NO_SOLUTION
            elif n <= p:
                ok &= got == INFINITE
            ok &= got != UNIQUE
    # rank-deficient tall case also refuses a unique answer
    ok &= cpa_rank_analysis(10, 4, 3) != UNIQUE
    report_line(5, "rank case table: NoSolution / Infinite, never Unique", ok)
    assert ok


# ------------------------------------------------------------------ 6


def test_c6_kpa_gram_shrinkage():
    rng = np.random.default_rng(606)
    x22 = rng.standard_normal((100, 5))
    x22 = (x22 - x22.mean(axis=0)) / x22.std(axis=0)
    medians, _ = kpa_gram_sweep(x22, (1e-2, 1e-3, 1e-4), trials=50, seed=606)
    ok = medians[0] > medians[1] > medians[2]
    report_line(6, "recovered-Gram medians shrink with sigma_b", ok,
                "medians " + ", ".join(f"{m:.3e}" for m in medians))
    assert medians[0] > medians[1] > medians[2]


# ------------------------------------------------------------------ 7


def gaussian_cdf_ratio_oracle(integrate, t, norm1, norm2, sigma):
    """P(|N(0,(sigma*norm)^2)| <= t) ratio via ``integrate.quad``, no erf
    calls."""

    def mass(norm):
        z = t / (norm * sigma)
        val, _ = integrate.quad(
            lambda u: np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi),
            0.0, z, epsabs=1e-14, epsrel=1e-14, limit=200,
        )
        return 2.0 * val

    return mass(norm1) / mass(norm2)


def test_c7_ldp_limit_and_oracle():
    integrate = pytest.importorskip("scipy.integrate")
    sigmas = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)
    gap_a = abs(ldp_ratio(1.0, 1.0, 5.0, 1e-3) - 1.0)
    gap_b = abs(ldp_ratio(1.0, 1.0, 0.5, 1e-3) - 1.0)
    curve_a = ldp_sweep(1.0, 1.0, 5.0, sigmas)
    curve_b = ldp_sweep(1.0, 1.0, 0.5, sigmas)
    mono_a = bool(np.all(np.diff(curve_a.ratios) <= 0))  # falls toward 1
    mono_b = bool(np.all(np.diff(curve_b.ratios) >= 0))  # rises toward 1
    anchor = ldp_ratio(1.0, 1.0, 5.0, 0.1)
    oracle = gaussian_cdf_ratio_oracle(integrate, 1.0, 1.0, 5.0, 0.1)
    ok = (gap_a < 1e-3 and gap_b < 1e-3 and mono_a and mono_b
          and abs(anchor - oracle) < 1e-6)
    report_line(7, "privacy ratio limit, monotone sweep, quadrature oracle",
                ok, f"|ratio-1| {gap_a:.1e}/{gap_b:.1e}, "
                    f"anchor gap {abs(anchor - oracle):.1e}")
    assert gap_a < 1e-3 and gap_b < 1e-3
    assert mono_a and mono_b
    assert abs(anchor - oracle) < 1e-6


# ------------------------------------------------------------------ 8


def _plaintext_cv(datasets, config):
    layout = fold_layout([len(y) for _, y in datasets], config.block_size)
    folds = fold_rows(layout, config.folds)
    x = np.vstack([x for x, _ in datasets])
    y = np.concatenate([y for _, y in datasets])
    return cross_validate(x, y, config.lambda_grid, folds)


def test_c8_encrypted_cv_exactness():
    grid = (0.1, 1.0, 10.0)
    worst = 0.0
    for seed in range(10):
        datasets, _, _ = synth_datasets(200, 5, 2, seed, noise=0.5)
        for folds in (5, 10):
            config = RunConfig(k=2, mode="ridge", block_size=8, folds=folds,
                               lambda_grid=grid, seed=seed)
            enc = cross_validate_encrypted(datasets, config)
            oracle = _plaintext_cv(datasets, config)
            worst = max(worst, rel_err(enc.cv["fold_mse"], oracle.fold_mse))
            assert enc.cv["chosen_lambda"] == oracle.chosen_lambda
    exact_ok = worst <= 1e-8

    # the keys drawn must not move a single fold MSE
    sweep_worst = 0.0
    for seed in range(10):
        datasets, _, _ = synth_datasets(200, 5, 2, seed, noise=0.5)
        grids = []
        for key_seed in (seed, seed + 100, seed + 200):
            config = RunConfig(k=2, mode="ridge", block_size=8, folds=5,
                               lambda_grid=grid, seed=key_seed)
            enc = cross_validate_encrypted(datasets, config)
            grids.append(np.asarray(enc.cv["fold_mse"]))
        for other in grids[1:]:
            sweep_worst = max(sweep_worst, rel_err(other, grids[0]))
    sweep_ok = sweep_worst <= 1e-7

    ok = exact_ok and sweep_ok
    report_line(8, "encrypted CV equals plaintext CV; keys inert", ok,
                f"worst rel err {worst:.3e}, sweep spread {sweep_worst:.3e}")
    assert exact_ok
    assert sweep_ok


# ------------------------------------------------------------------ 9


def _comparable(report):
    payload = report.to_dict()
    payload.pop("timings_ms")
    payload["config"].pop("transport")
    payload["protocol"].pop("transport")
    return json.dumps(payload, sort_keys=True)


def test_c9_transport_determinism():
    ok = True
    detail = []
    # The last case sends 7.6 MB shards, more than the loopback socket
    # buffers hold, so TCP senders block until their peers read.
    cases = ((0, "linear", 120, 6, 3), (1, "ridge", 120, 6, 3),
             (2, "linear", 120, 6, 3), (3, "linear", 100_000, 16, 2))
    for seed, mode, n, p, k in cases:
        datasets, _, _ = synth_datasets(n, p, k, seed)
        r_bus = run_protocol(
            datasets, RunConfig(k=k, mode=mode, seed=seed, transport="bus")
        )
        r_tcp = run_protocol(
            datasets, RunConfig(k=k, mode=mode, seed=seed, transport="tcp")
        )
        same_bytes = r_bus.estimate.tobytes() == r_tcp.estimate.tobytes()
        same_report = _comparable(r_bus) == _comparable(r_tcp)
        accepted = r_bus.verify.accepted and r_tcp.verify.accepted
        ok &= same_bytes and same_report and accepted
        detail.append(f"seed {seed} {mode} n={n}: bytes={same_bytes}")
    report_line(9, "bus and TCP byte-identical", ok, "; ".join(detail))
    assert ok
