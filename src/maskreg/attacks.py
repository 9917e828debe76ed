"""Adversary workbench: attack solvers and the privacy-ratio analyzer.

Everything here plays the *attacker*: given what a malicious party could
plausibly observe, how much of the hidden data or key material falls out.
The protocol modules never import this one.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, SingularResult

logger = logging.getLogger(__name__)

# A per-column system counts as solved when the least-squares residual is
# below this fraction of the solution norm; exact rank arithmetic is out of
# reach in floating point.
SOLVE_RTOL = 1e-6
CONSISTENT_TOL = 1e-6


@dataclass(frozen=True)
class CpaReport:
    """Outcome of the chosen-plaintext coefficient solve.

    solutions holds one least-squares coefficient vector per target
    column; solved marks which columns met the residual threshold (False
    means the column admits no solution at working precision). The attack
    as a whole succeeds only when every column solves and all solutions
    agree, which `consistent` captures.
    """

    solutions: tuple          # d-vectors, one per column
    residuals: tuple          # 2-norm residual per column
    solved: tuple             # bool per column
    consistent: bool
    true_coeffs: np.ndarray = None
    true_coeff_residuals: tuple = None


def cpa_attack(x_star_1, x_star_new, basis, a_plus=None, degree=3,
               true_coeffs=None):
    """Solve for re-encryption coefficients column by column.

    The attacker models ``x_star_new approx (a_plus @ x_star_1) @ K`` with
    ``K`` a polynomial in `basis` of the given degree (no constant term),
    and solves each column of the target independently by least squares.
    When `a_plus` really inverts the row mask the columns agree and the
    coefficients are recovered; when it does not, the per-column answers
    contradict each other, which is the attack's failure mode.

    a_plus=None means the attacker ignores the row mask (identity guess).
    """
    x_star_1 = np.asarray(x_star_1, dtype=float)
    x_star_new = np.asarray(x_star_new, dtype=float)
    basis = np.asarray(basis, dtype=float)
    n, p = x_star_1.shape
    if x_star_new.shape != (n, p):
        raise DimMismatch(
            f"observation shapes differ: {x_star_1.shape} vs {x_star_new.shape}"
        )
    if basis.shape != (p, p):
        raise DimMismatch(f"basis must be {p}x{p}, got {basis.shape}")
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    if a_plus is None:
        r = x_star_1
    else:
        a_plus = np.asarray(a_plus, dtype=float)
        if a_plus.shape != (n, n):
            raise DimMismatch(f"a_plus must be {n}x{n}, got {a_plus.shape}")
        r = a_plus @ x_star_1

    # designs[m] = r @ basis^(m+1); stacked once, sliced per column.
    designs = np.empty((degree, n, p))
    acc = r
    for m in range(degree):
        acc = acc @ basis
        designs[m] = acc

    solutions, residuals, solved, true_resid = [], [], [], []
    if true_coeffs is not None:
        true_coeffs = np.asarray(true_coeffs, dtype=float)
        if true_coeffs.shape != (degree,):
            raise DimMismatch(
                f"true_coeffs must have length {degree}, got {true_coeffs.shape}"
            )
    for j in range(p):
        d_j = designs[:, :, j].T  # n x degree
        u_j = x_star_new[:, j]
        w_j, _, _, _ = np.linalg.lstsq(d_j, u_j, rcond=None)
        resid = float(np.linalg.norm(d_j @ w_j - u_j))
        solutions.append(w_j)
        residuals.append(resid)
        solved.append(bool(resid <= SOLVE_RTOL * np.linalg.norm(w_j) + 1e-12))
        if true_coeffs is not None:
            true_resid.append(float(np.linalg.norm(d_j @ true_coeffs - u_j)))

    consistent = all(solved)
    if consistent:
        for a in range(p):
            for b in range(a + 1, p):
                gap = np.max(np.abs(solutions[a] - solutions[b]))
                if gap > CONSISTENT_TOL:
                    consistent = False
                    break
            if not consistent:
                break
    logger.debug(
        "cpa: %d/%d columns solved, consistent=%s",
        sum(solved), p, consistent,
    )
    return CpaReport(
        solutions=tuple(solutions),
        residuals=tuple(residuals),
        solved=tuple(solved),
        consistent=consistent,
        true_coeffs=true_coeffs,
        true_coeff_residuals=tuple(true_resid) if true_coeffs is not None
        else None,
    )


NO_SOLUTION = "no_solution"
INFINITE = "infinite"
UNIQUE = "unique"


def cpa_rank_analysis(n, p, rank_xstar):
    """Classify the unconstrained key-recovery system by counting.

    The attacker who refuses the polynomial structure must solve for a full
    p x p key from n observed rows: n*p equations against p*p unknowns,
    with coefficient rank at most rank_xstar * p. The system is therefore
    never uniquely solvable: with n <= p it is underdetermined (infinitely
    many keys fit), and with n >= p+1 rows of a full-rank observation the
    extra equations are inconsistent for a wrong row-mask guess.
    """
    if rank_xstar > min(n, p):
        raise ValueError(
            f"rank {rank_xstar} exceeds min(n={n}, p={p})"
        )
    if n <= p:
        return INFINITE
    if rank_xstar == p:
        return NO_SOLUTION
    return INFINITE


@dataclass(frozen=True)
class KpaReport:
    """Outcome of a known-plaintext recovery attempt."""

    scenario: str             # "I" or "II"
    recovered: np.ndarray
    deviation_max: float      # max-norm of (recovered - truth)
    sigma_b: float = None


def kpa_scenario_one(x22, sigma_b, rng):
    """Known-rows attack against the Gram of the hidden block.

    The adversary's best reconstruction of the hidden Gram is the masked
    one, B^T (X22^T X22) B, with B drawn entrywise N(0, sigma_b^2) -- raw,
    no spectral rescale, so the shrinkage bound applies as stated. As
    sigma_b -> 0 every entry of the recovered Gram collapses to zero and
    the attack learns nothing.
    """
    x22 = np.asarray(x22, dtype=float)
    if x22.size == 0:
        raise DimMismatch("x22 must be nonempty")
    if sigma_b <= 0:
        raise ValueError(f"sigma_b must be positive, got {sigma_b}")
    p = x22.shape[1]
    for _ in range(100):
        b = rng.normal(0.0, sigma_b, size=(p, p))
        if np.linalg.cond(b) < 1e12:
            break
    else:  # pragma: no cover - vanishing probability
        raise SingularResult("could not sample an invertible mask")
    gram = x22.T @ x22
    recovered = b.T @ gram @ b
    deviation = float(np.max(np.abs(recovered - gram)))
    return KpaReport("I", recovered, deviation, sigma_b=float(sigma_b))


def kpa_gram_sweep(x22, sigmas, trials, seed):
    """Median max-entry of the scenario-I recovered Gram per sigma.

    Returns (medians, grid) where grid[i, t] is the max-entry of trial t at
    sigmas[i]; the grid is the plot-data behind the shrinkage heatmap.
    Raises ``ValueError`` for fewer than one trial or two rows, whose
    medians or standardized rows would be NaN.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if np.shape(x22)[0] < 2:
        raise ValueError(f"need at least two rows, got {np.shape(x22)[0]}")
    grid = np.zeros((len(sigmas), trials))
    for i, sigma in enumerate(sigmas):
        for t in range(trials):
            rng = np.random.default_rng([seed, i, t])
            rep = kpa_scenario_one(x22, sigma, rng)
            grid[i, t] = np.max(np.abs(rep.recovered))
    return np.median(grid, axis=1), grid


def kpa_scenario_two(x11, z_star_11, z_star_22, x22_truth):
    """Known-columns attack: chain the observed blocks through the known one.

    Recovers x11 @ inv(z_star_11) @ z_star_22, which equals the truth only
    if both blocks were masked by the same key and no row mask was applied.
    """
    x11 = np.asarray(x11, dtype=float)
    z_star_11 = np.asarray(z_star_11, dtype=float)
    z_star_22 = np.asarray(z_star_22, dtype=float)
    x22_truth = np.asarray(x22_truth, dtype=float)
    if z_star_11.shape[0] != z_star_11.shape[1]:
        raise DimMismatch(
            f"z_star_11 must be square, got {z_star_11.shape}"
        )
    try:
        chained = np.linalg.solve(z_star_11, z_star_22)
    except np.linalg.LinAlgError as exc:
        raise SingularResult(f"z_star_11 is singular: {exc}") from None
    recovered = x11 @ chained
    if recovered.shape != x22_truth.shape:
        raise DimMismatch(
            f"recovered {recovered.shape} vs truth {x22_truth.shape}"
        )
    deviation = float(np.max(np.abs(recovered - x22_truth)))
    return KpaReport("II", recovered, deviation)


def ldp_ratio(t, norm1, norm2, sigma):
    """Probability ratio of the masked first coordinate landing in (-t, t).

    A row x masked by an entrywise-Gaussian key puts its first coordinate
    in N(0, ||x||^2 sigma^2), so the ratio for two rows is
    erf(t / (sqrt(2) norm1 sigma)) / erf(t / (sqrt(2) norm2 sigma)). It
    tends to 1 as sigma -> 0: vanishing masks make any two rows' outputs
    indistinguishable.
    """
    if t <= 0 or norm1 <= 0 or norm2 <= 0 or sigma <= 0:
        raise ValueError("all arguments must be positive")
    return (math.erf(t / (math.sqrt(2.0) * norm1 * sigma))
            / math.erf(t / (math.sqrt(2.0) * norm2 * sigma)))


@dataclass(frozen=True)
class LdpCurve:
    """Privacy ratio across a descending sigma grid."""

    t: float
    norm1: float
    norm2: float
    sigmas: tuple
    ratios: tuple
    implied_eps: tuple  # |ln ratio| per point, for this event family only


def ldp_sweep(t, norm1, norm2, sigmas):
    """Evaluate the ratio along a sigma grid, largest sigma first."""
    sigmas = tuple(float(s) for s in sigmas)
    if any(a <= b for a, b in zip(sigmas, sigmas[1:])):
        raise ValueError("sigmas must be sorted strictly descending")
    ratios = tuple(ldp_ratio(t, norm1, norm2, s) for s in sigmas)
    eps = tuple(abs(math.log(r)) for r in ratios)
    return LdpCurve(
        t=float(t), norm1=float(norm1), norm2=float(norm2),
        sigmas=sigmas, ratios=ratios, implied_eps=eps,
    )
