"""Tune the ridge penalty by cross-validation without decrypting folds.

Each agency assigns whole row blocks to folds and sends one keyed R
factor per fold, so the cloud can fit on any union of folds. Only a 3x3
residual Gram is decrypted per (penalty, fold) pair -- fold MSEs come out
exact while per-fold estimates stay hidden.
"""

import numpy as np

from maskreg import RunConfig, cross_validate_encrypted


def main():
    rng = np.random.default_rng(23)
    p = 6
    beta = np.concatenate([rng.standard_normal(3), np.zeros(p - 3)])
    datasets = []
    for _ in range(2):
        x = rng.standard_normal((120, p))
        y = x @ beta + 1.0 * rng.standard_normal(120)  # noisy: ridge helps
        datasets.append((x, y))

    config = RunConfig(
        k=2, mode="ridge", block_size=8, folds=5,
        lambda_grid=(0.01, 0.1, 1.0, 10.0, 100.0), seed=23,
    )
    report = cross_validate_encrypted(datasets, config)
    cv = report.cv

    print(f"{'lambda':>10}{'mean fold MSE':>16}")
    print("-" * 26)
    for lam, mse in zip(cv["lambda_grid"], cv["mean_mse"]):
        marker = "  <- chosen" if lam == cv["chosen_lambda"] else ""
        print(f"{lam:>10g}{mse:>16.6f}{marker}")

    print()
    print("final estimate (decrypted once, after the choice):")
    print(np.round(report.beta(), 4))
    print("verdict:", report.verify.verdict)
    print()
    print("the same grid recomputed on plaintext with the same fold "
          "assignment agrees to ~1e-11 relative; see "
          "tests/test_acceptance.py (criterion 8) for the exact check.")


if __name__ == "__main__":
    main()
