"""Three agencies fit one regression without ever pooling raw rows.

Each agency factors its shard into a small triangular R and keys it with
a commutative column key, the ring passes add every other agency's key to
those factors, and the cloud solves least squares on ciphertext.
Decryption unwinds only the coefficient matrix -- the rows never leave
their owners.
"""

import numpy as np

from maskreg import RunConfig, ols_fit, run_protocol


def main():
    rng = np.random.default_rng(7)
    beta_true = np.array([1.5, -2.0, 0.0, 0.75])
    datasets = []
    for rows in (120, 80, 100):  # agencies hold different sample counts
        x = rng.standard_normal((rows, 4))
        y = x @ beta_true + 0.05 * rng.standard_normal(rows)
        datasets.append((x, y))

    report = run_protocol(datasets, RunConfig(k=3, seed=7))

    x_all = np.vstack([x for x, _ in datasets])
    y_all = np.concatenate([y for _, y in datasets])
    pooled = ols_fit(x_all, y_all)

    print("true coefficients:     ", np.round(beta_true, 6))
    print("pooled plaintext OLS:  ", np.round(pooled, 6))
    print("protocol estimate:     ", np.round(report.beta(), 6))
    print("max |protocol - OLS|:  ",
          f"{np.max(np.abs(report.beta() - pooled)):.3e}")
    print("verification verdict:  ", report.verify.verdict,
          f"(max deviation {report.verify.max_deviation:.3e})")
    print("phase timings (ms):    ",
          {k: round(v, 2) for k, v in report.timings_ms.items()})


if __name__ == "__main__":
    main()
