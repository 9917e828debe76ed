"""What a coalition learns by feeding crafted rows through a re-encryption.

A malicious agency observes its own shard after another agency's key was
applied and tries to solve for that key's polynomial coefficients column by
column. Without the row mask the column systems contradict each other; with
the row mask handed over, the same solve recovers the key exactly. The rank
analysis explains both regimes.
"""

import numpy as np

from maskreg import (
    cpa_attack,
    cpa_rank_analysis,
    derive_bases,
    draw_poly_key,
    random_orthogonal,
)


def main():
    rng = np.random.default_rng(40)
    n = p = 4
    degree = 3

    bases = derive_bases(40, p)
    coeffs, key = draw_poly_key(bases.b_basis, degree, rng)
    a_mask = random_orthogonal(n, rng)

    x = rng.standard_normal((n, p))
    observed = a_mask @ x          # what the attacker saw in round one
    target = x @ key               # the re-encrypted probe it wants to invert

    naive = cpa_attack(observed, target, bases.b_basis,
                       a_plus=None, degree=degree, true_coeffs=coeffs)
    informed = cpa_attack(observed, target, bases.b_basis,
                          a_plus=a_mask.T, degree=degree, true_coeffs=coeffs)

    print("true key coefficients:", np.round(coeffs, 4))
    print()
    print("attacker WITHOUT the row mask (per-column solves):")
    for j, (w, r) in enumerate(zip(naive.solutions, naive.residuals)):
        print(f"  column {j}: {np.round(w, 4)}   residual {r:.3e}")
    print("  columns agree?", naive.consistent)
    print("  residual when forcing the true coefficients:",
          np.round(naive.true_coeff_residuals, 3))
    print()
    print("attacker WITH the row mask handed over:")
    for j, w in enumerate(informed.solutions):
        print(f"  column {j}: {np.round(w, 4)}")
    print("  columns agree?", informed.consistent)
    print()
    print("rank analysis of the attacker's linear system:")
    for nn, pp in ((10, 4), (4, 4), (3, 4)):
        verdict = cpa_rank_analysis(nn, pp, min(nn, pp))
        print(f"  n={nn:>2}, p={pp}: {verdict}")
    print()
    print("a unique solve never occurs: either the overdetermined system "
          "is contradictory or the square/underdetermined one is degenerate")


if __name__ == "__main__":
    main()
