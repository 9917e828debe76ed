"""Key material: shared commuting bases and per-agency mask keys.

Every agency derives the same pair of base matrices from a shared seed and
then draws private polynomial coefficients over those bases. Because all
feature-side keys are polynomials in the same base matrix (and likewise for
the response side), any two agencies' keys commute, which is what lets the
ring protocol apply them in arbitrary order.

Keygen draws no row masks: a shard travels as the R factors of its fold
blocks, which a block-orthogonal row mask inside the folds would leave
unchanged (see ``protocol``).

The decrypted estimate has to match a plaintext solve to ~1e-8 relative
even though every intermediate matrix crosses the wire in float64, so the
product of all agencies' keys must stay well conditioned. The bases are
built, not screened: each is ``V·Λ·V⁻¹`` with cond(V) ≤ 2 and no
eigenvalue modulus below 0.6 times the largest (see ``_constructed_base``).
The one remaining screen is per key, on the spread of its polynomial over
the base spectrum (see ``draw_commuting_key``).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, ResampleExhausted
# random_ortho_blocks is no longer called here; perfbench/spans.py still
# wraps the name keygen.random_ortho_blocks, so it stays importable.
from .matrix_core import (  # noqa: F401
    commute_materialize,
    random_ortho_blocks,
    random_orthogonal,
    split_block_sizes,
)

#: Hard cap on polynomial degree for feature-side keys.
MAX_KEY_DEGREE = 16

#: Degree of response-side keys (the response bundle always has 3 columns).
RESPONSE_KEY_DEGREE = 3

#: Attempts when drawing one key's coefficient vector.
KEY_ATTEMPTS = 100

#: Budget for max|poly|/min|poly| over the base spectrum of the *product*
#: of all agencies' keys; each agency targets the K-th root of this.
PRODUCT_SPREAD_BUDGET = 1000.0

#: Condition-number cap on a single materialized key.
KEY_COND_MAX = 1e4

# Stream tags keep the seed-derived generators disjoint.
_TAG_BASES = 0xB5
_TAG_AGENCY = 0xA6


def default_degree(p):
    """Feature-side key degree of every protocol key."""
    return min(p, MAX_KEY_DEGREE)


@dataclass(frozen=True)
class MaskBases:
    """Shared base matrices all agencies build their keys from.

    Attributes:
        b_basis: (p, p) unit-spectral-norm base for feature-side keys.
        c_basis: (3, 3) unit-spectral-norm base for response-side keys.
        b_spectrum, c_spectrum: eigenvalues of each base, computed once
            for every key drawn over it.
    """

    b_basis: np.ndarray
    c_basis: np.ndarray
    b_spectrum: np.ndarray = field(repr=False)
    c_spectrum: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.b_basis.shape[0] != self.b_basis.shape[1]:
            raise DimMismatch("b_basis must be square")
        if self.c_basis.shape != (3, 3):
            raise DimMismatch("c_basis must be 3x3")


@dataclass
class AgencyKeys:
    """One agency's private key material.

    Attributes:
        agency_id: 1-based agency identifier.
        b_key: materialized feature-side key (p, p).
        c_key: materialized response-side key (3, 3).
        row_counts: rows held by every agency, in agency order; each
            hop checks a shard's row count against its origin's entry.
        block_size: rows per fold block.
    """

    agency_id: int
    b_key: np.ndarray
    c_key: np.ndarray
    row_counts: tuple
    block_size: int


def _constructed_base(dim, rng):
    """Unit-spectral-norm base ``V·Λ·V⁻¹`` with a well-conditioned ``V``.

    ``V = Q₁·diag(s)·Q₂`` with Haar ``Q₁``, ``Q₂`` and ``s ~ U[1, 2]``, so
    cond(V) ≤ 2 and ``V⁻¹ = Q₂ᵀ·diag(1/s)·Q₁ᵀ`` needs no solve. ``Λ`` is
    block diagonal: 2×2 rotations scaled by moduli ``~ U[0.6, 1]``, plus
    one real ±r entry when ``dim`` is odd. The base is therefore
    non-symmetric with complex-conjugate eigenvalue pairs, like a Gaussian
    draw, but no eigenvalue modulus is below 0.6 times the largest.
    """
    q1 = random_orthogonal(dim, rng)
    q2 = random_orthogonal(dim, rng)
    s = rng.uniform(1.0, 2.0, dim)
    radii = rng.uniform(0.6, 1.0, (dim + 1) // 2)
    angles = rng.uniform(0.0, np.pi, dim // 2)
    lam = np.zeros((dim, dim))
    for i, (r, t) in enumerate(zip(radii, angles)):
        c, sn = r * np.cos(t), r * np.sin(t)
        lam[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[c, -sn], [sn, c]]
    if dim % 2:
        lam[-1, -1] = radii[-1] * rng.choice((-1.0, 1.0))
    v = (q1 * s) @ q2
    v_inv = (q2.T / s) @ q1.T
    base = v @ lam @ v_inv
    return base / np.linalg.norm(base, 2)


def _poly_spread(coeffs, eigvals):
    """max/min of |sum_j coeffs[j-1] z**j| over the base eigenvalues."""
    vals = np.abs(np.polyval(np.append(coeffs[::-1], 0.0), eigvals))
    lo = vals.min()
    if lo == 0.0:
        return np.inf
    return vals.max() / lo


def derive_bases(shared_seed, p):
    """Derive the shared mask bases from the agencies' common seed.

    Deterministic: every agency calling with the same seed and shape gets
    bit-identical bases, without exchanging any key material.

    Args:
        shared_seed: non-negative integer seed agreed by all agencies.
        p: number of features (feature-side base is p x p).

    Returns:
        MaskBases with unit-spectral-norm bases.
    """
    if p < 1:
        raise DimMismatch(f"need at least one feature, got p={p}")
    rng = np.random.default_rng([int(shared_seed) % 2**64, _TAG_BASES])
    b_basis = _constructed_base(p, rng)
    c_basis = _constructed_base(3, rng)
    return MaskBases(b_basis=b_basis, c_basis=c_basis,
                     b_spectrum=np.linalg.eigvals(b_basis),
                     c_spectrum=np.linalg.eigvals(c_basis))


def draw_commuting_key(basis, degree, rng, num_agencies, sigma_coeff=1.0,
                       spectrum=None):
    """Draw one key: coefficients plus the materialized matrix.

    Coefficients are i.i.d. ``N(0, sigma_coeff**2)``. A draw is preferred
    when its polynomial's spectral spread is below the per-agency share of
    ``PRODUCT_SPREAD_BUDGET``; after ``KEY_ATTEMPTS`` draws the smallest
    spread seen is used instead. The materialized key must satisfy the
    condition-number cap or :class:`ResampleExhausted` is raised.
    ``spectrum`` is the eigenvalues of ``basis`` (``MaskBases`` carries
    them); they are computed here when it is not given. ``degree`` must
    be in 1..``MAX_KEY_DEGREE``.
    """
    if not 1 <= degree <= MAX_KEY_DEGREE:
        raise DimMismatch(
            f"degree must be in [1, {MAX_KEY_DEGREE}], got {degree}"
        )
    spread_cap = PRODUCT_SPREAD_BUDGET ** (1.0 / max(1, num_agencies))
    eigvals = np.linalg.eigvals(basis) if spectrum is None else spectrum
    best = None
    for _ in range(KEY_ATTEMPTS):
        coeffs = rng.normal(0.0, sigma_coeff, size=degree)
        spread = _poly_spread(coeffs, eigvals)
        if best is None or spread < best[0]:
            best = (spread, coeffs)
        if spread <= spread_cap:
            key = commute_materialize(basis, coeffs)
            if np.linalg.cond(key) <= KEY_COND_MAX:
                return coeffs, key
    coeffs = best[1]
    key = commute_materialize(basis, coeffs)
    if np.linalg.cond(key) <= KEY_COND_MAX:
        return coeffs, key
    raise ResampleExhausted(
        f"no key with condition <= {KEY_COND_MAX:g} in {KEY_ATTEMPTS} attempts"
    )


def gen_agency_keys(bases, agency_id, row_counts, block_size, rng,
                    sigma_coeff=1.0):
    """Generate one agency's keys.

    Args:
        bases: shared MaskBases.
        agency_id: 1-based id of this agency.
        row_counts: rows held by every agency, in agency order.
        block_size: rows per fold block.
        rng: this agency's private generator.
        sigma_coeff: std-dev of the key polynomial coefficients.
    """
    num_agencies = len(row_counts)
    if not 1 <= agency_id <= num_agencies:
        raise DimMismatch(
            f"agency_id {agency_id} outside 1..{num_agencies}"
        )
    for n_rows in row_counts:
        split_block_sizes(n_rows, block_size)  # DimMismatch on bad sizes
    _, b_key = draw_commuting_key(
        bases.b_basis, default_degree(bases.b_basis.shape[0]), rng,
        num_agencies, sigma_coeff, bases.b_spectrum,
    )
    _, c_key = draw_commuting_key(
        bases.c_basis, RESPONSE_KEY_DEGREE, rng, num_agencies, sigma_coeff,
        bases.c_spectrum,
    )
    return AgencyKeys(
        agency_id=agency_id,
        b_key=b_key,
        c_key=c_key,
        row_counts=tuple(int(n) for n in row_counts),
        block_size=block_size,
    )


def make_responses(x, y, mode, rng):
    """Build the three-column response bundle sent through the protocol.

    Column 0 is the real response. Column 1 is the verification response:
    row sums of the features for a linear fit, so its decrypted
    coefficients must all equal one, and the zero vector for a ridge fit,
    so they must all equal zero. Column 2 is a standard-normal decoy.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise DimMismatch(f"x must be 2-d, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise DimMismatch(
            f"y has shape {y.shape}, expected ({x.shape[0]},)"
        )
    if mode == "linear":
        verify = x.sum(axis=1)
    elif mode == "ridge":
        verify = np.zeros(x.shape[0])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    decoy = rng.standard_normal(x.shape[0])
    return np.column_stack([y, verify, decoy])


def agency_rng(master_seed, agency_id):
    """Private generator for one agency, disjoint from all other streams."""
    return np.random.default_rng(
        [int(master_seed) % 2**64, _TAG_AGENCY, int(agency_id)]
    )
