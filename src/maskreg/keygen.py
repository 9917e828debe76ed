"""Key material: shared commuting bases and per-agency mask keys.

Every agency derives the same pair of base matrices from a shared seed.
Each base is ``V·Λ·V⁻¹`` with cond(V) ≤ 2 and ``Λ`` block diagonal in
2×2 scaled rotations (see ``_constructed_base``). An agency's key over a
base is ``V·M·V⁻¹`` with ``M`` block diagonal on the same blocks: 2×2
rotations commute, so any two agencies' keys commute with each other and
with the base, which is what lets the ring protocol apply them in
arbitrary order.

Keygen draws no row masks: a shard travels as the R factors of its fold
blocks, which a block-orthogonal row mask inside the folds would leave
unchanged (see ``protocol``).

The decrypted estimate has to match a plaintext solve to ~1e-8 relative
even though every intermediate matrix crosses the wire in float64, so the
product of all agencies' keys must stay well conditioned. Keys are built,
not screened: every block modulus of ``M`` lies in [1, 1000^(1/k)], so
the product of k keys is ``V·(ΠM)·V⁻¹`` with ΠM's moduli in [1, 1000],
and cond(ΠB) ≤ cond(V)²·1000 ≤ 4,000 (see ``draw_commuting_key``).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch
# random_ortho_blocks is no longer called here; perfbench/spans.py still
# wraps the name keygen.random_ortho_blocks, so it stays importable.
from .matrix_core import (  # noqa: F401
    random_ortho_blocks,
    random_well_conditioned,
    split_block_sizes,
)

#: Bound on the condition of the product of all agencies' block matrices;
#: each agency's block moduli lie in [1, this ** (1/k)].
PRODUCT_SPREAD_BUDGET = 1000.0

# Stream tags keep the seed-derived generators disjoint.
_TAG_BASES = 0xB5
_TAG_AGENCY = 0xA6


@dataclass(frozen=True)
class MaskBases:
    """Shared base matrices all agencies build their keys from.

    Attributes:
        b_basis: (p, p) unit-spectral-norm base for feature-side keys.
        c_basis: (3, 3) unit-spectral-norm base for response-side keys.
        b_v, b_v_inv, c_v, c_v_inv: the ``V`` and ``V⁻¹`` of each base
            ``V·Λ·V⁻¹``, on whose blocks every key is built.
    """

    b_basis: np.ndarray
    c_basis: np.ndarray
    b_v: np.ndarray = field(repr=False)
    b_v_inv: np.ndarray = field(repr=False)
    c_v: np.ndarray = field(repr=False)
    c_v_inv: np.ndarray = field(repr=False)

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
        row_counts: rows held by every agency, in agency order; public,
            so no shard frame carries one.
        block_size: rows per fold block.
    """

    agency_id: int
    b_key: np.ndarray
    c_key: np.ndarray
    row_counts: tuple
    block_size: int


def _rotation_blocks(radii, angles, rng):
    """Block-diagonal matrix of 2×2 blocks ``r·rot(t)``, one per angle,
    plus one real entry ``±r`` (sign from ``rng``) when there is one more
    radius than angle. Its dimension is ``len(radii) + len(angles)``."""
    dim = len(radii) + len(angles)
    out = np.zeros((dim, dim))
    for i, (r, t) in enumerate(zip(radii, angles)):
        c, sn = r * np.cos(t), r * np.sin(t)
        out[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[c, -sn], [sn, c]]
    if dim % 2:
        out[-1, -1] = radii[-1] * rng.choice((-1.0, 1.0))
    return out


def _constructed_base(dim, rng):
    """Unit-spectral-norm base ``V·Λ·V⁻¹`` with a well-conditioned ``V``,
    returned with ``V`` and ``V⁻¹``.

    ``V`` is ``random_well_conditioned``, so cond(V) ≤ 2 and ``V⁻¹``
    needs no solve. ``Λ`` is ``_rotation_blocks`` with moduli
    ``~ U[0.6, 1]``. The base is therefore non-symmetric with
    complex-conjugate eigenvalue pairs, like a Gaussian draw, but no
    eigenvalue modulus is below 0.6 times the largest.
    """
    v, v_inv = random_well_conditioned(dim, rng)
    radii = rng.uniform(0.6, 1.0, (dim + 1) // 2)
    angles = rng.uniform(0.0, np.pi, dim // 2)
    base = v @ _rotation_blocks(radii, angles, rng) @ v_inv
    return base / np.linalg.norm(base, 2), v, v_inv


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
    b_basis, b_v, b_v_inv = _constructed_base(p, rng)
    c_basis, c_v, c_v_inv = _constructed_base(3, rng)
    return MaskBases(b_basis=b_basis, c_basis=c_basis, b_v=b_v,
                     b_v_inv=b_v_inv, c_v=c_v, c_v_inv=c_v_inv)


def commute_materialize(v, blocks, v_inv):
    """The key ``V·M·V⁻¹`` of the block matrix ``M`` over a base's
    ``V``; keys over one base commute because their blocks do."""
    return v @ blocks @ v_inv


def draw_commuting_key(v, v_inv, rng, num_agencies):
    """Draw one key over the base ``V·Λ·V⁻¹`` given by ``v`` and ``v_inv``.

    ``M`` is ``_rotation_blocks`` with radii ``~ U[1, 1000^(1/k)]`` and
    angles ``~ U[0, 2π)``, k = ``num_agencies``. Returns ``M`` and the
    materialized key ``V·M·V⁻¹``; no draw is rejected.
    """
    dim = v.shape[0]
    cap = PRODUCT_SPREAD_BUDGET ** (1.0 / num_agencies)
    radii = rng.uniform(1.0, cap, (dim + 1) // 2)
    angles = rng.uniform(0.0, 2.0 * np.pi, dim // 2)
    blocks = _rotation_blocks(radii, angles, rng)
    return blocks, commute_materialize(v, blocks, v_inv)


def gen_agency_keys(bases, agency_id, row_counts, block_size, rng):
    """Generate one agency's keys.

    Args:
        bases: shared MaskBases.
        agency_id: 1-based id of this agency.
        row_counts: rows held by every agency, in agency order.
        block_size: rows per fold block.
        rng: this agency's private generator.
    """
    num_agencies = len(row_counts)
    if not 1 <= agency_id <= num_agencies:
        raise DimMismatch(
            f"agency_id {agency_id} outside 1..{num_agencies}"
        )
    for n_rows in row_counts:
        split_block_sizes(n_rows, block_size)  # DimMismatch on bad sizes
    _, b_key = draw_commuting_key(bases.b_v, bases.b_v_inv, rng,
                                  num_agencies)
    _, c_key = draw_commuting_key(bases.c_v, bases.c_v_inv, rng,
                                  num_agencies)
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
