"""Tests for shared-base derivation and per-agency key generation."""

import numpy as np
import pytest

from maskreg.errors import DimMismatch
from maskreg.keygen import (
    agency_rng,
    commute_materialize,
    derive_bases,
    draw_commuting_key,
    gen_agency_keys,
    make_responses,
)
from maskreg.runner import RunConfig, build_contexts


def test_derive_bases_deterministic():
    a = derive_bases(123, 7)
    b = derive_bases(123, 7)
    assert np.array_equal(a.b_basis, b.b_basis)
    assert np.array_equal(a.c_basis, b.c_basis)
    assert np.array_equal(a.b_v, b.b_v)
    assert np.array_equal(a.c_v_inv, b.c_v_inv)


def test_derive_bases_seed_sensitivity():
    a = derive_bases(123, 5)
    b = derive_bases(124, 5)
    assert not np.array_equal(a.b_basis, b.b_basis)


def test_derive_bases_shapes():
    bases = derive_bases(0, 9)
    assert bases.b_basis.shape == (9, 9)
    assert bases.c_basis.shape == (3, 3)


@pytest.mark.parametrize("p", [48, 64, 128])
def test_derive_bases_wide(p):
    # The bases are constructed, so any width works on every seed, with a
    # bounded eigenvalue spread and no symmetry (keys must not be normal).
    for seed in range(5):
        bases = derive_bases(seed, p)
        for basis in (bases.b_basis, bases.c_basis):
            assert abs(np.linalg.norm(basis, 2) - 1.0) < 1e-12
            moduli = np.abs(np.linalg.eigvals(basis))
            assert moduli.min() >= 0.6 * moduli.max()
            assert not np.allclose(basis, basis.T)
        # V diagonalizes the base into the 2x2 blocks keys are built on
        lam = bases.b_v_inv @ bases.b_basis @ bases.b_v
        assert np.allclose(lam, _on_blocks(lam), atol=1e-12)
        np.testing.assert_allclose(bases.b_v @ bases.b_v_inv, np.eye(p),
                                   atol=1e-12)
        assert np.linalg.cond(bases.b_v) <= 2.0


def _on_blocks(m):
    """``m`` with every entry off its 2x2 diagonal blocks (and off the
    last diagonal entry when the dimension is odd) set to zero."""
    ids = np.arange(m.shape[0]) // 2
    return np.where(ids[:, None] == ids[None, :], m, 0.0)


def test_drawn_keys_commute_and_invert():
    bases = derive_bases(7, 6)
    rng = np.random.default_rng(1)
    _, k1 = draw_commuting_key(bases.b_v, bases.b_v_inv, rng, 3)
    _, k2 = draw_commuting_key(bases.b_v, bases.b_v_inv, rng, 3)
    np.testing.assert_allclose(k1 @ k2, k2 @ k1, atol=1e-10)
    assert np.linalg.cond(k1) < 1e4
    # round-trip through the inverse
    np.testing.assert_allclose(
        np.linalg.solve(k1, k1 @ np.eye(6)), np.eye(6), atol=1e-10
    )


def test_draw_commuting_key_coeff_consistency():
    # the key is V·M·V⁻¹, with M scaled 2x2 rotations on the base's
    # blocks and, for odd p, one real entry
    for p in (4, 5):
        bases = derive_bases(7, p)
        blocks, key = draw_commuting_key(bases.b_v, bases.b_v_inv,
                                         np.random.default_rng(2), 2)
        assert np.array_equal(blocks, _on_blocks(blocks))
        for i in range(0, p - 1, 2):
            (a, b), (c, d) = blocks[i:i + 2, i:i + 2]
            assert a == d and b == -c
        np.testing.assert_array_equal(
            key, commute_materialize(bases.b_v, blocks, bases.b_v_inv))


def _run_keys(k, p, seed=0):
    """Every agency's (b_key, c_key) and the bases of a k-agency run."""
    datasets = [(np.zeros((4, p)), np.zeros(4))] * k
    contexts = build_contexts(datasets, RunConfig(k=k, seed=seed))
    return [(c.keys.b_key, c.keys.c_key) for c in contexts], contexts[0].bases


def test_keys_of_one_run_commute():
    keys, bases = _run_keys(4, 9)
    for side, basis in ((0, bases.b_basis), (1, bases.c_basis)):
        mats = [basis] + [pair[side] for pair in keys]
        scale = max(np.linalg.norm(m, 2) for m in mats) ** 2
        for i, a in enumerate(mats):
            for b in mats[i + 1:]:
                assert np.max(np.abs(a @ b - b @ a)) <= 1e-13 * scale


@pytest.mark.parametrize("k", [1, 3, 64])
def test_key_eigenvalue_moduli_lie_in_the_agency_band(k):
    # each key's eigenvalues on the base are its blocks' ρ·e^{±iφ}, with
    # ρ in [1, 1000^(1/k)], so the product of k keys spans at most 1000
    keys, _ = _run_keys(k, 16, seed=k)
    cap = 1000.0 ** (1.0 / k)
    for pair in keys:
        for key in pair:
            moduli = np.abs(np.linalg.eigvals(key))
            assert moduli.min() >= 1.0 - 1e-9
            assert moduli.max() <= cap * (1.0 + 1e-9)


def test_product_key_condition_is_bounded_at_p128_k64():
    # cond(ΠB) ≤ cond(V)²·1000 ≤ 4,000 with no key rejected
    keys, _ = _run_keys(64, 128)
    for side in (0, 1):
        product = keys[0][side]
        for pair in keys[1:]:
            product = product @ pair[side]
        assert np.linalg.cond(product) <= 4000.0


def test_gen_agency_keys_layout():
    bases = derive_bases(3, 5)
    keys = gen_agency_keys(bases, 2, [10, 14, 9], 4, np.random.default_rng(0))
    assert keys.agency_id == 2
    assert keys.b_key.shape == (5, 5)
    assert keys.c_key.shape == (3, 3)
    assert keys.row_counts == (10, 14, 9)
    assert keys.block_size == 4


def _array_bytes(obj):
    """Bytes of every array reachable from ``obj``'s fields."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return _array_bytes(list(obj.values()))
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v) for v in obj)
    if hasattr(obj, "__dict__"):
        return _array_bytes(vars(obj))
    return 0


def test_agency_keys_hold_no_row_masks():
    # No hop draws a row mask, so the key material is the same size
    # whether the agencies hold ten rows each or a thousand.
    bases = derive_bases(5, 6)
    small = gen_agency_keys(bases, 1, [10, 12, 9], 4, np.random.default_rng(0))
    large = gen_agency_keys(bases, 1, [1000, 1200, 900], 4,
                            np.random.default_rng(0))
    assert _array_bytes(large) == _array_bytes(small)


def test_gen_agency_keys_rejects_bad_id():
    bases = derive_bases(3, 4)
    with pytest.raises(DimMismatch):
        gen_agency_keys(bases, 4, [5, 5], 4, np.random.default_rng(0))


def test_make_responses_linear():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 4))
    y = rng.standard_normal(6)
    state = rng.bit_generator.state
    cols, weights = make_responses(x, y, "linear", rng)
    assert cols.shape == (6, 2)
    assert np.array_equal(cols[:, 0], y)
    assert np.array_equal(weights, np.ones(4))
    # the decoy is the stream's next six normals: no row pass comes first
    rng.bit_generator.state = state
    assert np.array_equal(cols[:, 1], rng.standard_normal(6))


def test_make_responses_ridge_targets_zero():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 4))
    y = rng.standard_normal(6)
    cols, weights = make_responses(x, y, "ridge", rng)
    assert np.array_equal(weights, np.zeros(4))
    np.testing.assert_allclose(cols[:, 0], y)


def test_decoy_response_varies_with_rng():
    x = np.ones((4, 2))
    y = np.ones(4)
    r1, _ = make_responses(x, y, "linear", np.random.default_rng(1))
    r2, _ = make_responses(x, y, "linear", np.random.default_rng(2))
    assert not np.array_equal(r1[:, 1], r2[:, 1])


def test_agency_rng_deterministic_and_distinct():
    a = agency_rng(9, 1).standard_normal(4)
    b = agency_rng(9, 1).standard_normal(4)
    c = agency_rng(9, 2).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
