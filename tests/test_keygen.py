"""Tests for shared-base derivation and per-agency key generation."""

import numpy as np
import pytest

from maskreg.errors import DimMismatch
from maskreg.keygen import (
    MAX_KEY_DEGREE,
    RESPONSE_KEY_DEGREE,
    agency_rng,
    default_degree,
    derive_bases,
    draw_commuting_key,
    gen_agency_keys,
    make_responses,
)


def test_default_degree_caps_at_sixteen():
    assert default_degree(2) == 2
    assert default_degree(16) == 16
    assert default_degree(90) == 16


def test_derive_bases_deterministic():
    a = derive_bases(123, 7)
    b = derive_bases(123, 7)
    assert np.array_equal(a.b_basis, b.b_basis)
    assert np.array_equal(a.c_basis, b.c_basis)
    assert np.array_equal(a.b_spectrum, b.b_spectrum)


def test_derive_bases_seed_sensitivity():
    a = derive_bases(123, 5)
    b = derive_bases(124, 5)
    assert not np.array_equal(a.b_basis, b.b_basis)


def test_derive_bases_shapes():
    bases = derive_bases(0, 9)
    assert bases.b_basis.shape == (9, 9)
    assert bases.c_basis.shape == (3, 3)


def test_draw_commuting_key_rejects_bad_degree():
    basis = derive_bases(0, 5).b_basis
    rng = np.random.default_rng(0)
    for degree in (0, MAX_KEY_DEGREE + 1, 99):
        with pytest.raises(DimMismatch):
            draw_commuting_key(basis, degree, rng, 1)


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


def test_drawn_keys_commute_and_invert():
    bases = derive_bases(7, 6)
    rng = np.random.default_rng(1)
    _, k1 = draw_commuting_key(bases.b_basis, default_degree(6), rng, 3)
    _, k2 = draw_commuting_key(bases.b_basis, default_degree(6), rng, 3)
    np.testing.assert_allclose(k1 @ k2, k2 @ k1, atol=1e-10)
    assert np.linalg.cond(k1) < 1e4
    # round-trip through the inverse
    np.testing.assert_allclose(
        np.linalg.solve(k1, k1 @ np.eye(6)), np.eye(6), atol=1e-10
    )


def test_draw_commuting_key_coeff_consistency():
    bases = derive_bases(7, 4)
    rng = np.random.default_rng(2)
    coeffs, key = draw_commuting_key(bases.b_basis, default_degree(4), rng, 2)
    from maskreg.matrix_core import commute_materialize

    np.testing.assert_allclose(
        key, commute_materialize(bases.b_basis, coeffs), atol=1e-12
    )


def test_keys_drawn_on_the_base_spectrum_match_a_recomputed_one():
    # derive_bases computes each base's spectrum once; keys drawn with it
    # are bit-identical to keys that recompute it per draw
    bases = derive_bases(11, 24)
    assert np.array_equal(bases.b_spectrum, np.linalg.eigvals(bases.b_basis))
    assert np.array_equal(bases.c_spectrum, np.linalg.eigvals(bases.c_basis))
    keys = gen_agency_keys(bases, 2, [40, 40, 40, 40], 4,
                           np.random.default_rng(9))
    rng = np.random.default_rng(9)
    _, b_key = draw_commuting_key(bases.b_basis, default_degree(24), rng, 4)
    _, c_key = draw_commuting_key(bases.c_basis, 3, rng, 4)
    assert np.array_equal(keys.b_key, b_key)
    assert np.array_equal(keys.c_key, c_key)


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
    resp = make_responses(x, y, "linear", rng)
    assert resp.shape == (6, 3)
    np.testing.assert_allclose(resp[:, 0], y)
    np.testing.assert_allclose(resp[:, 1], x.sum(axis=1))


def test_make_responses_linear_with_offset():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 3))
    y = rng.standard_normal(5)
    delta = rng.standard_normal((5, 3))
    resp = make_responses(x, y, "linear", rng, delta=delta)
    np.testing.assert_allclose(resp[:, 1], (x + delta).sum(axis=1))


@pytest.mark.parametrize("shape", [(12_000, 24), (1, 3), (4097, 8), (50, 700)])
def test_make_responses_row_sums_are_bit_identical(shape):
    # the rows are summed in chunks; each row's sum must not change
    rng = np.random.default_rng(6)
    x = rng.standard_normal(shape)
    y = rng.standard_normal(shape[0])
    delta = rng.standard_normal(shape)
    for offset, want in ((None, x.sum(axis=1)), (delta, (x + delta).sum(axis=1))):
        resp = make_responses(x, y, "linear", rng, delta=offset)
        assert np.array_equal(resp[:, 1], want)


def test_make_responses_ridge_targets_zero():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 4))
    y = rng.standard_normal(6)
    resp = make_responses(x, y, "ridge", rng)
    assert np.all(resp[:, 1] == 0.0)
    np.testing.assert_allclose(resp[:, 0], y)


def test_decoy_response_varies_with_rng():
    x = np.ones((4, 2))
    y = np.ones(4)
    r1 = make_responses(x, y, "linear", np.random.default_rng(1))
    r2 = make_responses(x, y, "linear", np.random.default_rng(2))
    assert not np.array_equal(r1[:, 2], r2[:, 2])


def test_response_key_degree_is_cubic():
    assert RESPONSE_KEY_DEGREE == 3


def test_agency_rng_deterministic_and_distinct():
    a = agency_rng(9, 1).standard_normal(4)
    b = agency_rng(9, 1).standard_normal(4)
    c = agency_rng(9, 2).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
