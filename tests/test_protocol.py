"""Tests for the masking, fitting, decryption and verification steps."""

import numpy as np
import pytest

from maskreg import keygen, model
from maskreg.errors import (
    DoubleDecrypt,
    DuplicatePass,
    ProtocolOrderViolation,
    SingularResult,
)
from maskreg.protocol import (
    MODES,
    TAMPER_ACTIONS,
    AgencyContext,
    TamperPlan,
    assemble_aggregate,
    cloud_fit,
    decrypt_round,
    gram_release_step,
    inject_tamper,
    local_encrypt,
    pass_encrypt,
    r_factor,
    residual_gram,
    residual_gram_decrypt_step,
    solve_factor,
    verify_estimate,
)


def build_contexts(seed, sizes, p, mode="linear"):
    """Hand-rolled contexts for driving the steps without the runner."""
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal((n, p)) for n in sizes]
    beta = rng.normal(size=p)
    ys = [x @ beta + 0.05 * rng.standard_normal(x.shape[0]) for x in xs]
    bases = keygen.derive_bases(seed, p)
    contexts = []
    for i, (x, y) in enumerate(zip(xs, ys), start=1):
        arng = keygen.agency_rng(seed, i)
        keys = keygen.gen_agency_keys(bases, i, list(sizes), 8, arng)
        contexts.append(AgencyContext(i, x, y, keys, bases, mode, arng))
    return contexts, np.vstack(xs), np.concatenate(ys)


def run_rings(contexts):
    """Rotation rings driven inline: returns completed shards."""
    k = len(contexts)
    shards = [local_encrypt(ctx) for ctx in contexts]
    for origin in range(k):
        for hop in range(1, k):
            holder = contexts[(origin + hop) % k]
            shards[origin] = pass_encrypt(holder, shards[origin])
    return shards


def decrypt_all(contexts, est):
    for ctx in contexts:
        est = decrypt_round(ctx, est)
    return est


def test_full_linear_pipeline_matches_plaintext():
    contexts, x, y = build_contexts(0, (30, 25, 20), 4)
    shards = run_rings(contexts)
    agg = assemble_aggregate(shards, 3, 8)
    est = decrypt_all(contexts, cloud_fit(agg, "linear"))
    assert est.stage == "plain"
    ref = model.ols_fit(x, y)
    rel = np.max(np.abs(est.beta() - ref)) / max(1.0, np.max(np.abs(ref)))
    assert rel < 1e-9
    report = verify_estimate(est, "linear")
    assert report.accepted
    assert report.max_deviation <= 1e-6


def test_full_ridge_pipeline_matches_plaintext():
    contexts, x, y = build_contexts(1, (28, 30), 5, mode="ridge")
    shards = run_rings(contexts)
    agg = assemble_aggregate(shards, 2, 8)
    released = np.eye(5)
    for ctx in contexts:
        released = gram_release_step(ctx, released)
    agg.key_factor = released
    est = decrypt_all(contexts, cloud_fit(agg, "ridge", lam=2.5))
    ref = model.ridge_fit(x, y, 2.5)
    rel = np.max(np.abs(est.beta() - ref)) / max(1.0, np.max(np.abs(ref)))
    assert rel < 1e-9
    assert verify_estimate(est, "ridge").accepted


def test_released_gram_equals_product_gram():
    # The ring releases R_B, not the Gram: an upper triangle with a
    # non-negative diagonal whose Gram is the product keys' Gram.
    contexts, _, _ = build_contexts(2, (12, 12, 12), 4)
    released = np.eye(4)
    for ctx in contexts:
        released = gram_release_step(ctx, released)
    product = np.eye(4)
    for ctx in contexts:
        product = product @ ctx.keys.b_key
    np.testing.assert_array_equal(np.tril(released, -1), 0.0)
    assert np.all(np.diag(released) >= 0.0)
    np.testing.assert_allclose(
        released.T @ released, product.T @ product, atol=1e-10
    )


@pytest.mark.parametrize("n, q", [(5, 7), (100, 7), (1029, 11), (2048, 27),
                                  (1000, 40)])
def test_r_factor_is_triangular_cholesky_of_gram(n, q):
    # Covers fewer rows than columns, the plain QR, and the batched first
    # level with and without leftover rows.
    a = np.random.default_rng(n + q).standard_normal((n, q))
    r = r_factor(a)
    assert r.shape == (q, q)
    np.testing.assert_array_equal(np.tril(r, -1), 0.0)
    assert np.all(np.diag(r) >= 0.0)
    gram = a.T @ a
    assert np.max(np.abs(r.T @ r - gram)) <= 1e-12 * np.max(np.abs(gram))


def test_r_factors_of_row_blocks_stack():
    a = np.random.default_rng(1).standard_normal((300, 6))
    stacked = r_factor(np.vstack([r_factor(a[:120]), r_factor(a[120:])]))
    np.testing.assert_allclose(stacked, r_factor(a), atol=1e-12)


def test_residual_gram_from_factor_matches_rows():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((90, 5))
    y = rng.standard_normal((90, 3))
    beta = rng.standard_normal((5, 3))
    resid = y - x @ beta
    direct = resid.T @ resid
    got = residual_gram(r_factor(np.hstack([x, y])), beta)
    assert np.max(np.abs(got - direct)) <= 1e-10 * np.max(np.abs(direct))


def test_solve_factor_matches_least_squares():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((200, 6))
    y = rng.standard_normal((200, 3))
    values = solve_factor(r_factor(np.hstack([x, y])), "linear")
    np.testing.assert_allclose(
        values, np.linalg.lstsq(x, y, rcond=None)[0], atol=1e-12
    )


def test_duplicated_masked_column_is_singular():
    contexts, _, _ = build_contexts(16, (40, 40), 4)
    agg = assemble_aggregate(run_rings(contexts), 2, 8)
    agg.x_star[:, 3] = agg.x_star[:, 1]  # x_star is a view of z_star
    with pytest.raises(SingularResult):
        cloud_fit(agg, "linear")


def test_verification_column_regresses_to_ones():
    contexts, _, _ = build_contexts(3, (40, 35), 3)
    shards = run_rings(contexts)
    agg = assemble_aggregate(shards, 2, 8)
    est = decrypt_all(contexts, cloud_fit(agg, "linear"))
    np.testing.assert_allclose(est.values[:, 1], np.ones(3), atol=1e-8)


def test_duplicate_pass_rejected():
    contexts, _, _ = build_contexts(4, (10, 10), 3)
    shard = local_encrypt(contexts[0])
    with pytest.raises(DuplicatePass):
        pass_encrypt(contexts[0], shard)


def test_double_decrypt_rejected():
    contexts, _, _ = build_contexts(5, (15, 15), 3)
    shards = run_rings(contexts)
    agg = assemble_aggregate(shards, 2, 8)
    est = decrypt_round(contexts[0], cloud_fit(agg, "linear"))
    with pytest.raises(DoubleDecrypt):
        decrypt_round(contexts[0], est)


def test_ridge_fit_requires_released_gram():
    contexts, _, _ = build_contexts(6, (20, 20), 3, mode="ridge")
    agg = assemble_aggregate(run_rings(contexts), 2, 8)
    with pytest.raises(ProtocolOrderViolation):
        cloud_fit(agg, "ridge", lam=1.0)


def test_assemble_rejects_incomplete_shards():
    contexts, _, _ = build_contexts(7, (10, 10), 3)
    shards = [local_encrypt(ctx) for ctx in contexts]  # never passed around
    with pytest.raises(ProtocolOrderViolation):
        assemble_aggregate(shards, 2, 8)


def test_verify_requires_plain_stage():
    contexts, _, _ = build_contexts(8, (12, 12), 3)
    agg = assemble_aggregate(run_rings(contexts), 2, 8)
    est = cloud_fit(agg, "linear")
    with pytest.raises(ProtocolOrderViolation):
        verify_estimate(est, "linear")


def test_residual_gram_round_trip():
    contexts, _, _ = build_contexts(9, (10, 10), 3)
    rng = np.random.default_rng(9)
    s = rng.standard_normal((3, 3))
    s = s.T @ s
    masked = s
    for ctx in contexts:
        masked = ctx.keys.c_key.T @ masked @ ctx.keys.c_key
    for ctx in contexts:
        masked = residual_gram_decrypt_step(ctx, masked)
    np.testing.assert_allclose(masked, s, atol=1e-8)


@pytest.mark.parametrize("action", [a for a in TAMPER_ACTIONS
                                    if a not in ("honest", "perturb_result")])
def test_agency_tampering_detected(action):
    contexts, _, _ = build_contexts(10, (30, 30), 4)
    inject_tamper(contexts, TamperPlan(action=action, agency=2))
    agg = assemble_aggregate(run_rings(contexts), 2, 8)
    est = decrypt_all(contexts, cloud_fit(agg, "linear"))
    assert verify_estimate(est, "linear").verdict == "tampered"


def test_cloud_perturbation_detected():
    contexts, _, _ = build_contexts(11, (30, 30), 4)
    agg = assemble_aggregate(run_rings(contexts), 2, 8)
    est = cloud_fit(agg, "linear")
    est.values[0, 0] += 0.02  # the runner applies this for perturb_result
    est = decrypt_all(contexts, est)
    assert verify_estimate(est, "linear").verdict == "tampered"


def test_honest_plan_is_noop():
    contexts, _, _ = build_contexts(12, (20, 20), 3)
    before = [ctx.keys.b_key.copy() for ctx in contexts]
    inject_tamper(contexts, TamperPlan(action="honest"))
    for ctx, b in zip(contexts, before):
        assert np.array_equal(ctx.keys.b_key, b)


def test_tamper_plan_validates_action():
    with pytest.raises(ValueError):
        TamperPlan(action="set_fire_to_cloud")


def test_modes_constant():
    assert MODES == ("linear", "ridge")


def test_decrypt_order_does_not_matter():
    # commuting keys: decrypting 2 then 1 equals decrypting 1 then 2
    c_a, x, y = build_contexts(13, (25, 25), 4)
    c_b, _, _ = build_contexts(13, (25, 25), 4)
    est_a = cloud_fit(assemble_aggregate(run_rings(c_a), 2, 8), "linear")
    est_b = cloud_fit(assemble_aggregate(run_rings(c_b), 2, 8), "linear")
    out_a = decrypt_round(c_a[1], decrypt_round(c_a[0], est_a))
    out_b = decrypt_round(c_b[0], decrypt_round(c_b[1], est_b))
    np.testing.assert_allclose(out_a.values, out_b.values, atol=1e-9)
