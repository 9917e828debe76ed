"""Tests for the masking, fitting, decryption and verification steps."""

import copy
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from maskreg import keygen, model, runner
from maskreg.errors import (
    FoldBlockMisaligned,
    ProtocolOrderViolation,
    SingularResult,
)
from maskreg.matrix_core import random_orthogonal
from maskreg.protocol import (
    MODES,
    TAMPER_ACTIONS,
    TSQR_ROWS,
    AgencyContext,
    TamperPlan,
    _fresh_key,
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
    shard_factors,
    solve_factor,
    verify_estimate,
)

from fold_layout import fold_layout


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


def pass_rings(contexts, folds=1):
    """Rotation rings driven inline up to each shard's last holder: returns
    the shards that holder receives, keyed by the other k - 1."""
    k = len(contexts)
    shards = [local_encrypt(ctx, folds) for ctx in contexts]
    for origin in range(k):
        for hop in range(1, k - 1):
            holder = contexts[(origin + hop) % k]
            shards[origin] = pass_encrypt(holder, shards[origin], origin + 1)
    return shards


def run_rings(contexts):
    """Rotation rings driven inline: returns completed shards, one fold."""
    k = len(contexts)
    return [pass_encrypt(contexts[(origin + k - 1) % k], shard, origin + 1)
            for origin, shard in enumerate(pass_rings(contexts))]


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


def explicit_rows(ctx):
    """[X + Δ | y, (X + Δ)·w, decoy]: the rows whose Gram an origin's fold
    factors carry."""
    y, decoy = ctx.responses.T
    return np.column_stack([ctx.x, y, ctx.x @ ctx.verify_weights, decoy])


def factor_err(r, rows):
    """Relative distance of the R factor ``r`` from that of ``rows``, whose
    column p + 1 lies in the span of the first p: rows 0..p entry by entry,
    where R is unique, and the trailing 2×2 block, which is not, through
    RᵀR."""
    p = rows.shape[1] - 3
    want = r_factor(rows)
    return max(rel_err(r[:p + 1], want[:p + 1]),
               rel_err(r.T @ r, rows.T @ rows))


def decrypt_all(contexts, values):
    for ctx in contexts:
        values = decrypt_round(ctx, values)
    return values


def test_full_linear_pipeline_matches_plaintext():
    contexts, x, y = build_contexts(0, (30, 25, 20), 4)
    shards = run_rings(contexts)
    agg = assemble_aggregate(shards, (30, 25, 20), 8)
    est = decrypt_all(contexts, cloud_fit(agg, "linear").values)
    ref = model.ols_fit(x, y)
    rel = np.max(np.abs(est[:, 0] - ref)) / max(1.0, np.max(np.abs(ref)))
    assert rel < 1e-9
    report = verify_estimate(est, "linear")
    assert report.accepted
    assert report.max_deviation <= 1e-6


def test_full_ridge_pipeline_matches_plaintext():
    contexts, x, y = build_contexts(1, (28, 30), 5, mode="ridge")
    shards = run_rings(contexts)
    agg = assemble_aggregate(shards, (28, 30), 8)
    released = np.eye(5)
    for ctx in contexts:
        released = gram_release_step(ctx, released)
    agg.key_factor = released
    est = decrypt_all(contexts, cloud_fit(agg, "ridge", lam=2.5).values)
    ref = model.ridge_fit(x, y, 2.5)
    rel = np.max(np.abs(est[:, 0] - ref)) / max(1.0, np.max(np.abs(ref)))
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


@pytest.mark.parametrize("n, q", [(5, 7), (100, 7), (300, 7), (1029, 11),
                                  (2048, 27), (1000, 40), (72_000, 19),
                                  (20_000, 27), (1500, 300)])
def test_r_factor_is_triangular_cholesky_of_gram(n, q):
    # Covers fewer rows than columns, the plain QR, one level with a single
    # block, levels with and without leftover rows, trees of three or more
    # levels, and blocks of 2q rows when q >= TSQR_ROWS.
    a = np.random.default_rng(n + q).standard_normal((n, q))
    r = r_factor(a)
    assert r.shape == (q, q)
    np.testing.assert_array_equal(np.tril(r, -1), 0.0)
    assert np.all(np.diag(r) >= 0.0)
    gram = a.T @ a
    assert np.max(np.abs(r.T @ r - gram)) <= 1e-12 * np.max(np.abs(gram))


@pytest.mark.parametrize("n, q, rows", [(72_000, 19, TSQR_ROWS),
                                        (1500, 300, 600)])
def test_r_factor_never_factors_more_than_one_block(monkeypatch, n, q, rows):
    # A QR over all the stacked leaf factors (5,339 rows at n=72,000) is
    # large enough for BLAS to thread; every level, the last included,
    # sees at most one block of max(TSQR_ROWS, 2q) rows.
    seen = []
    qr = np.linalg.qr

    def recording_qr(a, mode="reduced"):
        seen.append(a.shape[-2])
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    r_factor(np.random.default_rng(q).standard_normal((n, q)))
    assert seen and max(seen) <= rows


def test_r_factors_of_row_blocks_stack():
    a = np.random.default_rng(1).standard_normal((300, 6))
    stacked = r_factor(np.vstack([r_factor(a[:120]), r_factor(a[120:])]))
    np.testing.assert_allclose(stacked, r_factor(a), atol=1e-12)


@pytest.mark.parametrize("n, q", [(5, 7), (300, 7), (2048, 27)])
def test_r_factor_of_a_stack_equals_each_members_factor(n, q):
    a = np.random.default_rng(n).standard_normal((2, 3, n, q))
    stack = r_factor(a)
    assert stack.shape == (2, 3, q, q)
    for i in range(2):
        for j in range(3):
            np.testing.assert_array_equal(stack[i, j], r_factor(a[i, j]))


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


def _fold_factors(seed, folds=4, n=60, p=5):
    """R factors of ``folds`` random [X | Y] row sets and a key factor."""
    rng = np.random.default_rng(seed)
    z = [rng.standard_normal((n, p + 3)) for _ in range(folds)]
    r_b = r_factor(rng.standard_normal((p, p)))
    return z, r_b


@pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
def test_solve_factor_rejects_bad_lambda(lam):
    z, r_b = _fold_factors(16, folds=1)
    with pytest.raises(ValueError):
        solve_factor(r_factor(z[0]), "ridge", np.array([0.1, lam]), r_b)


def test_stacked_solve_factor_matches_single_calls():
    z, r_b = _fold_factors(17)
    stack = np.stack([r_factor(a) for a in z])
    lams = np.array([0.0, 0.3, 4.0])
    got = solve_factor(stack, "ridge", lams[:, None], r_b)
    assert got.shape == (3, 4, 5, 3)
    for li, lam in enumerate(lams):
        for f, r in enumerate(stack):
            want = solve_factor(r, "ridge", lam, r_b)
            err = np.max(np.abs(got[li, f] - want)) / np.max(np.abs(want))
            assert err <= 1e-12
    linear = solve_factor(stack, "linear")
    for f, r in enumerate(stack):
        np.testing.assert_allclose(linear[f], solve_factor(r, "linear"),
                                   rtol=1e-12, atol=0)


def test_stacked_solve_factor_flags_one_singular_member():
    z, r_b = _fold_factors(18)
    z[2][:, 3] = z[2][:, 1]  # a duplicated masked column in one fold
    stack = np.stack([r_factor(a) for a in z])
    with pytest.raises(SingularResult):
        solve_factor(stack, "linear")
    with pytest.raises(SingularResult):
        solve_factor(stack, "ridge", np.array([[0.0], [1.0]]), r_b)


def test_stacked_residual_gram_matches_single_calls():
    z, _ = _fold_factors(19)
    stack = np.stack([r_factor(a) for a in z])
    values = np.random.default_rng(19).standard_normal((3, 4, 5, 3))
    got = residual_gram(stack, values)
    assert got.shape == (3, 4, 3, 3)
    for li in range(3):
        for f in range(4):
            np.testing.assert_allclose(
                got[li, f], residual_gram(stack[f], values[li, f]),
                rtol=1e-12, atol=1e-12,
            )


def test_duplicated_masked_column_is_singular():
    contexts, _, _ = build_contexts(16, (40, 40), 4)
    shards = run_rings(contexts)
    for shard in shards:  # the cloud gets factors, so edit what it receives
        shard[:, 3] = shard[:, 1]
    agg = assemble_aggregate(shards, (40, 40), 8)
    with pytest.raises(SingularResult):
        cloud_fit(agg, "linear")


def _identity_contexts(sizes, block_size, rng):
    """Agencies of random 4-feature shards whose keys are identities: their
    shards are the fold factors of the origins' own rows."""
    keys = SimpleNamespace(b_key=np.eye(4), c_key=np.eye(3),
                           row_counts=tuple(sizes), block_size=block_size)
    return [SimpleNamespace(agency_id=i, keys=keys,
                            num_agencies=len(sizes),
                            x=rng.standard_normal((n, 4)),
                            responses=rng.standard_normal((n, 2)),
                            verify_weights=rng.standard_normal(4))
            for i, n in enumerate(sizes, start=1)]


@pytest.mark.parametrize("sizes, block_size, folds", [
    ((40, 35), 8, 1),    # a tail block, no CV
    ((40, 35), 8, 3),    # a partial last round and a tail
    ((48, 48), 8, 3),    # whole rounds only
    ((37, 20, 29), 4, 5),
    ((9, 12), 4, 3),     # one round or less per shard
    ((600, 700), 8, 5),  # several chunks of SHARD_CHUNK elements
])
def test_aggregate_factors_match_stacked_rows(monkeypatch, sizes,
                                              block_size, folds):
    # Each fold factor is the R of that fold's fold_rows rows of the
    # stacked shards, and z_factor the R of all of them
    from maskreg import protocol
    from maskreg.runner import fold_rows

    monkeypatch.setattr(protocol, "SHARD_CHUNK", 3 * block_size * folds * 7)
    rng = np.random.default_rng(len(sizes) + folds)
    k = len(sizes)
    contexts = _identity_contexts(sizes, block_size, rng)
    z = np.vstack([explicit_rows(c) for c in contexts])
    agg = assemble_aggregate(
        (pass_encrypt(contexts[(o + k - 1) % k], s, o + 1)
         for o, s in enumerate(pass_rings(contexts, folds))),
        sizes, block_size, folds)
    assert agg.x_star.shape == (sum(sizes), 4)
    assert factor_err(agg.z_factor, z) < 1e-12
    rows = fold_rows(fold_layout(sizes, block_size), folds)
    assert agg.fold_sizes == tuple(r.size for r in rows)
    assert agg.fold_factors.shape == (folds, 7, 7)
    for factor, fold in zip(agg.fold_factors, rows):
        assert factor_err(factor, z[fold]) < 1e-12


@pytest.mark.parametrize("n, block_size, folds", [
    (75, 8, 3),   # a tail block
    (64, 8, 1),
    (43, 4, 5),   # a tail block and a partial last round
])
def test_fold_aligned_row_mask_leaves_shard_factors_unchanged(n, block_size,
                                                              folds):
    # R(A·M) = R(M) fold by fold when A's blocks lie inside the folds: the
    # row mask no hop draws would be factored away
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal((n, 4)), rng.standard_normal((n, 3))
    mask = np.zeros((n, n))
    for lo in range(0, n, block_size):
        hi = min(lo + block_size, n)
        mask[lo:hi, lo:hi] = random_orthogonal(hi - lo, rng)
    bare = shard_factors(x, y, block_size, folds)
    masked = shard_factors(mask @ x, mask @ y, block_size, folds)
    assert rel_err(masked, bare) < 1e-13


def test_completed_shard_keys_the_fold_factors():
    # R(R_f·K) = R(M_f·K) with K = diag(B, C): the factors each hop sends
    # are those of the origin's fold rows times every key applied so far
    contexts, _, _ = build_contexts(17, (75, 60), 4)
    origin, holder = contexts
    shard = pass_rings(contexts, 3)[0]
    done = pass_encrypt(holder, shard, 1)
    rows = explicit_rows(origin)
    keyed = np.hstack([rows[:, :4] @ origin.keys.b_key @ holder.keys.b_key,
                       rows[:, 4:] @ origin.keys.c_key @ holder.keys.c_key])
    block = np.arange(75) // 8
    assert done.shape == (21, 7)
    for f in range(3):
        assert factor_err(done[7 * f:7 * f + 7],
                          keyed[block % 3 == f]) < 1e-12


@pytest.mark.parametrize("folds", [1, 3])
@pytest.mark.parametrize("delta", [None, 0.5])
@pytest.mark.parametrize("mode", ["linear", "ridge"])
def test_round1_factors_carry_the_pseudo_response_column(mode, delta, folds):
    """An origin writes its verification column into each fold factor as
    R_xx·w, bit for bit, over a zero row, and RᵀR is the Gram of that
    fold's explicit rows [X + Δ | y, (X + Δ)·w, decoy]. Identity keys make
    the round-1 shard the origin's factors as they are."""
    rng = np.random.default_rng(40)
    datasets = [(rng.standard_normal((300, 5)), rng.standard_normal(300))
                for _ in range(2)]
    contexts = runner.build_contexts(datasets, runner.RunConfig(
        k=2, mode=mode, delta=delta, seed=40))
    want = np.ones(5) if mode == "linear" else np.zeros(5)
    for ctx in contexts:
        assert np.array_equal(ctx.verify_weights, want)
        ctx.keys.b_key, ctx.keys.c_key = np.eye(5), np.eye(3)
        r = local_encrypt(ctx, folds).reshape(folds, 8, 8)
        assert np.array_equal(r[:, :5, 6], r[:, :5, :5] @ want)
        assert not np.any(r[:, 6]) and not np.any(r[:, 5:, 6])
        rows = explicit_rows(ctx)
        block = np.arange(300) // ctx.keys.block_size
        for f in range(folds):
            fold = rows[block % folds == f]
            assert rel_err(r[f].T @ r[f], fold.T @ fold) < 1e-12


def test_shard_factors_reject_fewer_blocks_than_folds():
    with pytest.raises(FoldBlockMisaligned, match="20 rows make 3 blocks"):
        shard_factors(np.ones((20, 3)), np.ones((20, 3)), 8, 5)


def test_cloud_fit_keeps_no_rows():
    contexts, _, _ = build_contexts(16, (40, 40), 4)
    agg = assemble_aggregate(run_rings(contexts), (40, 40), 8)
    with pytest.raises(ValueError, match="rows must be None"):
        cloud_fit(agg, "linear", rows=np.arange(10))


def test_verification_column_regresses_to_ones():
    contexts, _, _ = build_contexts(3, (40, 35), 3)
    shards = run_rings(contexts)
    agg = assemble_aggregate(shards, (40, 35), 8)
    est = decrypt_all(contexts, cloud_fit(agg, "linear").values)
    np.testing.assert_allclose(est[:, 1], np.ones(3), atol=1e-8)


def _runner_contexts(rows, p, delta, seed=9):
    rng = np.random.default_rng(seed)
    datasets = [(rng.standard_normal((rows, p)), rng.standard_normal(rows))
                for _ in range(2)]
    return runner.build_contexts(
        datasets, runner.RunConfig(k=2, delta=delta, seed=seed))


def _local_encrypt_peak(ctx):
    tracemalloc.start()
    try:
        local_encrypt(ctx, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ldp_offset_adds_no_shard_sized_temporary():
    """With an LDP offset, the origin adds it as each chunk of rows is
    copied to be factored, so its peak memory is that of an unshifted
    shard."""
    plain = _local_encrypt_peak(_runner_contexts(12_000, 24, None)[0])
    shifted = _local_encrypt_peak(_runner_contexts(12_000, 24, 0.5)[0])
    assert shifted - plain < 0.5e6


def test_ldp_offset_build_holds_one_shard_per_agency():
    """An agency adds its offset to its rows in place, so building the
    contexts with an offset holds one more (n, p) array per agency, the
    offset rows, and no temporary beside it."""
    rng = np.random.default_rng(12)
    rows, p = 12_000, 24
    datasets = [(rng.standard_normal((rows, p)), rng.standard_normal(rows))
                for _ in range(2)]
    peaks = []
    for delta in (None, 0.5):
        tracemalloc.start()
        try:
            runner.build_contexts(datasets, runner.RunConfig(k=2, delta=delta))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= len(datasets) * rows * p * 8 + 0.5e6


def test_ldp_offset_frame_equals_masking_the_explicit_sum():
    """Each agency draws its offset from its own stream right after its
    keys; its rows are x + offset, its verification weights all ones, and
    its round-1 factors those of those rows."""
    rng = np.random.default_rng(9)
    datasets = [(rng.standard_normal((300, 5)), rng.standard_normal(300))
                for _ in range(2)]
    config = runner.RunConfig(k=2, delta=0.5, seed=9)
    contexts = runner.build_contexts(datasets, config)
    for i, ((x, _), ctx) in enumerate(zip(datasets, contexts), start=1):
        stream = keygen.agency_rng(config.seed, i)
        keygen.gen_agency_keys(contexts[0].bases, i, (300, 300),
                               config.block_size, stream)
        shifted = x + stream.normal(0.0, config.delta, x.shape)
        assert np.array_equal(ctx.x, shifted)
        assert np.array_equal(ctx.verify_weights, np.ones(5))
        summed = copy.copy(ctx)
        summed.x = shifted
        assert np.array_equal(local_encrypt(ctx, 1),
                              local_encrypt(summed, 1))


def test_ridge_fit_requires_released_gram():
    contexts, _, _ = build_contexts(6, (20, 20), 3, mode="ridge")
    agg = assemble_aggregate(run_rings(contexts), (20, 20), 8)
    with pytest.raises(ProtocolOrderViolation):
        cloud_fit(agg, "ridge", lam=1.0)


def test_assemble_rejects_a_missing_or_extra_shard():
    # one shard per agency, no fewer and no more; which holders keyed each
    # is its frame's header, checked by the runner before the cloud
    # assembles (test_runner's test_ring_hop_with_wrong_applied_ids_rejected)
    contexts, _, _ = build_contexts(7, (10, 10), 3)
    shards = run_rings(contexts)
    with pytest.raises(ProtocolOrderViolation, match="got 1$"):
        assemble_aggregate(shards[:1], (10, 10), 8)
    with pytest.raises(ProtocolOrderViolation, match="got more"):
        assemble_aggregate(shards + shards[:1], (10, 10), 8)


def test_assemble_derives_the_layout_without_walking_the_blocks():
    # The cloud's work on a completed shard is bounded by the frame, not
    # by the public row count: 1e12 rows of 8-row blocks are 1.25e11
    # blocks, which the cloud never lists.
    contexts, _, _ = build_contexts(7, (40, 24), 3)
    shards = run_rings(contexts)
    t0 = time.perf_counter()
    agg = assemble_aggregate(shards, (10**12, 10**12), 8)
    assert time.perf_counter() - t0 < 2.0
    assert agg.fold_sizes == (2 * 10**12,)
    assert agg.x_star.shape == (2 * 10**12, 3)


def test_assemble_takes_the_layout_from_the_public_row_counts():
    # The frames carry factors only: the fold sizes follow the counts the
    # cloud is given, block j in fold j mod 3
    contexts, _, _ = build_contexts(7, (40, 24), 3)
    shards = pass_rings(contexts, 3)
    shards = [pass_encrypt(contexts[1 - o], s, o + 1)
              for o, s in enumerate(shards)]
    agg = assemble_aggregate(shards, (40, 24), 8, 3)
    assert agg.fold_sizes == (16 + 8, 16 + 8, 8 + 8)
    agg = assemble_aggregate(shards, (41, 30), 4, 3)
    assert agg.fold_sizes == (16 + 12, 13 + 10, 12 + 8)  # tails of 1 and 2


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


def test_residual_gram_stack_round_trip():
    contexts, _, _ = build_contexts(9, (10, 10), 3)
    rng = np.random.default_rng(9)
    grams = [m.T @ m for m in rng.standard_normal((5, 3, 3))]
    masked = list(grams)
    for ctx in contexts:
        masked = [ctx.keys.c_key.T @ m @ ctx.keys.c_key for m in masked]
    stack = np.vstack(masked)
    for ctx in contexts:
        stack = residual_gram_decrypt_step(ctx, stack)
    assert stack.shape == (15, 3)
    np.testing.assert_allclose(stack, np.vstack(grams), atol=1e-8)


@pytest.mark.parametrize("action", [a for a in TAMPER_ACTIONS
                                    if a not in ("honest", "perturb_result")])
def test_agency_tampering_detected(action):
    contexts, _, _ = build_contexts(10, (30, 30), 4)
    inject_tamper(contexts, TamperPlan(action=action, agency=2))
    agg = assemble_aggregate(run_rings(contexts), (30, 30), 8)
    if action == "wrong_decrypt":  # the runner swaps the key at this step
        contexts[1].keys.b_key = _fresh_key(contexts[1])
    est = decrypt_all(contexts, cloud_fit(agg, "linear").values)
    assert verify_estimate(est, "linear").verdict == "tampered"


def test_cloud_perturbation_detected():
    contexts, _, _ = build_contexts(11, (30, 30), 4)
    agg = assemble_aggregate(run_rings(contexts), (30, 30), 8)
    est = cloud_fit(agg, "linear").values
    est[0, 0] += 0.02  # the runner applies this for perturb_result
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


@pytest.mark.parametrize("magnitude", [np.nan, np.inf, -np.inf])
def test_tamper_plan_rejects_non_finite_magnitude(magnitude):
    with pytest.raises(ValueError, match="magnitude must be finite"):
        TamperPlan(action="perturb_result", magnitude=magnitude)


def test_modes_constant():
    assert MODES == ("linear", "ridge")


def test_decrypt_order_does_not_matter():
    # commuting keys: decrypting 2 then 1 equals decrypting 1 then 2
    c_a, x, y = build_contexts(13, (25, 25), 4)
    c_b, _, _ = build_contexts(13, (25, 25), 4)
    est_a = cloud_fit(assemble_aggregate(run_rings(c_a), (25, 25), 8),
                      "linear").values
    est_b = cloud_fit(assemble_aggregate(run_rings(c_b), (25, 25), 8),
                      "linear").values
    out_a = decrypt_round(c_a[1], decrypt_round(c_a[0], est_a))
    out_b = decrypt_round(c_b[0], decrypt_round(c_b[1], est_b))
    np.testing.assert_allclose(out_a, out_b, atol=1e-9)
