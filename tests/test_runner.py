"""End-to-end orchestration tests: rings, folds, full runs, encrypted CV."""

import dataclasses
import os
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from maskreg import keygen, protocol
from maskreg import transport as transport_module
from maskreg.errors import (
    DimMismatch,
    FoldBlockMisaligned,
    ProtocolOrderViolation,
    TooManyAgencies,
    TransportFailure,
)
from maskreg.model import auc, cross_validate, mse, ols_fit, ridge_fit
from maskreg.protocol import TamperPlan
from maskreg.runner import (
    CLOUD,
    RunConfig,
    build_contexts,
    channels,
    cross_validate_encrypted,
    fold_rows,
    run_protocol,
)
from maskreg.transport import (
    MSG_ESTIMATE,
    MSG_GRAM_RELEASE,
    MSG_RESIDUAL_GRAM,
    MSG_SHARD,
    BusTransport,
    TcpTransport,
)

from fold_layout import fold_layout


def make_datasets(k, n_per, p, seed=0, noise=0.01):
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(p)
    out = []
    for _ in range(k):
        x = rng.standard_normal((n_per, p))
        y = x @ beta + noise * rng.standard_normal(n_per)
        out.append((x, y))
    return out


def stacked(datasets):
    return (
        np.vstack([x for x, _ in datasets]),
        np.concatenate([y for _, y in datasets]),
    )


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(k=0)
    with pytest.raises(TooManyAgencies):
        RunConfig(k=300)
    with pytest.raises(ValueError):
        RunConfig(mode="quantile")
    with pytest.raises(ValueError):
        RunConfig(folds=1)
    for lam in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError):
            RunConfig(mode="ridge", lam=lam)
    for grid in ((), (float("nan"), 1.0), (0.1, float("inf")), (-0.5,)):
        with pytest.raises(ValueError):
            RunConfig(mode="ridge", lambda_grid=grid)
    for delta in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="delta"):
            RunConfig(delta=delta)
    assert RunConfig(delta=0.0).delta == 0.0  # 0 still means "no noise"
    for block_size in (0, -3, 2.5, 16.0, "16", None):
        with pytest.raises(ValueError, match="block_size"):
            RunConfig(block_size=block_size)
    assert RunConfig(block_size=np.int64(16)).block_size == 16
    for name in ("k", "folds", "seed"):
        for value in (2.0, 3.5, "3", None):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                RunConfig(**{name: value})
    assert RunConfig(k=np.int64(3), folds=np.int64(4)).folds == 4
    assert RunConfig(seed=np.int64(7)).seed == 7
    for action in ("skip_pseudo_response", "non_commutative_key",
                   "wrong_decrypt"):
        for agency in (0, -1, 3):
            with pytest.raises(ValueError, match="tamper agency"):
                RunConfig(k=2, tamper=TamperPlan(action, agency=agency))
        assert RunConfig(k=2, tamper=TamperPlan(action, agency=2)).k == 2
    # the cloud-side and honest plans name no agency, so any id is fine
    for action in ("honest", "perturb_result"):
        RunConfig(k=2, tamper=TamperPlan(action, agency=3))


def test_build_contexts_shape_checks():
    datasets = make_datasets(2, 30, 4)
    config = RunConfig(k=3, seed=1)
    with pytest.raises(DimMismatch):
        build_contexts(datasets, config)
    bad = [(np.zeros((10, 3)), np.zeros(10)), (np.zeros((10, 4)), np.zeros(10))]
    with pytest.raises(DimMismatch):
        build_contexts(bad, RunConfig(k=2))


# ---------------------------------------------------------------- full runs


def test_linear_run_matches_ols():
    datasets = make_datasets(3, 60, 5, seed=7)
    report = run_protocol(datasets, RunConfig(k=3, seed=7))
    x, y = stacked(datasets)
    assert rel_err(report.beta(), ols_fit(x, y)) < 1e-8
    assert report.verify.verdict == "accepted"
    assert report.config["k"] == 3
    assert "mse" in report.metrics
    assert set(report.timings_ms) >= {"keygen", "masking", "fit", "decrypt"}


@pytest.mark.parametrize("n, p, k, seed", [
    (4008, 8, 24, 0), (4008, 8, 24, 1), (4008, 8, 24, 2),
    (20000, 8, 32, 0), (20000, 8, 32, 1), (20000, 8, 32, 2),
    (8000, 64, 4, 0),
])
def test_honest_linear_run_accepted(n, p, k, seed):
    # Many agencies multiply many keys together, and wide bases are the
    # hard case for keygen; honest runs must still pass at the stock
    # tolerance and match the plaintext fit.
    datasets = make_datasets(k, n // k, p, seed=seed)
    report = run_protocol(datasets, RunConfig(k=k, seed=seed))
    assert report.verify.tolerance == protocol.VERIFY_TOL
    assert report.verify.verdict == "accepted"
    x, y = stacked(datasets)
    assert rel_err(report.beta(), ols_fit(x, y)) < 1e-8


@pytest.mark.parametrize("n, p, k, mode", [
    (20000, 128, 32, "linear"), (20000, 128, 32, "ridge"),
    (20000, 64, 32, "linear"),
    (8192, 128, 64, "linear"), (8192, 128, 64, "ridge"),
])
def test_wide_many_agency_run_accepted(n, p, k, mode):
    # Many keys at large p: a cloud solve that squares cond(X·ΠB) rules
    # these honest runs "tampered" or lets ridge drift off the oracle
    # unseen, and so would keys whose product is ill conditioned. Each
    # key's block moduli lie in [1, 1000^(1/k)], so cond(ΠB) ≤ 4,000.
    datasets = make_datasets(k, n // k, p, seed=0)
    report = run_protocol(datasets, RunConfig(k=k, mode=mode, lam=1.0, seed=0))
    assert report.verify.tolerance == protocol.VERIFY_TOL
    assert report.verify.verdict == "accepted"
    x, y = stacked(datasets)
    ref = ols_fit(x, y) if mode == "linear" else ridge_fit(x, y, 1.0)
    assert rel_err(report.beta(), ref) < 1e-9


def test_single_agency_run():
    datasets = make_datasets(1, 80, 4, seed=3)
    report = run_protocol(datasets, RunConfig(k=1, seed=3))
    x, y = stacked(datasets)
    assert rel_err(report.beta(), ols_fit(x, y)) < 1e-8
    assert report.verify.verdict == "accepted"


def test_ridge_run_matches_closed_form():
    datasets = make_datasets(2, 50, 4, seed=11)
    report = run_protocol(
        datasets, RunConfig(k=2, mode="ridge", lam=2.5, seed=11)
    )
    x, y = stacked(datasets)
    assert rel_err(report.beta(), ridge_fit(x, y, 2.5)) < 1e-8
    assert report.verify.verdict == "accepted"


def test_offset_run_fits_shifted_data():
    """With row offsets on, the estimate solves the offset design exactly."""
    datasets = make_datasets(2, 60, 4, seed=13)
    config = RunConfig(k=2, delta=0.5, seed=13)
    report = run_protocol(datasets, config)
    assert report.verify.verdict == "accepted"
    # rebuild the contexts deterministically to read back the same offsets
    contexts = build_contexts(
        [(np.asarray(x, float), np.asarray(y, float)) for x, y in datasets],
        config,
    )
    x_off = np.vstack([c.x for c in contexts])
    y = np.concatenate([y for _, y in datasets])
    assert rel_err(report.beta(), ols_fit(x_off, y)) < 1e-8


def test_tampered_run_flagged():
    datasets = make_datasets(2, 50, 4, seed=2)
    config = RunConfig(
        k=2, seed=2, tamper=TamperPlan(action="perturb_result", magnitude=1.0)
    )
    report = run_protocol(datasets, config)
    assert report.verify.verdict == "tampered"


def test_shard_frame_headers_follow_the_ring(monkeypatch):
    """Origin o's shard is masked by o, o + 1, ... (mod k): each hop
    carries the ids that masked it in that order, origin first; the cloud
    receives the frame with all k."""
    original = BusTransport.send
    sent = []

    def recording(self, src, dst, frame):
        if frame.msg_type == MSG_SHARD:
            sent.append((src, dst, frame))
        return original(self, src, dst, frame)

    monkeypatch.setattr(BusTransport, "send", recording)
    rings = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
    report = run_protocol(make_datasets(3, 40, 3, seed=5),
                          RunConfig(k=3, seed=5))
    assert report.verify.verdict == "accepted"
    assert len(sent) == 9
    hops = set()
    for src, dst, frame in sent:
        ring = rings[frame.applied[0] - 1]
        n_applied = len(frame.applied)
        assert frame.applied == ring[:n_applied]
        assert src == frame.applied[-1]
        assert dst == (ring[n_applied] if n_applied < 3 else CLOUD)
        hops.add((frame.applied[0], n_applied))
    assert hops == {(o, r) for o in (1, 2, 3) for r in (1, 2, 3)}


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_runs_send_on_exactly_the_run_channels(monkeypatch, k):
    """Linear runs, ridge runs and encrypted CV send on every channel of
    ``channels(k)`` and on no other pair."""
    assert len(channels(k)) == (2 if k == 1 else 2 * k + 1)
    original = BusTransport.send
    used = set()

    def recording(self, src, dst, frame):
        used.add((src, dst))
        return original(self, src, dst, frame)

    monkeypatch.setattr(BusTransport, "send", recording)
    datasets = make_datasets(k, 48, 3, seed=30)
    for go, config in [
        (run_protocol, RunConfig(k=k, seed=30)),
        (run_protocol, RunConfig(k=k, mode="ridge", seed=30)),
        (cross_validate_encrypted,
         RunConfig(k=k, mode="ridge", block_size=8, folds=3, seed=30)),
    ]:
        used.clear()
        assert go(datasets, config).verify.verdict == "accepted"
        assert used == set(channels(k))


def test_tcp_run_at_k32_fits_a_256_descriptor_limit():
    """One connection per channel: a k=32 run over TCP holds 4k+3
    descriptors (both ends of 2k+1 channels and the reader's selector),
    so it runs under a soft limit of 256 (one per pair would need about
    2k²)."""
    resource = pytest.importorskip("resource")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import resource, numpy as np\n"
        "from maskreg.runner import RunConfig, run_protocol\n"
        "hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]\n"
        "soft = 256 if hard == resource.RLIM_INFINITY else min(256, hard)\n"
        "resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))\n"
        "rng = np.random.default_rng(42)\n"
        "data = [(rng.standard_normal((64, 8)), rng.standard_normal(64))\n"
        "        for _ in range(32)]\n"
        "report = run_protocol(data, RunConfig(k=32, seed=42, transport='tcp'))\n"
        "print(report.verify.verdict)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["accepted"]


@pytest.mark.parametrize("transport", ["bus", "tcp"])
def test_agency_error_aborts_run_at_once(monkeypatch, transport):
    """An exception in one agency's step ends the run as itself."""
    original = protocol.pass_encrypt

    def failing(ctx, shard, folds, origin):
        if ctx.agency_id == 2:
            raise ValueError("agency 2 cannot mask")
        return original(ctx, shard, folds, origin)

    monkeypatch.setattr(protocol, "pass_encrypt", failing)
    datasets = make_datasets(3, 40, 3, seed=6)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="agency 2 cannot mask"):
        run_protocol(datasets, RunConfig(k=3, seed=6, transport=transport))
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize("transport, readers", [("bus", 0), ("tcp", 1)])
def test_runs_start_no_thread_but_the_tcp_reader(monkeypatch, transport,
                                                 readers):
    """The caller's thread drives every participant: a run starts no
    thread of its own, only the TCP transport's one reader."""
    started = []
    original = threading.Thread.start

    def counting(self):
        started.append(self)
        return original(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    datasets = make_datasets(3, 48, 3, seed=8)
    for go, config in [
        (run_protocol, RunConfig(k=3, seed=8, transport=transport)),
        (cross_validate_encrypted, RunConfig(
            k=3, mode="ridge", block_size=8, folds=3, seed=8,
            transport=transport)),
    ]:
        started.clear()
        assert go(datasets, config).verify.verdict == "accepted"
        assert len(started) == readers


@pytest.mark.parametrize("transport", ["bus", "tcp"])
def test_runs_never_write_caller_data(transport):
    """Runs leave every caller's x and y as they were."""
    datasets = make_datasets(3, 40, 3, seed=8)
    before = [(x.copy(), y.copy()) for x, y in datasets]
    run_protocol(datasets, RunConfig(k=3, seed=8, transport=transport))
    cross_validate_encrypted(datasets, RunConfig(
        k=3, mode="ridge", folds=2, seed=8, transport=transport))
    for (x, y), (x0, y0) in zip(datasets, before):
        assert np.array_equal(x, x0) and np.array_equal(y, y0)


@pytest.mark.xfail(strict=True, reason=(
    "known defect: the ridge verification response is zero, and a wrong "
    "feature-side key maps zero to zero, so key-side tampering passes"))
@pytest.mark.parametrize("action", ["wrong_decrypt", "non_commutative_key"])
def test_ridge_key_tampering_detected(action):
    datasets = make_datasets(2, 200, 5, seed=3)
    for seed in range(5):
        report = run_protocol(datasets, RunConfig(
            k=2, mode="ridge", seed=seed,
            tamper=TamperPlan(action=action, agency=1 + seed % 2),
        ))
        assert report.verify.verdict == "tampered"


@pytest.mark.parametrize("transport", ["bus", "tcp"])
@pytest.mark.parametrize("mode, delta", [("ridge", None), ("ridge", 0.5),
                                         ("linear", 0.5)])
def test_skip_pseudo_response_rejected(mode, delta, transport):
    """An agency that regresses its rows on noise weights instead of the
    w it owes is caught in either mode, with or without an offset."""
    datasets = make_datasets(3, 60, 4, seed=14)
    for agency in (1, 3):
        plan = TamperPlan(action="skip_pseudo_response", agency=agency)
        config = RunConfig(k=3, mode=mode, delta=delta, seed=14 + agency,
                           transport=transport)
        assert run_protocol(datasets, config).verify.accepted
        report = run_protocol(datasets,
                              dataclasses.replace(config, tamper=plan))
        assert report.verify.verdict == "tampered"
        assert report.verify.max_deviation > 1e3 * report.verify.tolerance


def test_unknown_transport_rejected_before_keygen(monkeypatch):
    calls = []
    monkeypatch.setattr(keygen, "derive_bases",
                        lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError, match="unknown transport 'udp'"):
        run_protocol(make_datasets(2, 40, 3), RunConfig(k=2, transport="udp"))
    assert calls == []


@pytest.mark.parametrize("block_size", [0, -3, 2.5])
def test_bad_block_size_rejected_before_keygen(monkeypatch, block_size):
    calls = []
    monkeypatch.setattr(keygen, "derive_bases",
                        lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError, match="block_size"):
        run_protocol(make_datasets(2, 40, 3),
                     RunConfig(k=2, block_size=block_size))
    assert calls == []


@pytest.mark.parametrize("name, value", [("k", 2.0), ("folds", 3.0)])
def test_non_integral_k_or_folds_rejected_before_keygen(monkeypatch, name,
                                                        value):
    calls = []
    monkeypatch.setattr(keygen, "derive_bases",
                        lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        cross_validate_encrypted(make_datasets(2, 40, 3),
                                 RunConfig(mode="ridge", **{name: value}))
    assert calls == []


def test_unknown_tamper_agency_rejected_before_keygen(monkeypatch):
    calls = []
    monkeypatch.setattr(keygen, "derive_bases",
                        lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError, match="tamper agency 3"):
        run_protocol(make_datasets(2, 40, 3), RunConfig(
            k=2, tamper=TamperPlan("wrong_decrypt", agency=3)))
    assert calls == []


@pytest.mark.parametrize("values", [(2.5,), (0.0, 1.0, 2.0)],
                         ids=["constant", "three_valued"])
def test_non_binary_response_reports_no_auc(values):
    rng = np.random.default_rng(4)
    datasets = []
    for _ in range(2):
        x = rng.standard_normal((40, 3))
        y = np.resize(np.asarray(values, float), 40)
        datasets.append((x, y))
    report = run_protocol(datasets, RunConfig(k=2, seed=4))
    assert "auc" not in report.metrics


def test_plus_minus_one_response_reports_auc():
    rng = np.random.default_rng(5)
    datasets = []
    for _ in range(2):
        x = rng.standard_normal((40, 3))
        y = np.where(x[:, 0] + 0.5 * rng.standard_normal(40) > 0, 1.0, -1.0)
        datasets.append((x, y))
    report = run_protocol(datasets, RunConfig(k=2, seed=5))
    x, y = stacked(datasets)
    assert report.metrics["auc"] == auc(y, x @ report.beta())


def test_binary_response_reports_auc():
    rng = np.random.default_rng(4)
    datasets = []
    for _ in range(2):
        x = rng.standard_normal((40, 3))
        y = (x[:, 0] > 0).astype(float)
        datasets.append((x, y))
    report = run_protocol(datasets, RunConfig(k=2, seed=4))
    assert 0.5 < report.metrics["auc"] <= 1.0
    x, y = stacked(datasets)
    scores = x @ report.beta()
    assert rel_err(report.metrics["mse"], mse(y, scores)) <= 1e-12
    assert rel_err(report.metrics["auc"], auc(y, scores)) <= 1e-12


def usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(usable_cpus() < 2,
                    reason="BLAS runs no worker threads on one CPU")
def test_run_leaves_no_blas_worker_spinning():
    # A BLAS call large enough to thread leaves OpenBLAS's workers spinning
    # for about 0.1 s of CPU after it returns; every call on a run's path is
    # small, so the process idles once the run is over. The runs are a
    # linear fit on the bus, an encrypted CV at the cv_select benchmark's
    # shape and a four-agency TCP fit.
    grid = tuple(float(v) for v in np.logspace(-3.0, 2.0, 16))
    runs = [
        (run_protocol, make_datasets(3, 8000, 16, seed=5),
         RunConfig(k=3, seed=5)),
        (cross_validate_encrypted,
         make_datasets(2, 12_000, 24, seed=5, noise=1.0),
         RunConfig(k=2, mode="ridge", folds=5, lambda_grid=grid, seed=5)),
        (run_protocol, make_datasets(4, 4000, 24, seed=5),
         RunConfig(k=4, seed=5, transport="tcp")),
    ]
    for run, datasets, config in runs:
        assert run(datasets, config).verify.accepted
        start = time.process_time()
        time.sleep(0.3)
        assert time.process_time() - start < 0.03, (run.__name__, config)


def test_report_to_dict_roundtrips_to_json():
    import json

    datasets = make_datasets(2, 40, 3, seed=9)
    report = run_protocol(datasets, RunConfig(k=2, seed=9))
    payload = json.dumps(report.to_dict())
    back = json.loads(payload)
    assert back["verify"]["verdict"] == "accepted"
    assert len(back["beta"]) == 3
    assert len(back["estimate"]) == 3 and len(back["estimate"][0]) == 3


# ---------------------------------------------------------------- folds


def _layout(datasets, config):
    return fold_layout([len(y) for _, y in datasets], config.block_size)


def test_fold_rows_whole_blocks_round_robin():
    datasets = make_datasets(2, 48, 3, seed=1)
    config = RunConfig(k=2, block_size=8, folds=3, seed=1)
    layout = _layout(datasets, config)
    folds = fold_rows(layout, 3)
    # partition of all rows
    all_rows = np.sort(np.concatenate(folds))
    np.testing.assert_array_equal(all_rows, np.arange(96))
    # every fold contains whole blocks from both agencies
    ranges = layout.block_ranges
    for rows in folds:
        row_set = set(rows.tolist())
        touched = [(a, b) for a, b in ranges if a in row_set]
        for a, b in touched:
            assert set(range(a, b)) <= row_set
        origins = {0 if a < 48 else 1 for a, b in touched}
        assert origins == {0, 1}


def test_fold_rows_misaligned_rejected():
    datasets = make_datasets(2, 20, 3, seed=1)
    config = RunConfig(k=2, block_size=16, folds=5, seed=1)
    with pytest.raises(FoldBlockMisaligned):
        fold_rows(_layout(datasets, config), 5)


# ---------------------------------------------------------------- CV


def test_encrypted_cv_matches_plaintext_oracle():
    datasets = make_datasets(2, 48, 3, seed=21, noise=0.5)
    config = RunConfig(
        k=2, mode="ridge", block_size=8, folds=3,
        lambda_grid=(0.01, 0.1, 1.0, 10.0), seed=21,
    )
    report = cross_validate_encrypted(datasets, config)
    assert report.verify.verdict == "accepted"

    folds = fold_rows(_layout(datasets, config), config.folds)
    x, y = stacked(datasets)
    oracle = cross_validate(x, y, config.lambda_grid, folds)

    enc = np.asarray(report.cv["fold_mse"])
    assert rel_err(enc, oracle.fold_mse) < 1e-8
    assert report.cv["chosen_lambda"] == oracle.chosen_lambda
    assert rel_err(
        report.beta(), ridge_fit(x, y, oracle.chosen_lambda)
    ) < 1e-8


def test_encrypted_cv_fold_mse_exact():
    datasets = make_datasets(3, 400, 6, seed=23, noise=0.5)
    config = RunConfig(
        k=3, mode="ridge", block_size=16, folds=5,
        lambda_grid=(0.0, 0.1, 1.0, 10.0), seed=23,
    )
    report = cross_validate_encrypted(datasets, config)
    folds = fold_rows(_layout(datasets, config), config.folds)
    x, y = stacked(datasets)
    oracle = cross_validate(x, y, config.lambda_grid, folds)
    assert rel_err(np.asarray(report.cv["fold_mse"]), oracle.fold_mse) < 1e-10


def test_encrypted_cv_flags_perturbed_result():
    datasets = make_datasets(2, 48, 3, seed=21, noise=0.5)
    config = RunConfig(
        k=2, mode="ridge", block_size=8, folds=3, seed=21,
        tamper=TamperPlan(action="perturb_result", magnitude=1.0),
    )
    report = cross_validate_encrypted(datasets, config)
    assert report.verify.verdict == "tampered"


def test_encrypted_cv_requires_ridge():
    datasets = make_datasets(2, 48, 3, seed=1)
    with pytest.raises(ValueError):
        cross_validate_encrypted(
            datasets, RunConfig(k=2, mode="linear", block_size=8, folds=3)
        )


@pytest.mark.parametrize("k, grid_size, folds",
                         [(2, 4, 3), (3, 4, 5), (2, 16, 5), (3, 16, 3)])
def test_encrypted_cv_sends_one_residual_gram_ring(
        monkeypatch, k, grid_size, folds):
    """All (lambda, fold) residual Grams travel in one ring: k + 1 frames,
    whatever the grid and fold count."""
    original = BusTransport.send
    sent = []

    def counting(self, src, dst, frame):
        sent.append(frame.msg_type)
        return original(self, src, dst, frame)

    monkeypatch.setattr(BusTransport, "send", counting)
    datasets = make_datasets(k, 48, 3, seed=25, noise=0.5)
    config = RunConfig(
        k=k, mode="ridge", block_size=8, folds=folds, seed=25,
        lambda_grid=tuple(np.logspace(-3.0, 2.0, grid_size)),
    )
    report = cross_validate_encrypted(datasets, config)
    assert sent.count(MSG_RESIDUAL_GRAM) == k + 1

    folds_ = fold_rows(_layout(datasets, config), folds)
    x, y = stacked(datasets)
    oracle = cross_validate(x, y, config.lambda_grid, folds_)
    assert rel_err(np.asarray(report.cv["fold_mse"]), oracle.fold_mse) < 1e-10


def test_encrypted_cv_rejects_short_gram_stack(monkeypatch):
    """A ring that returns fewer stacked residual Grams than it was sent
    fails closed."""
    original = protocol.residual_gram_decrypt_step

    def dropping(ctx, s):
        out = original(ctx, s)
        return out[:-3] if ctx.agency_id == ctx.num_agencies else out

    monkeypatch.setattr(protocol, "residual_gram_decrypt_step", dropping)
    datasets = make_datasets(2, 48, 3, seed=21, noise=0.5)
    config = RunConfig(k=2, mode="ridge", block_size=8, folds=3, seed=21)
    with pytest.raises(ProtocolOrderViolation, match="residual Grams"):
        cross_validate_encrypted(datasets, config)


#: The applied ids a forging agency sends in place of a frame's own ids:
#: with its last holder hidden, or with that holder repeated.
FORGED_IDS = {"hidden": lambda ids: ids[:-1],
              "repeated": lambda ids: ids + ids[-1:]}


@pytest.mark.parametrize("msg_type, forged, dst, transport", [
    *(pytest.param(msg_type, forged, 3, "bus", id=f"{name}-{forged}")
      for name, msg_type in [("estimate", MSG_ESTIMATE),
                             ("gram_release", MSG_GRAM_RELEASE),
                             ("residual_gram", MSG_RESIDUAL_GRAM)]
      for forged in FORGED_IDS),
    *(pytest.param(MSG_SHARD, forged, 3, kind, id=f"shard-{forged}-{kind}")
      for forged in FORGED_IDS for kind in ("bus", "tcp")),
    *(pytest.param(MSG_SHARD, "hidden", CLOUD, kind,
                   id=f"completed_shard-hidden-{kind}")
      for kind in ("bus", "tcp")),
])
def test_ring_hop_with_wrong_applied_ids_rejected(monkeypatch, msg_type,
                                                  forged, dst, transport):
    """Agency 2 sends ``dst`` a frame whose applied ids hide its last holder
    or repeat it: a ring frame or a shard to agency 3, or completed shard
    3 to the cloud without agency 2's id; ``dst`` refuses the frame."""
    for cls in (BusTransport, TcpTransport):
        def forging(self, src, to, frame, _send=cls.send):
            if src == 2 and to == dst and frame.msg_type == msg_type:
                frame = dataclasses.replace(
                    frame, applied=FORGED_IDS[forged](frame.applied))
            return _send(self, src, to, frame)
        monkeypatch.setattr(cls, "send", forging)
    datasets = make_datasets(3, 48, 3, seed=21, noise=0.5)
    config = RunConfig(k=3, mode="ridge", block_size=8, folds=3, seed=21,
                       transport=transport)
    with pytest.raises(ProtocolOrderViolation,
                       match=f"^participant {dst} expected"):
        cross_validate_encrypted(datasets, config)


def _capture_cloud_view(monkeypatch):
    """Record each shard's rows times the keys of every agency that keyed
    its factors, [(X + Δ)·ΠB | Y·ΠC], and the aggregate each ``cloud_fit``
    call sees."""
    shards, fits = {}, []
    local, passing = protocol.local_encrypt, protocol.pass_encrypt

    def keyed(ctx, rows):
        p = ctx.keys.b_key.shape[0]
        return np.hstack([rows[:, :p] @ ctx.keys.b_key,
                          rows[:, p:] @ ctx.keys.c_key])

    def recording_local(ctx, folds):
        y, decoy = ctx.responses.T
        shards[ctx.agency_id] = keyed(ctx, np.column_stack(
            [ctx.x, y, ctx.x @ ctx.verify_weights, decoy]))
        return local(ctx, folds)

    def recording_pass(ctx, shard, folds, origin):
        shards[origin] = keyed(ctx, shards[origin])
        return passing(ctx, shard, folds, origin)

    monkeypatch.setattr(protocol, "local_encrypt", recording_local)
    monkeypatch.setattr(protocol, "pass_encrypt", recording_pass)
    original = protocol.cloud_fit

    def capturing(agg, mode, lam=0.0, rows=None):
        fits.append((rows, agg))
        return original(agg, mode, lam=lam, rows=rows)

    monkeypatch.setattr(protocol, "cloud_fit", capturing)
    return shards, fits


def _stacked_shards(shards):
    """The captured keyed rows, stacked in origin order."""
    return np.vstack([shards[origin] for origin in sorted(shards)])


def test_encrypted_cv_final_fit_reuses_fold_factors(monkeypatch):
    """The final fit solves from the R stacked from the fold factors,
    which is the R of every masked row."""
    shards, seen = _capture_cloud_view(monkeypatch)
    datasets = make_datasets(2, 48, 3, seed=21, noise=0.5)
    config = RunConfig(k=2, mode="ridge", block_size=8, folds=3, seed=21)
    report = cross_validate_encrypted(datasets, config)
    assert report.verify.verdict == "accepted"
    assert len(seen) == 1
    rows, agg = seen[0]
    assert rows is None and agg.z_factor is not None
    z = _stacked_shards(shards)
    assert rel_err(agg.z_factor, protocol.r_factor(z)) < 1e-12


@pytest.mark.parametrize("transport", ["bus", "tcp"])
@pytest.mark.parametrize("mode, cv", [("linear", False), ("ridge", False),
                                      ("ridge", True)])
def test_cloud_factors_match_stacked_shards(monkeypatch, transport, mode, cv):
    """The R the cloud builds from the last holders' keyed fold factors is
    the R of the stacked rows times the keys of every agency; with CV,
    each fold's factor is the R of that fold's fold_rows rows."""
    shards, seen = _capture_cloud_view(monkeypatch)
    datasets = [(x, y) for x, y in make_datasets(3, 100, 4, seed=31,
                                                  noise=0.5)]
    datasets[1] = (datasets[1][0][:77], datasets[1][1][:77])  # a tail block
    config = RunConfig(k=3, mode=mode, block_size=8, folds=4, seed=31,
                       transport=transport)
    entry = cross_validate_encrypted if cv else run_protocol
    assert entry(datasets, config).verify.verdict == "accepted"
    (_, agg), = seen
    assert len(shards) == 3
    z = _stacked_shards(shards)
    assert agg.x_star.shape == (z.shape[0], 4)
    assert rel_err(agg.z_factor, protocol.r_factor(z)) < 1e-12
    folds = (fold_rows(_layout(datasets, config), config.folds) if cv
             else [np.arange(len(z))])
    assert agg.fold_factors.shape == (len(folds), 7, 7)
    assert agg.fold_sizes == tuple(rows.size for rows in folds)
    for factor, rows in zip(agg.fold_factors, folds):
        assert rel_err(factor, protocol.r_factor(z[rows])) < 1e-12


@pytest.mark.parametrize("transport", ["bus", "tcp"])
@pytest.mark.parametrize("k, cv, delta", [(1, False, 0.5), (3, False, None),
                                          (3, True, None), (2, True, 0.5)])
def test_cloud_receives_fold_factors_not_rows(monkeypatch, transport, k, cv,
                                              delta):
    """No frame on any channel has a shard's row count in its shape: every
    hop of every shard, the one to the cloud included, carries exactly one
    matrix, its (F·q, q) keyed fold factors. With one agency
    the origin sends its own round-1 frame to the cloud, and the fit is
    still that of its offset rows."""
    sent = []
    for cls in (BusTransport, TcpTransport):
        def recording(self, src, dst, frame, _send=cls.send):
            sent.append(frame)
            return _send(self, src, dst, frame)
        monkeypatch.setattr(cls, "send", recording)
    datasets = make_datasets(k, 77, 4, seed=33)
    config = RunConfig(k=k, mode="ridge" if cv else "linear", block_size=8,
                       folds=4, delta=delta, seed=33, transport=transport)
    report = (cross_validate_encrypted if cv else run_protocol)(datasets,
                                                                config)
    assert report.verify.verdict == "accepted"
    folds = config.folds if cv else 1
    shards = [f for f in sent if f.msg_type == MSG_SHARD]
    assert sorted((f.applied[0], len(f.applied)) for f in shards) == [
        (o, r) for o in range(1, k + 1) for r in range(1, k + 1)]
    for frame in shards:
        assert frame.matrix.shape == (folds * 7, 7)
    assert not any(77 in f.matrix.shape for f in sent)
    contexts = build_contexts(datasets, config)
    x = np.vstack([c.x for c in contexts])
    y = np.concatenate([y for _, y in datasets])
    ref = ridge_fit(x, y, report.cv["chosen_lambda"]) if cv else ols_fit(x, y)
    assert rel_err(report.beta(), ref) < 1e-8


def _edited(r, index, value):
    r = r.copy()
    r[index] = value
    return r


def _rows(r):
    """The (48, q) rows of [X | Y] of a 48-row shard: the layout of a
    shard that travelled as rows, not fold factors."""
    return (np.random.default_rng(35).standard_normal((48, r.shape[1])),)


#: Shard frames no honest agency can send, as (the matrix sections that
#: replace the honest one's matrix r on the wire, the error the receiver
#: must raise). The run is a k=3 CV with 48 rows per agency, 8-row blocks
#: and 3 folds; ``no_matrix``, ``two_matrices`` and ``three_matrices`` are
#: frames without exactly one matrix section, the last two still carrying
#: the origin's row count after the factors, which no longer decode; and
#: ``fewer_blocks_than_folds`` drops a whole fold's (q, q) factor, so every
#: block left is a well-formed factor.
FORGERIES = {
    "no_matrix": (lambda r: (), TransportFailure),
    "two_matrices": (lambda r: (r, np.array([[48.0]])), TransportFailure),
    "three_matrices": (lambda r: (r, np.array([[48.0]]), np.array([[48.0]])),
                       TransportFailure),
    "rows": (_rows, DimMismatch),
    "short_factor_stack": (lambda r: (r[:-1],), DimMismatch),
    "fewer_blocks_than_folds": (lambda r: (r[:-r.shape[1]],), DimMismatch),
    "wide_factor_stack": (lambda r: (np.hstack([r, r]),), DimMismatch),
    "not_upper_triangular": (lambda r: (_edited(r, (1, 0), 1.0),),
                             ProtocolOrderViolation),
    "negative_diagonal": (lambda r: (_edited(r, (0, 0), -1.0),),
                          ProtocolOrderViolation),
    "nan_factor": (lambda r: (_edited(r, (0, 0), np.nan),),
                   ProtocolOrderViolation),
    "inf_factor": (lambda r: (_edited(r, (0, 1), np.inf),),
                   ProtocolOrderViolation),
}

#: The hop that forges, as (the ids applied to the forged shard frame,
#: what the receiver's error names, the channel a frame that does not
#: decode is named by). Agency 1 sends its round-1 frame of shard 1 to
#: agency 2; agency 2 holds shard 3 last and sends it to the cloud.
HOPS = {
    "agency": ((1,), "agency 2: shard 1", "1 -> 2: "),
    "cloud": ((3, 1, 2), "completed shard 3", "2 -> 0: "),
}


def _sections(wire, frame, matrices):
    """``frame``'s wire bytes ``wire`` with its one matrix section replaced
    by one section per entry of ``matrices``, the length prefix fixed up."""
    body = bytes(wire)[4:-8 - frame.matrix.nbytes] + b"".join(
        struct.pack("<II", *m.shape) + np.asarray(m, "<f8").tobytes()
        for m in matrices)
    return struct.pack("<I", len(body)) + body


def _forging_encoder(monkeypatch, forged, forge):
    """Make both transports send ``_sections`` of ``forge(matrix)`` for
    the frame ``forged(frame)`` picks, and every other frame as it is."""
    encode = transport_module.encode_frame

    def forging(frame):
        wire = encode(frame)
        return _sections(wire, frame, forge(frame.matrix)) if forged(
            frame) else wire

    monkeypatch.setattr(transport_module, "encode_frame", forging)


def _forged_run_fails_at_once(monkeypatch, transport, forgery, hop):
    forge, error = FORGERIES[forgery]
    applied, where, channel = HOPS[hop]
    _forging_encoder(monkeypatch, lambda frame: (
        frame.msg_type == MSG_SHARD and frame.applied == applied), forge)
    config = RunConfig(k=3, mode="ridge", block_size=8, folds=3, seed=34,
                       transport=transport)
    t0 = time.perf_counter()
    with pytest.raises(error) as caught:
        cross_validate_encrypted(make_datasets(3, 48, 4, seed=34), config)
    assert time.perf_counter() - t0 < 2.0
    assert str(caught.value).startswith(channel) if (
        error is TransportFailure) else where in str(caught.value)


@pytest.mark.parametrize("transport", ["bus", "tcp"])
@pytest.mark.parametrize("forgery", sorted(FORGERIES))
def test_cloud_rejects_a_forged_completed_shard_at_once(monkeypatch,
                                                        transport, forgery):
    _forged_run_fails_at_once(monkeypatch, transport, forgery, "cloud")


@pytest.mark.parametrize("transport", ["bus", "tcp"])
@pytest.mark.parametrize("forgery", sorted(FORGERIES))
def test_agency_rejects_a_forged_shard_at_once(monkeypatch, transport,
                                               forgery):
    _forged_run_fails_at_once(monkeypatch, transport, forgery, "agency")


@pytest.mark.parametrize("transport", ["bus", "tcp"])
@pytest.mark.parametrize("msg_type, shape", [
    (MSG_ESTIMATE, (4, 3)), (MSG_GRAM_RELEASE, (4, 4))],
    ids=["estimate", "gram_release"])
def test_wrong_shaped_ring_matrix_fails_naming_the_agency(
        monkeypatch, transport, msg_type, shape):
    """A cloud that starts the decryption ring with a (p+1, 3) estimate,
    or the R_B release with a (p+1, p+1) seed, fails at agency 1 as
    ``DimMismatch``, not as a matmul error."""
    for cls in (BusTransport, TcpTransport):
        def wrong(self, src, dst, frame, _send=cls.send):
            if src == CLOUD and frame.msg_type == msg_type:
                frame = dataclasses.replace(frame, matrix=np.ones(shape))
            return _send(self, src, dst, frame)
        monkeypatch.setattr(cls, "send", wrong)
    config = RunConfig(k=3, mode="ridge", seed=36, transport=transport)
    t0 = time.perf_counter()
    with pytest.raises(DimMismatch, match="agency 1 expected"):
        run_protocol(make_datasets(3, 40, 3, seed=36), config)
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("transport", ["bus", "tcp"])
@pytest.mark.parametrize("msg_type, src", [
    (MSG_GRAM_RELEASE, CLOUD), (MSG_RESIDUAL_GRAM, 1), (MSG_ESTIMATE, 2)],
    ids=["gram_release", "residual_gram", "estimate"])
def test_ring_frame_with_a_second_matrix_section_fails_at_once(
        monkeypatch, transport, msg_type, src):
    """A ring hop whose bytes carry a second matrix section after its one
    matrix, the length prefix fixed up, fails at the next agency's
    receive as ``TransportFailure`` naming the channel: no frame decodes
    to two matrices."""
    _forging_encoder(monkeypatch, lambda frame: (
        frame.msg_type == msg_type
        and frame.applied == tuple(range(1, src + 1))), lambda m: (m, m))
    config = RunConfig(k=3, mode="ridge", block_size=8, folds=3, seed=37,
                       transport=transport)
    t0 = time.perf_counter()
    with pytest.raises(TransportFailure,
                       match=f"^{src} -> {src % 3 + 1}: .*follow its dimensions"):
        cross_validate_encrypted(make_datasets(3, 48, 4, seed=37), config)
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("transport", ["bus", "tcp"])
@pytest.mark.parametrize("msg_type", [MSG_GRAM_RELEASE, MSG_RESIDUAL_GRAM,
                                      MSG_ESTIMATE],
                         ids=["gram_release", "residual_gram", "estimate"])
def test_cloud_rejects_a_ring_result_of_the_wrong_shape(monkeypatch,
                                                        transport, msg_type):
    """The last agency of a ring sends the cloud its matrix less one
    column; the cloud fails at once, before it uses the matrix."""
    for cls in (BusTransport, TcpTransport):
        def wrong(self, src, dst, frame, _send=cls.send):
            if dst == CLOUD and frame.msg_type == msg_type:
                frame = dataclasses.replace(frame,
                                            matrix=frame.matrix[:, :-1])
            return _send(self, src, dst, frame)
        monkeypatch.setattr(cls, "send", wrong)
    config = RunConfig(k=3, mode="ridge", block_size=8, folds=3, seed=37,
                       transport=transport)
    t0 = time.perf_counter()
    with pytest.raises(ProtocolOrderViolation, match="got back shape"):
        cross_validate_encrypted(make_datasets(3, 48, 4, seed=37), config)
    assert time.perf_counter() - t0 < 2.0


def test_encrypted_cv_too_few_blocks_fails_at_once():
    datasets = make_datasets(2, 20, 3, seed=1)
    config = RunConfig(k=2, mode="ridge", block_size=16, folds=5, seed=1)
    t0 = time.perf_counter()
    with pytest.raises(FoldBlockMisaligned):
        cross_validate_encrypted(datasets, config)
    assert time.perf_counter() - t0 < 5.0


def test_bus_and_tcp_agree():
    datasets = make_datasets(2, 40, 3, seed=17)
    r_bus = run_protocol(datasets, RunConfig(k=2, seed=17, transport="bus"))
    r_tcp = run_protocol(datasets, RunConfig(k=2, seed=17, transport="tcp"))
    np.testing.assert_array_equal(r_bus.estimate, r_tcp.estimate)
    assert r_bus.verify.verdict == r_tcp.verify.verdict
