"""The benchmark's trace wraps library names; they must all resolve.

``perfbench/spans.py`` swaps module and class attributes for timing
wrappers with a bare ``getattr``, so renaming or moving one of them breaks
``perfbench/run.py --trace 1``. These tests load the span module as the
benchmark does and check its hooks against the library.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from maskreg.runner import RunConfig, cross_validate_encrypted, run_protocol

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    for owner, attr, name, _, _ in _spans().patch_points():
        assert callable(getattr(owner, attr, None)), (
            f"{name}: {getattr(owner, '__name__', owner)}.{attr} is missing"
        )


def _traced(entry, config):
    """The span module, its tracer and the span counts by name after one
    traced ``entry`` call at k=3, run inside a root span named "op"."""
    spans = _spans()
    tracer = spans.Tracer()
    rng = np.random.default_rng(0)
    datasets = [(rng.standard_normal((40, 3)), rng.standard_normal(40))
                for _ in range(3)]
    tracer.op = 0
    tracer.install(spans.patch_points())
    try:
        report = tracer.call("op", entry, (datasets, config), {})
    finally:
        tracer.uninstall()
    assert report.verify.accepted
    return spans, tracer, Counter(s.name for s in tracer.spans)


def test_traced_run_draws_and_materializes_each_key_once():
    # The benchmark's key accept ratio divides key draws by key
    # materializations, so both names must be called, once per key:
    # every agency draws a feature key and a response key.
    spans, tracer, calls = _traced(run_protocol, RunConfig(k=3, seed=1))
    assert calls["keygen.draw_commuting_key"] == 6
    assert calls["keygen.commute_materialize"] == 6
    summary = spans.summarize(tracer, [0], "op")
    assert summary["keygen.key_accept_ratio"] == 1.0


def test_traced_run_reaches_the_shard_hooks():
    # Each of k agencies factors its own shard once and keys every other
    # origin's factors once, k(k - 1) hops in all; no hop draws or applies
    # a row mask.
    calls = _traced(run_protocol, RunConfig(k=3, seed=1))[2]
    assert calls["matrix_core.random_ortho_blocks"] == 0
    assert calls["matrix_core.OrthoBlocks.apply"] == 0
    assert calls["protocol.local_encrypt"] == 3
    assert calls["protocol.pass_encrypt"] == 6
    assert calls["protocol.ring_step"] == 3
    # Ring steps are looked up on protocol when a ring runs: ridge CV has
    # every agency step the R_B release and the decryption ring, and the
    # one ring of residual Grams.
    calls = _traced(cross_validate_encrypted,
                    RunConfig(k=3, mode="ridge", folds=3, seed=1))[2]
    assert calls["protocol.ring_step"] == 6
    assert calls["protocol.residual_gram_step"] == 3
