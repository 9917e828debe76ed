"""In-memory span recorder that times maskreg's layers from outside.

The benchmark never edits the library. For a traced op it swaps module and
class attributes for timing wrappers at the points where one layer calls
the next, and puts the originals back when the op ends. A name is wrapped
where its caller looks it up: runner, keygen and protocol import
``make_transport``, ``random_ortho_blocks``, ``commute_materialize`` and
``solve_spd`` by name, so those names are wrapped in the importing module,
not in the module that defines them.

Each span carries its name, start, end, parent span, op id and thread.
Self time is a span's duration minus the durations of its children, which
always run on the span's own thread.
"""

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int
    name: str
    op: int
    thread: int
    start: float
    end: float = 0.0
    extra: dict = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans for the op currently in flight (one at a time)."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, measure=None, cpu=False):
        """Run ``fn`` inside a span; ``measure`` maps (args, kwargs, result)
        to counters stored on the span."""
        stack = self._stack()
        span = Span(next(self._ids), stack[-1].id if stack else None, name,
                    self.op, threading.get_ident(), time.perf_counter())
        cpu0 = time.process_time() if cpu else 0.0
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        extra = measure(args, kwargs, result) if measure else {}
        if cpu:
            extra["cpu_s"] = time.process_time() - cpu0
        span.extra = extra
        return result

    def install(self, points):
        """Wrap every (owner, attribute, span name, measure, cpu) point."""
        for owner, attr, name, measure, cpu in points:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, measure, cpu))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrapper(self, fn, name, measure, cpu):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, measure, cpu)
        return wrapper

    def dump(self, t0):
        """Spans as plain rows, times in seconds since ``t0``."""
        return [
            [s.id, s.parent, s.name, s.op, s.thread,
             round(s.start - t0, 7), round(s.end - t0, 7), s.extra or {}]
            for s in self.spans
        ]


def patch_points():
    """The layer boundaries a traced op wraps, in maskreg's own names."""
    from maskreg import keygen, matrix_core, protocol, runner, transport

    def ortho_blocks(args, kwargs, result):
        return {"blocks": len(result.blocks)}

    def apply_rows(args, kwargs, result):
        return {"rows": args[1].shape[0]}

    def fit_rows(args, kwargs, result):
        rows = kwargs.get("rows")
        return {"rows": args[0].x_star.shape[0] if rows is None else len(rows)}

    def frame_bytes(args, kwargs, result):
        return {"msg_type": args[0].msg_type, "bytes": len(result)}

    points = [
        (runner, "build_contexts", "runner.build_contexts", None, False),
        (runner, "run_pre_modeling", "runner.run_pre_modeling", None, True),
        (runner, "make_transport", "transport.make_transport", None, False),
        (keygen, "derive_bases", "keygen.derive_bases", None, False),
        (keygen, "draw_commuting_key", "keygen.draw_commuting_key", None, False),
        (keygen, "commute_materialize", "keygen.commute_materialize", None, False),
        (keygen, "random_ortho_blocks", "matrix_core.random_ortho_blocks",
         ortho_blocks, False),
        (matrix_core.OrthoBlocks, "apply", "matrix_core.OrthoBlocks.apply",
         apply_rows, False),
        (protocol, "local_encrypt", "protocol.local_encrypt", None, False),
        (protocol, "pass_encrypt", "protocol.pass_encrypt", None, False),
        (protocol, "cloud_fit", "protocol.cloud_fit", fit_rows, False),
        (protocol, "solve_spd", "matrix_core.solve_spd", None, False),
        (protocol, "gram_release_step", "protocol.ring_step", None, False),
        (protocol, "decrypt_round", "protocol.ring_step", None, False),
        (protocol, "residual_gram_decrypt_step",
         "protocol.residual_gram_step", None, False),
        (transport, "encode_frame", "transport.encode_frame", frame_bytes, False),
        (transport, "decode_frame", "transport.decode_frame", None, False),
    ]
    for cls in (transport.BusTransport, transport.TcpTransport):
        points.append((cls, "send", "transport.send", None, False))
        points.append((cls, "recv", "transport.recv", None, False))
    return points


def msg_names():
    from maskreg import transport

    return {
        transport.MSG_SHARD: "shard",
        transport.MSG_GRAM_RELEASE: "gram_release",
        transport.MSG_ESTIMATE: "estimate",
        transport.MSG_RESIDUAL_GRAM: "residual_gram",
    }


def op_layers(spans, root):
    """Per-layer numbers for one op's spans, summed over threads."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    dur = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    extra = defaultdict(int)
    frames = defaultdict(int)
    nbytes = defaultdict(int)
    names = msg_names()
    for s in spans:
        dur[s.name] += s.duration
        own[s.name] += s.duration - child_time[s.id]
        calls[s.name] += 1
        for key, value in (s.extra or {}).items():
            if key == "msg_type":
                frames[names[value]] += 1
                nbytes[names[value]] += s.extra["bytes"]
            elif key != "bytes":
                extra[(s.name, key)] += value
    masking_wall = dur["runner.run_pre_modeling"]
    out = {
        "keygen.derive_bases_s": dur["keygen.derive_bases"],
        "keygen.draw_key_s": dur["keygen.draw_commuting_key"],
        "keygen.key_draws": calls["keygen.draw_commuting_key"],
        "keygen.key_materializations": calls["keygen.commute_materialize"],
        "matrix_core.ortho_draw_s": dur["matrix_core.random_ortho_blocks"],
        "matrix_core.ortho_blocks_drawn":
            extra[("matrix_core.random_ortho_blocks", "blocks")],
        "matrix_core.mask_apply_s": dur["matrix_core.OrthoBlocks.apply"],
        "matrix_core.mask_apply_rows":
            extra[("matrix_core.OrthoBlocks.apply", "rows")],
        "matrix_core.solve_spd_s": dur["matrix_core.solve_spd"],
        "protocol.local_encrypt_self_s": own["protocol.local_encrypt"],
        "protocol.pass_encrypt_self_s": own["protocol.pass_encrypt"],
        "protocol.cloud_fit_self_s": own["protocol.cloud_fit"],
        "protocol.cloud_fit_calls": calls["protocol.cloud_fit"],
        "protocol.cloud_fit_rows": extra[("protocol.cloud_fit", "rows")],
        "protocol.ring_step_s":
            dur["protocol.ring_step"] + dur["protocol.residual_gram_step"],
        "protocol.residual_gram_steps": calls["protocol.residual_gram_step"],
        "transport.mesh_setup_s": dur["transport.make_transport"],
        "transport.send_self_s": own["transport.send"],
        "transport.recv_wait_s": own["transport.recv"],
        "transport.encode_s": dur["transport.encode_frame"],
        "transport.decode_s": dur["transport.decode_frame"],
        "runner.keygen_phase_s": dur["runner.build_contexts"],
        "runner.masking_phase_s": masking_wall,
        "runner.masking_cpu_util":
            extra[("runner.run_pre_modeling", "cpu_s")] / masking_wall,
        "runner.op_self_s": own[root],
    }
    for kind in names.values():
        out[f"transport.frames.{kind}"] = frames[kind]
        out[f"transport.bytes.{kind}"] = nbytes[kind]
    return out


def summarize(tracer, op_ids, root):
    """Median over the given traced ops of each per-op layer number.

    ``root`` names the ops' root span. The key accept ratio is pooled over
    the ops rather than taken per op.
    """
    by_op = defaultdict(list)
    for s in tracer.spans:
        by_op[s.op].append(s)
    per_op = [op_layers(by_op[op], root) for op in op_ids]
    out = {name: statistics.median(row[name] for row in per_op)
           for name in per_op[0]}
    draws = sum(row["keygen.key_draws"] for row in per_op)
    made = sum(row["keygen.key_materializations"] for row in per_op)
    out["keygen.key_accept_ratio"] = draws / made
    return out
