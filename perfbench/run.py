"""maskreg benchmark: closed-loop protocol ops checked against plaintext.

Run from the repository root:

    python3 perfbench/run.py --workload tall_fit --seed 1 --seconds 20 --trace 0

One process drives one op at a time (a closed loop with a single client).
An op is one full ``run_protocol`` or ``cross_validate_encrypted`` call on
a fresh key seed derived from ``--seed``; the agency threads and loopback
sockets it opens belong to the library. Every op is checked against the
plaintext oracle in ``maskreg.model``.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
they are its per-layer metrics, measured by wrapping the library's layer
boundaries on every other op (see spans.py). Lines before it print every
metric with its unit. A result file with the machine facts, each op and
the set-up samples goes to perfbench/results/; a traced run also writes
its spans there. README.md describes the workloads and metrics.
"""

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Fresh processes that repeat the set-up, besides the main process.
SETUP_PROBES = 2

#: Seeds the set-up may try before it gives up on finding an accepted op.
SETUP_ATTEMPTS = 20

#: End-to-end numbers printed but not bounded in BENCHMARK.json (README.md
#: says why): name -> (unit, better).
UNBOUNDED = {
    "op_tail_s": ("s", "lower"),
    "fail_ratio": ("ratio", "lower"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def load_declared():
    """BENCHMARK.json's metric lists, after checking every name."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += list(workloads.SPECS) + list(UNBOUNDED)
    bad = [n for n in names if not workloads.NAME.fullmatch(n)]
    if bad:
        raise SystemExit(f"invalid names: {bad}")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(workloads.SPECS):
        raise SystemExit("BENCHMARK.json workloads differ from workloads.py")
    return declared


def blas_threads():
    """Thread count of every OpenBLAS loaded into this process."""
    out = {}
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line and line.rstrip().endswith(".so")})
    except OSError:
        return out
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def git_commit():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine_facts():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def timed_setup(spec, shards, seeds):
    """Import maskreg and run ops until one finishes and is accepted.

    Seeds come from the op seed stream, so the timed loop goes on with the
    seeds after it. Returns (seconds, seed, report, seeds that did not
    give an accepted op); the seconds include those attempts.
    """
    t0 = time.perf_counter()
    errors = importlib.import_module("maskreg.errors")
    rejected = []
    for _ in range(SETUP_ATTEMPTS):
        seed = next(seeds)
        try:
            report = workloads.run_op(spec, shards, seed)
        except errors.MaskRegError as exc:
            rejected.append({"seed": seed, "failure": type(exc).__name__})
            continue
        if report.verify.accepted:
            return time.perf_counter() - t0, seed, report, rejected
        rejected.append({"seed": seed, "failure": report.verify.verdict})
    raise SystemExit(f"no accepted op in {SETUP_ATTEMPTS} set-up seeds")


def probe_setup(args):
    """Repeat the set-up in a fresh interpreter and return its seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=False)
    if done.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def guards(spec, shards, seed, warm):
    """Untimed checks on the set-up seed, whose honest op was accepted.

    Returns the failures found.
    """
    failures = []
    verdict = workloads.tampered_verdict(spec, shards, seed)
    if verdict != "tampered":
        failures.append(f"perturbed cloud result came back {verdict!r}")
    if spec.transport == "tcp":
        bus = workloads.run_op(spec, shards, seed, transport="bus")
        if bus.estimate.tobytes() != warm.estimate.tobytes():
            failures.append("bus and tcp estimates differ for the set-up seed")
    return failures


def tail(times):
    """Highest nearest-rank percentile with at least 10 ops above it.

    Returns (value, percentile, ops above). With 10 or fewer ops no op has
    10 above it, so the fastest op is returned with its true count.
    """
    ordered = sorted(times)
    j = max(len(ordered) - 11, 0)
    return ordered[j], 100.0 * (j + 1) / len(ordered), len(ordered) - 1 - j


def run_loop(args, spec, shards, truth, seeds, tracer):
    """Closed loop for ``args.seconds``; every other op traced if asked.

    A traced run makes at least two ops, so that one of each kind exists.
    Layer numbers come only from traced ops that returned a report; an op
    that raised stopped partway and would skew them.
    """
    points = spans.patch_points() if tracer else None
    ops, traced_ok = [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or (tracer is not None and len(ops) < 2)):
        op_id, seed = len(ops), next(seeds)
        traced = tracer is not None and op_id % 2 == 0
        record = {"op": op_id, "seed": seed, "traced": traced}
        if traced:
            tracer.op = op_id
            tracer.install(points)
        t0 = time.perf_counter()
        try:
            if traced:
                report = tracer.call(root_span(spec), workloads.run_op,
                                     (spec, shards, seed), {})
            else:
                report = workloads.run_op(spec, shards, seed)
        except Exception as exc:  # a failed op is recorded; the loop goes on
            report = None
            record["failure"] = type(exc).__name__
            record["error"] = str(exc)
        finally:
            record["seconds"] = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        if report is not None:
            if traced:
                traced_ok.append(op_id)
            record["failure"], record["rel_err"] = workloads.check(report, truth)
            record["verify_margin"] = (report.verify.max_deviation
                                       / report.verify.tolerance)
        ops.append(record)
    return ops, time.perf_counter() - start, traced_ok


def end_to_end(ops, wall, setup):
    times = [op["seconds"] for op in ops]
    failed = sum(op["failure"] is not None for op in ops)
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "good_ops_per_s": (len(ops) - failed) / wall,
        "fail_ratio": failed / len(ops),
        "setup_s": statistics.median(setup),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"op_tail_s": f"p{tail_pct:.0f} of {len(ops)} ops, {beyond} above",
             "fail_ratio": f"{failed} failed of {len(ops)} attempted",
             "setup_s": f"median of {len(setup)} set-ups"}
    return metrics, notes


def root_span(spec):
    return f"runner.{workloads.entry_name(spec)}"


def per_layer(spec, ops, tracer, traced_ok):
    metrics = spans.summarize(tracer, traced_ok, root_span(spec))
    done = [op for op in ops if "rel_err" in op]
    metrics["protocol.verify_margin_max"] = max(op["verify_margin"] for op in done)
    metrics["protocol.oracle_rel_err_max"] = max(op["rel_err"] for op in done)
    traced = [op["seconds"] for op in ops if op["traced"]]
    plain = [op["seconds"] for op in ops if not op["traced"]]
    metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                       / statistics.median(plain))
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "maskreg" / "__init__.py").is_file():
        print(f"maskreg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = workloads.SPECS[args.workload]
    x, y, shards = workloads.make_inputs(spec, args.seed)
    seeds = workloads.op_seeds(args.seed)
    if args.setup_probe:
        print(timed_setup(spec, shards, seeds)[0])
        return 0

    declared = load_declared()
    first_setup, setup_seed, warm, rejected = timed_setup(spec, shards, seeds)
    truth = workloads.oracle(spec, x, y)
    failures = guards(spec, shards, setup_seed, warm)
    if failures:
        print("guard failed: " + "; ".join(failures), file=sys.stderr)
        return 1
    setup = [first_setup] + [probe_setup(args) for _ in range(SETUP_PROBES)]

    tracer = spans.Tracer() if args.trace else None
    ops, wall, traced_ok = run_loop(args, spec, shards, truth, seeds, tracer)
    e2e, notes = end_to_end(ops, wall, setup)
    if tracer:
        wanted = declared["per_layer"]
        metrics = per_layer(spec, ops, tracer, traced_ok)
    else:
        wanted = declared["end_to_end"]
        metrics = e2e
    units = {m["name"]: m["unit"] for m in wanted}
    failed = sum(op["failure"] is not None for op in ops)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": spec.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(),
        "setup_seed": setup_seed,
        "setup_rejected": rejected,
        "warm_up_check": workloads.check(warm, truth)[0],
        "setup_samples_s": setup,
        "end_to_end": e2e, "notes": notes,
        "failures": dict(Counter(op["failure"] for op in ops
                                 if op["failure"] is not None)),
        "metrics": metrics,
        "ops": ops,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if tracer:
        (RESULTS / f"{stem}-spans.json").write_text(
            json.dumps(tracer.dump(min(s.start for s in tracer.spans))))

    print(f"workload {spec.name}: {len(ops)} ops in {wall:.2f} s, "
          f"{failed} failed {result['failures']}")
    if not tracer:
        for m in declared["end_to_end"]:
            print(f"{m['name']} {e2e[m['name']]:.6g} {m['unit']} "
                  f"({m['better']} is better) {notes.get(m['name'], '')}")
        for name, (unit, better) in UNBOUNDED.items():
            print(f"{name} {e2e[name]:.6g} {unit} ({better} is better) "
                  f"{notes.get(name, '')}")
    else:
        for m in wanted:
            print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    # The guards held and every op was checked; ops that failed their
    # check are counted in "failed".
    print(json.dumps({
        "correct": True,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
