"""Command-line front door: protocol runs, tamper drills, attack sweeps.

Every command reads an optional JSON config file, applies flag overrides,
runs one experiment with seeded determinism, and writes ``report.json``
(plus command-specific CSV plot data) into the output directory.

Exit codes: 0 when verification accepts (or the command has no verdict),
2 when verification rules the run tampered, 1 on any error.
"""

import argparse
import hashlib
import json
import logging
import os
import sys

import numpy as np

from . import attacks, keygen, protocol
from .dataio import Dataset, load_csv, split_horizontal
from .errors import MaskRegError
from .runner import RunConfig, cross_validate_encrypted, run_protocol

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TAMPERED = 2


def _csv_floats(text):
    return tuple(float(v) for v in text.split(","))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="maskreg",
        description="Masked collaborative regression: runs, drills, attacks.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for info, -vv for debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (fallback: MASKREG_SEED env, then 0)")
        p.add_argument("--out", default=None, help="output directory")

    def add_protocol_flags(p):
        p.add_argument("--data", default=None, help="CSV input file")
        p.add_argument("--response", default=None,
                       help="response column name or 0-based index")
        p.add_argument("--no-header", action="store_true",
                       help="CSV has no header row")
        p.add_argument("--n", type=int, default=None,
                       help="rows for synthetic data (when --data is absent)")
        p.add_argument("--p", type=int, default=None,
                       help="features for synthetic data")
        p.add_argument("--k", type=int, default=None, help="number of agencies")
        p.add_argument("--mode", choices=protocol.MODES, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="ridge penalty")
        p.add_argument("--block-size", type=int, default=None)
        p.add_argument("--sigma-b", "--sigma-coeff", dest="sigma_coeff",
                       type=float, default=None,
                       help="std dev of key polynomial coefficients")
        p.add_argument("--sigma-delta", type=float, default=None,
                       help="std dev of the additive noise mask (0 disables)")
        p.add_argument("--transport", choices=("bus", "tcp"), default=None)

    run = sub.add_parser("run", help="one full protocol run")
    add_common(run)
    add_protocol_flags(run)

    cv = sub.add_parser("cv", help="encrypted ridge cross-validation")
    add_common(cv)
    add_protocol_flags(cv)
    cv.add_argument("--folds", type=int, default=None)
    cv.add_argument("--lambda-grid", type=_csv_floats, default=None,
                    help="comma-separated penalties, e.g. 0.01,0.1,1,10")

    tam = sub.add_parser("tamper", help="protocol run with an injected violation")
    add_common(tam)
    add_protocol_flags(tam)
    tam.add_argument("--action", choices=protocol.TAMPER_ACTIONS, default=None)
    tam.add_argument("--agency", type=int, default=None,
                     help="which agency misbehaves")
    tam.add_argument("--magnitude", type=float, default=None,
                     help="size of the result perturbation")

    cpa = sub.add_parser("attack-cpa", help="chosen-plaintext attack workbench")
    add_common(cpa)
    cpa.add_argument("--n", type=int, default=None, help="rows of the probe")
    cpa.add_argument("--p", type=int, default=None, help="features")
    cpa.add_argument("--degree", type=int, default=None)

    kpa = sub.add_parser("attack-kpa", help="known-plaintext attack scenarios")
    add_common(kpa)
    kpa.add_argument("--scenario", choices=("1", "2", "both"), default=None)
    kpa.add_argument("--sigmas", type=_csv_floats, default=None,
                     help="descending sigma grid for scenario 1")
    kpa.add_argument("--sigma-b", type=float, default=None,
                     help="single sigma (overrides --sigmas with one point)")
    kpa.add_argument("--trials", type=int, default=None)
    kpa.add_argument("--n", type=int, default=None)
    kpa.add_argument("--p", type=int, default=None)

    ldp = sub.add_parser("ldp", help="privacy ratio curve over a sigma grid")
    add_common(ldp)
    ldp.add_argument("--t", type=float, default=None, help="event half-width")
    ldp.add_argument("--norm1", type=float, default=None)
    ldp.add_argument("--norm2", type=float, default=None)
    ldp.add_argument("--sigmas", type=_csv_floats, default=None,
                     help="descending sigma grid")
    return parser


def _merge(args, key, default):
    """Flag value, else config-file value, else default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    cfg = getattr(args, "_config_data", {})
    if key in cfg:
        return cfg[key]
    return default


def _resolve_seed(args):
    seed = _merge(args, "seed", None)
    if seed is None:
        seed = os.environ.get("MASKREG_SEED")
    return int(seed) if seed is not None else 0


def _load_config_file(args):
    """Read ``--config`` into ``args._config_data``. Its keys are the
    command's flags spelled with underscores (``block_size``), plus
    ``lambda`` for ``--lambda`` and ``has_header`` for the inverse of
    ``--no-header``; any other key is an error."""
    data = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        flags = vars(args).keys() - {"command", "verbose", "config", "no_header"}
        aliases = {"lambda": "lam", "has_header": "no_header"}
        unknown = sorted(key for key in data if key not in flags
                         and aliases.get(key) not in vars(args))
        if unknown:
            raise ValueError(f"{args.config}: unknown key(s) for "
                             f"{args.command}: {', '.join(unknown)}")
        if "lambda" in data:
            data["lam"] = data.pop("lambda")
    args._config_data = data


def _sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _sha256_arrays(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _gather_datasets(args, seed):
    """CSV shards if --data was given, otherwise seeded synthetic data."""
    k = int(_merge(args, "k", 2))
    data_path = _merge(args, "data", None)
    if data_path:
        response = _merge(args, "response", None)
        if response is None:
            raise ValueError("--response is required with --data")
        try:
            response = int(response)
        except (TypeError, ValueError):
            pass
        has_header = not getattr(args, "no_header", False)
        if "has_header" in getattr(args, "_config_data", {}):
            has_header = bool(args._config_data["has_header"])
        ds = load_csv(data_path, response, has_header=has_header)
        inputs = {"data": data_path, "sha256": _sha256_file(data_path),
                  "n": ds.n, "p": ds.p}
    else:
        n = int(_merge(args, "n", 200))
        p = int(_merge(args, "p", 8))
        rng = np.random.default_rng([seed, 0x5D])
        x = rng.standard_normal((n, p))
        beta = rng.normal(size=p)
        y = x @ beta + 0.1 * rng.standard_normal(n)
        ds = Dataset(x, y, tuple(f"x{j}" for j in range(p)), "y")
        inputs = {"data": None, "sha256": _sha256_arrays(x, y), "n": n,
                  "p": p, "synthetic": True}
    return [(s.x, s.y) for s in split_horizontal(ds, k)], inputs


def _run_config(args, seed, tamper=None):
    kwargs = dict(
        k=int(_merge(args, "k", 2)),
        mode=_merge(args, "mode", "linear"),
        lam=float(_merge(args, "lam", 1.0)),
        block_size=int(_merge(args, "block_size", 16)),
        sigma_coeff=float(_merge(args, "sigma_coeff", 1.0)),
        delta=_merge(args, "sigma_delta", None),
        seed=seed,
        transport=_merge(args, "transport", "bus"),
    )
    if kwargs["delta"] is not None:
        kwargs["delta"] = float(kwargs["delta"])
    folds = _merge(args, "folds", None)
    if folds is not None:
        kwargs["folds"] = int(folds)
    grid = _merge(args, "lambda_grid", None)
    if grid is not None:
        kwargs["lambda_grid"] = tuple(float(v) for v in grid)
    if tamper is not None:
        kwargs["tamper"] = tamper
    return RunConfig(**kwargs)


def _write_report(out_dir, payload, *lines):
    """Write ``report.json``, then print ``lines`` and the report's path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for line in lines:
        print(line)
    print(f"report: {path}")


def _write_csv(out_dir, name, header, rows):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v!r}" if isinstance(v, str) else repr(float(v))
                              for v in row) + "\n")
    return path


def _finish_protocol(out_dir, report, inputs, summary):
    """Write the run's report, print ``summary`` and map the verdict."""
    payload = report.to_dict()
    payload["inputs"] = inputs
    _write_report(out_dir, payload, summary)
    return EXIT_OK if report.verify.accepted else EXIT_TAMPERED


def _cmd_run(args, seed, out_dir):
    datasets, inputs = _gather_datasets(args, seed)
    report = run_protocol(datasets, _run_config(args, seed))
    return _finish_protocol(
        out_dir, report, inputs,
        f"verdict: {report.verify.verdict} "
        f"(max deviation {report.verify.max_deviation:.3e})")


def _cmd_cv(args, seed, out_dir):
    datasets, inputs = _gather_datasets(args, seed)
    if _merge(args, "mode", "ridge") != "ridge":
        raise ValueError("cv requires --mode ridge")
    args.mode = "ridge"
    report = cross_validate_encrypted(datasets, _run_config(args, seed))
    return _finish_protocol(
        out_dir, report, inputs,
        f"chosen lambda: {report.cv['chosen_lambda']:g} "
        f"(verdict {report.verify.verdict})")


def _cmd_tamper(args, seed, out_dir):
    plan = protocol.TamperPlan(
        action=_merge(args, "action", "perturb_result"),
        agency=int(_merge(args, "agency", 1)),
        magnitude=float(_merge(args, "magnitude", 0.01)),
    )
    datasets, inputs = _gather_datasets(args, seed)
    report = run_protocol(datasets, _run_config(args, seed, tamper=plan))
    return _finish_protocol(
        out_dir, report, inputs,
        f"tamper action {plan.action!r} -> verdict: {report.verify.verdict} "
        f"(max deviation {report.verify.max_deviation:.3e})")


def _cmd_attack_cpa(args, seed, out_dir):
    n = int(_merge(args, "n", 5))
    p = int(_merge(args, "p", 5))
    degree = int(_merge(args, "degree", 3))
    rng = np.random.default_rng([seed, 0xC9])
    from .matrix_core import random_orthogonal

    x = rng.standard_normal((n, p))
    bases = keygen.derive_bases(seed, p, degree=degree)
    coeffs, key = keygen.draw_commuting_key(bases.b_basis, degree, rng, 1)
    a_true = random_orthogonal(n, rng)
    x_star_1 = a_true @ x
    x_star_new = x @ key

    naive = attacks.cpa_attack(x_star_1, x_star_new, bases.b_basis,
                               a_plus=None, degree=degree, true_coeffs=coeffs)
    informed = attacks.cpa_attack(x_star_1, x_star_new, bases.b_basis,
                                  a_plus=a_true.T, degree=degree,
                                  true_coeffs=coeffs)

    def cpa_payload(rep):
        return {
            "solutions": [[float(v) for v in w] for w in rep.solutions],
            "residuals": [float(r) for r in rep.residuals],
            "solved": list(rep.solved),
            "consistent": rep.consistent,
            "true_coeff_residuals": [float(r) for r in
                                     rep.true_coeff_residuals],
        }

    rank_table = [
        {"n": nn, "p": pp, "rank": rr,
         "classification": attacks.cpa_rank_analysis(nn, pp, rr)}
        for nn, pp, rr in [(10, 5, 5), (3, 5, 3), (3, 3, 3), (n, p, min(n, p))]
    ]
    payload = {
        "command": "attack-cpa",
        "seed": seed,
        "n": n, "p": p, "degree": degree,
        "true_coeffs": [float(v) for v in coeffs],
        "naive": cpa_payload(naive),
        "informed": cpa_payload(informed),
        "rank_analysis": rank_table,
    }
    _write_report(out_dir, payload,
                  f"naive attack consistent: {naive.consistent}; "
                  f"informed attack consistent: {informed.consistent}")
    return EXIT_OK


def _cmd_attack_kpa(args, seed, out_dir):
    scenario = str(_merge(args, "scenario", "both"))
    sigmas = _merge(args, "sigmas", (1e-2, 1e-3, 1e-4))
    single = _merge(args, "sigma_b", None)
    if single is not None:
        sigmas = (float(single),)
    trials = int(_merge(args, "trials", 50))
    n = int(_merge(args, "n", 100))
    p = int(_merge(args, "p", 5))
    payload = {"command": "attack-kpa", "seed": seed, "n": n, "p": p}

    if scenario in ("1", "both"):
        rng = np.random.default_rng([seed, 0xA1])
        x22 = rng.standard_normal((n, p))
        x22 = (x22 - x22.mean(axis=0)) / x22.std(axis=0)
        medians, grid = attacks.kpa_gram_sweep(x22, sigmas, trials, seed)
        _write_csv(
            out_dir, "heatmap.csv",
            ["sigma_b"] + [f"trial_{t}" for t in range(trials)],
            [[s] + list(row) for s, row in zip(sigmas, grid)],
        )
        payload["scenario_one"] = {
            "sigmas": [float(s) for s in sigmas],
            "median_max_entry": [float(m) for m in medians],
            "trials": trials,
        }
        print("scenario 1 median max-entries:",
              ", ".join(f"{s:g}->{m:.3e}" for s, m in zip(sigmas, medians)))

    if scenario in ("2", "both"):
        rng = np.random.default_rng([seed, 0xA2])
        bases = keygen.derive_bases(seed, p, degree=min(p, 3))
        _, b1 = keygen.draw_commuting_key(bases.b_basis, bases.degree, rng, 2)
        _, b2 = keygen.draw_commuting_key(bases.b_basis, bases.degree, rng, 2)
        x11 = rng.standard_normal((p, p))
        x22 = rng.standard_normal((p, p))
        rep = attacks.kpa_scenario_two(x11, x11 @ b1, x22 @ b2, x22)
        pairs = [(float(t), float(r)) for t, r in
                 zip(x22.ravel(), rep.recovered.ravel())]
        _write_csv(out_dir, "deviation.csv", ["truth", "recovered"], pairs)
        payload["scenario_two"] = {
            "deviation_max": rep.deviation_max,
            "truth_max": float(np.max(np.abs(x22))),
        }
        print(f"scenario 2 max deviation: {rep.deviation_max:.3e} "
              f"(truth max {np.max(np.abs(x22)):.3e})")

    _write_report(out_dir, payload)
    return EXIT_OK


def _cmd_ldp(args, seed, out_dir):
    t = float(_merge(args, "t", 1.0))
    norm1 = float(_merge(args, "norm1", 1.0))
    norm2 = float(_merge(args, "norm2", 5.0))
    sigmas = _merge(args, "sigmas",
                    (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001))
    curve = attacks.ldp_sweep(t, norm1, norm2, sigmas)
    _write_csv(
        out_dir, "curve.csv", ["sigma", "ratio", "implied_eps"],
        list(zip(curve.sigmas, curve.ratios, curve.implied_eps)),
    )
    payload = {
        "command": "ldp",
        "t": curve.t, "norm1": curve.norm1, "norm2": curve.norm2,
        "sigmas": list(curve.sigmas),
        "ratios": list(curve.ratios),
        "implied_eps": list(curve.implied_eps),
    }
    _write_report(out_dir, payload,
                  f"ratio at sigma={curve.sigmas[-1]:g}: {curve.ratios[-1]:.6f} "
                  f"(implied eps {curve.implied_eps[-1]:.3e})")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "cv": _cmd_cv,
    "tamper": _cmd_tamper,
    "attack-cpa": _cmd_attack_cpa,
    "attack-kpa": _cmd_attack_kpa,
    "ldp": _cmd_ldp,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    level = (logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)]
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        _load_config_file(args)
        seed = _resolve_seed(args)
        out_dir = _merge(args, "out", ".")
        return _COMMANDS[args.command](args, seed, out_dir)
    except (MaskRegError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
