"""Command-line front door: protocol runs, tamper drills, attack sweeps.

Every command reads an optional JSON config file, applies flag overrides,
runs one experiment with seeded determinism, and writes ``report.json``
(plus command-specific CSV plot data) into the output directory.

Precedence is argparse's own: a config file's values become the command's
defaults, so for every flag a given flag beats the file, the file beats
``MASKREG_SEED`` (``--seed`` only) and that beats the built-in default.
Run flags default to None and reach ``RunConfig`` and ``TamperPlan`` only
when set, so those dataclasses hold every run default.

Exit codes: 0 when verification accepts (or the command has no verdict),
2 when verification rules the run tampered, 1 on any error, usage errors
included.
"""

import argparse
import hashlib
import json
import logging
import os
import sys

import numpy as np

from . import attacks, keygen, protocol, transport
from .dataio import Dataset, load_csv, split_horizontal
from .errors import MaskRegError
from .matrix_core import random_orthogonal
from .runner import RunConfig, cross_validate_encrypted, run_protocol

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TAMPERED = 2

#: Config-file keys that differ from their flag's dest.
_CONFIG_ALIASES = {"lambda": "lam", "sigma_delta": "delta",
                   "has_header": "no_header"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2, which here means "verification rejected the run"
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _csv_floats(text):
    return tuple(float(v) for v in text.split(","))


def _build_parser():
    """The parser and its command subparsers, by name."""
    parser = _Parser(
        prog="maskreg",
        description="Masked collaborative regression: runs, drills, attacks.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for info, -vv for debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, about):
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int,
                       default=os.environ.get("MASKREG_SEED", RunConfig.seed),
                       help="master seed (default: MASKREG_SEED env, then "
                            "RunConfig's)")
        p.add_argument("--out", default=".", help="output directory")
        return p

    def add_protocol_command(name, about):
        p = add_command(name, about)
        p.add_argument("--data", help="CSV input file")
        p.add_argument("--response",
                       help="response column name or 0-based index")
        p.add_argument("--no-header", action="store_true",
                       help="CSV has no header row")
        p.add_argument("--n", type=int, default=200,
                       help="rows for synthetic data (when --data is absent)")
        p.add_argument("--p", type=int, default=8,
                       help="features for synthetic data")
        p.add_argument("--k", type=int, help="number of agencies")
        p.add_argument("--mode", choices=protocol.MODES)
        p.add_argument("--lambda", dest="lam", type=float,
                       help="ridge penalty")
        p.add_argument("--block-size", type=int)
        p.add_argument("--sigma-delta", dest="delta", type=float,
                       help="std dev of the additive noise mask (0 disables)")
        p.add_argument("--transport", choices=transport.TRANSPORTS)
        return p

    add_protocol_command("run", "one full protocol run")

    cv = add_protocol_command("cv", "encrypted ridge cross-validation")
    cv.set_defaults(mode="ridge")
    cv.add_argument("--folds", type=int)
    cv.add_argument("--lambda-grid", type=_csv_floats,
                    help="comma-separated penalties, e.g. 0.01,0.1,1,10")

    tam = add_protocol_command("tamper",
                               "protocol run with an injected violation")
    tam.add_argument("--action", choices=protocol.TAMPER_ACTIONS,
                     default="perturb_result")
    tam.add_argument("--agency", type=int, help="which agency misbehaves")
    tam.add_argument("--magnitude", type=float,
                     help="size of the result perturbation")

    cpa = add_command("attack-cpa", "chosen-plaintext attack workbench")
    cpa.add_argument("--n", type=int, default=5, help="rows of the probe")
    cpa.add_argument("--p", type=int, default=5, help="features")
    cpa.add_argument("--degree", type=int, default=3)

    kpa = add_command("attack-kpa", "known-plaintext attack scenarios")
    kpa.add_argument("--scenario", choices=("1", "2", "both"), default="both")
    kpa.add_argument("--sigmas", type=_csv_floats, default=(1e-2, 1e-3, 1e-4),
                     help="descending sigma grid for scenario 1")
    kpa.add_argument("--trials", type=int, default=50)
    kpa.add_argument("--n", type=int, default=100)
    kpa.add_argument("--p", type=int, default=5)

    ldp = add_command("ldp", "privacy ratio curve over a sigma grid")
    ldp.add_argument("--t", type=float, default=1.0, help="event half-width")
    ldp.add_argument("--norm1", type=float, default=1.0)
    ldp.add_argument("--norm2", type=float, default=5.0)
    ldp.add_argument("--sigmas", type=_csv_floats,
                     default=(1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005,
                              0.002, 0.001),
                     help="descending sigma grid")
    return parser, sub.choices


def _apply_config(args, parser):
    """Make ``--config`` the defaults of ``parser``, the command's
    subparser. Its keys are the flags spelled with underscores
    (``block_size``, ``sigma_delta``), plus ``lambda`` for ``--lambda`` and
    ``has_header`` for the inverse of ``--no-header``; any other key is an
    error. Each value is parsed as its flag's text (``[0.1, 1]`` as
    ``0.1,1``), so a bad type or choice is a usage error, as on the command
    line; null leaves a flag unset."""
    with open(args.config) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{args.config}: config must be a JSON object")
    flags = vars(args).keys() - {"command", "verbose", "config",
                                 *_CONFIG_ALIASES.values()}
    unknown = sorted(key for key in data if key not in flags
                     and _CONFIG_ALIASES.get(key) not in vars(args))
    if unknown:
        raise ValueError(f"{args.config}: unknown key(s) for "
                         f"{args.command}: {', '.join(unknown)}")
    tokens = []
    for key, value in data.items():
        if isinstance(value, list):
            value = ",".join(map(str, value))
        if key == "has_header":
            if not value:
                tokens.append("--no-header")
        elif value is not None:
            tokens.append(f"--{key.replace('_', '-')}={value}")
    parser.set_defaults(**vars(parser.parse_args(tokens)))


def _set_flags(args, *names):
    """The named flags that a flag or the config file set."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name, None) is not None}


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


def _gather_datasets(args, k):
    """CSV shards if --data was given, otherwise seeded synthetic data."""
    if args.data:
        if args.response is None:
            raise ValueError("--response is required with --data")
        try:
            response = int(args.response)
        except ValueError:
            response = args.response
        ds = load_csv(args.data, response, has_header=not args.no_header)
        inputs = {"data": args.data, "sha256": _sha256_file(args.data),
                  "n": ds.n, "p": ds.p}
    else:
        rng = np.random.default_rng([args.seed, 0x5D])
        x = rng.standard_normal((args.n, args.p))
        beta = rng.normal(size=args.p)
        y = x @ beta + 0.1 * rng.standard_normal(args.n)
        ds = Dataset(x, y, tuple(f"x{j}" for j in range(args.p)), "y")
        inputs = {"data": None, "sha256": _sha256_arrays(x, y), "n": args.n,
                  "p": args.p, "synthetic": True}
    return [(s.x, s.y) for s in split_horizontal(ds, k)], inputs


def _write_report(out_dir, payload, *lines):
    """Write ``report.json``, then print ``lines`` and the report's path.
    The report is strict JSON: a NaN or infinite value raises
    ``ValueError`` before the file is opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        fh.write(text + "\n")
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


def _cmd_protocol(args):
    """run, cv and tamper: one protocol run, its report and its verdict."""
    fields = _set_flags(args, "k", "mode", "lam", "lambda_grid", "folds",
                        "block_size", "delta", "seed",
                        "transport")
    if args.command == "tamper":
        fields["tamper"] = protocol.TamperPlan(
            **_set_flags(args, "action", "agency", "magnitude"))
    config = RunConfig(**fields)
    if args.command == "cv" and config.mode != "ridge":
        raise ValueError("cv requires --mode ridge")
    datasets, inputs = _gather_datasets(args, config.k)
    if args.command == "cv":
        report = cross_validate_encrypted(datasets, config)
        summary = (f"chosen lambda: {report.cv['chosen_lambda']:g} "
                   f"(verdict {report.verify.verdict})")
    else:
        report = run_protocol(datasets, config)
        summary = (f"verdict: {report.verify.verdict} "
                   f"(max deviation {report.verify.max_deviation:.3e})")
        if args.command == "tamper":
            summary = f"tamper action {args.action!r} -> {summary}"
    payload = report.to_dict()
    payload["inputs"] = inputs
    _write_report(args.out, payload, summary)
    return EXIT_OK if report.verify.accepted else EXIT_TAMPERED


def _cmd_attack_cpa(args):
    n, p, degree, seed = args.n, args.p, args.degree, args.seed
    rng = np.random.default_rng([seed, 0xC9])
    x = rng.standard_normal((n, p))
    bases = keygen.derive_bases(seed, p)
    coeffs, key = attacks.draw_poly_key(bases.b_basis, degree, rng)
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
    _write_report(args.out, payload,
                  f"naive attack consistent: {naive.consistent}; "
                  f"informed attack consistent: {informed.consistent}")
    return EXIT_OK


def _cmd_attack_kpa(args):
    n, p, seed = args.n, args.p, args.seed
    sigmas, trials = args.sigmas, args.trials
    payload = {"command": "attack-kpa", "seed": seed, "n": n, "p": p}

    if args.scenario in ("1", "both"):
        if n < 2:  # one row's standardized columns would be 0/0
            raise ValueError(f"need at least two rows, got {n}")
        rng = np.random.default_rng([seed, 0xA1])
        x22 = rng.standard_normal((n, p))
        x22 = (x22 - x22.mean(axis=0)) / x22.std(axis=0)
        medians, grid = attacks.kpa_gram_sweep(x22, sigmas, trials, seed)
        _write_csv(
            args.out, "heatmap.csv",
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

    if args.scenario in ("2", "both"):
        rng = np.random.default_rng([seed, 0xA2])
        b_basis, degree = keygen.derive_bases(seed, p).b_basis, min(p, 3)
        _, b1 = attacks.draw_poly_key(b_basis, degree, rng)
        _, b2 = attacks.draw_poly_key(b_basis, degree, rng)
        x11 = rng.standard_normal((p, p))
        x22 = rng.standard_normal((p, p))
        rep = attacks.kpa_scenario_two(x11, x11 @ b1, x22 @ b2, x22)
        pairs = [(float(t), float(r)) for t, r in
                 zip(x22.ravel(), rep.recovered.ravel())]
        _write_csv(args.out, "deviation.csv", ["truth", "recovered"], pairs)
        payload["scenario_two"] = {
            "deviation_max": rep.deviation_max,
            "truth_max": float(np.max(np.abs(x22))),
        }
        print(f"scenario 2 max deviation: {rep.deviation_max:.3e} "
              f"(truth max {np.max(np.abs(x22)):.3e})")

    _write_report(args.out, payload)
    return EXIT_OK


def _cmd_ldp(args):
    curve = attacks.ldp_sweep(args.t, args.norm1, args.norm2, args.sigmas)
    _write_csv(
        args.out, "curve.csv", ["sigma", "ratio", "implied_eps"],
        list(zip(curve.sigmas, curve.ratios, curve.implied_eps)),
    )
    payload = {
        "command": "ldp",
        "t": curve.t, "norm1": curve.norm1, "norm2": curve.norm2,
        "sigmas": list(curve.sigmas),
        "ratios": list(curve.ratios),
        "implied_eps": list(curve.implied_eps),
    }
    _write_report(args.out, payload,
                  f"ratio at sigma={curve.sigmas[-1]:g}: {curve.ratios[-1]:.6f} "
                  f"(implied eps {curve.implied_eps[-1]:.3e})")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_protocol,
    "cv": _cmd_protocol,
    "tamper": _cmd_protocol,
    "attack-cpa": _cmd_attack_cpa,
    "attack-kpa": _cmd_attack_kpa,
    "ldp": _cmd_ldp,
}


def main(argv=None):
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    level = (logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)]
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.config:
            _apply_config(args, commands[args.command])
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (MaskRegError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
