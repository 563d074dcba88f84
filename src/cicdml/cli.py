"""Command-line interface: ingest, estimate, simulate, validate, coverage.

CSV schema: header ``y0,y1,a,l1,...,lp`` (covariate columns optional),
decimal point, UTF-8; the treatment column must parse to 0 or 1. Floats
are serialized with 17 significant digits so a simulate/ingest round
trip reproduces the data bit-exactly. JSON output carries a fixed
schema-version field and deterministic key order, so identical commands
with identical seeds produce byte-identical bytes.

Exit codes: 0 success, 1 validation failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data_model import EstimandSpec, PanelDataset, validate
from .dgp import DGP_NAMES, StmConfig, gen_stm, named_config, qq_invariance_diagnostic
from .errors import CicError, NonBinaryTreatment, ParseError
from .estimator import CrossFitConfig, estimate
from .nuisance import KERNELS
from .validation import Perturbation, coverage_study, orthogonality_check

SCHEMA_VERSION = 1
ESTIMANDS = ("att", "cdt", "qtt")
FORMATS = ("json", "tsv")

_CONFIG_KEYS = {
    "estimate": {"estimand", "y_point", "tau", "input", "folds", "reps", "cv_folds",
                 "alpha", "seed", "stratify", "eps_clip", "f_min", "kernel",
                 "bandwidth", "output", "format"},
    "simulate": {"dgp", "n", "trend", "effect", "pi", "seed", "out", "oracle_out",
                 "output", "format"},
    "validate": {"dgp", "seed", "mc_size", "h", "perturbations", "output"},
    "coverage": {"dgp", "n", "mc_reps", "folds", "reps", "alpha", "seed",
                 "output", "format"},
}
# Checked after parsing, so that a --config file can supply them too.
_REQUIRED = {"estimate": ("input",), "simulate": ("dgp", "out"), "validate": ("dgp",),
             "coverage": ("dgp",)}
_CHOICES = {"estimand": ESTIMANDS, "kernel": KERNELS, "dgp": DGP_NAMES, "fmt": FORMATS}


# ---------------------------------------------------------------------------
# CSV ingestion / emission
# ---------------------------------------------------------------------------


def ingest_csv(path: str) -> PanelDataset:
    """Parse a dataset CSV and validate it.

    Header must be ``y0,y1,a`` followed by ``l1..lp`` in order; every row
    error carries its 1-based line number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        header = [h.strip() for h in header]
        if header[:3] != ["y0", "y1", "a"]:
            raise ParseError(f"header must start with y0,y1,a; got {header[:3]}", line=1)
        p = len(header) - 3
        expected = [f"l{j + 1}" for j in range(p)]
        if header[3:] != expected:
            raise ParseError(f"covariate columns must be {expected}; got {header[3:]}",
                             line=1)
        y0, y1, a, l = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 + p:
                raise ParseError(f"expected {3 + p} fields, got {len(row)}", line=lineno)
            try:
                vals = [float(v) for v in row]
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if vals[2] not in (0.0, 1.0):
                raise NonBinaryTreatment(
                    f"line {lineno}: treatment must be 0 or 1, got {row[2]}")
            y0.append(vals[0])
            y1.append(vals[1])
            a.append(int(vals[2]))
            l.append(vals[3:])
    data = PanelDataset(y0=np.array(y0), y1=np.array(y1), a=np.array(a),
                        l=np.array(l).reshape(len(y0), p))
    validate(data)
    return data


def write_dataset_csv(path: str, data: PanelDataset) -> None:
    """Write a dataset in the ingestion schema with 17-digit floats."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y0", "y1", "a"] + [f"l{j + 1}" for j in range(data.p)])
        for i in range(data.n):
            row = [f"{data.y0[i]:.17g}", f"{data.y1[i]:.17g}", str(int(data.a[i]))]
            row += [f"{v:.17g}" for v in data.l[i]]
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """One parsed CLI invocation; fields its subcommand does not define
    are None (the parser holds every default)."""

    subcommand: str
    seed: int
    output: Optional[str]
    estimand: Optional[EstimandSpec] = None
    input: Optional[str] = None
    dgp: Optional[str] = None
    model: Optional[StmConfig] = None
    crossfit: Optional[CrossFitConfig] = None
    out: Optional[str] = None
    oracle_out: Optional[str] = None
    mc_size: Optional[int] = None
    mc_reps: Optional[int] = None
    h: Optional[float] = None
    perturbations: Optional[int] = None
    fmt: Optional[str] = None


def _emit(cfg: RunConfig, payload: dict) -> None:
    if cfg.fmt == "tsv":
        lines = [f"{k}\t{_tsv_value(v)}" for k, v in payload.items()]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tsv_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, (list, tuple, dict)):
        return json.dumps(v)
    return str(v)


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _run_estimate(cfg: RunConfig) -> int:
    data = ingest_csv(cfg.input)
    report = estimate(data, cfg.estimand, cfg.crossfit)
    payload = {"schema_version": SCHEMA_VERSION, "command": "estimate"}
    payload.update(report.to_dict())
    _emit(cfg, payload)
    return 0


def _run_simulate(cfg: RunConfig) -> int:
    data, truth = gen_stm(cfg.model)
    write_dataset_csv(cfg.out, data)
    oracle_path = cfg.oracle_out or (cfg.out + ".oracle.json")
    oracle = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "dgp": cfg.dgp,
        "att_true": truth.att_true,
        "n": data.n,
        "p": data.p,
        "seed": cfg.seed,
        "config": cfg.model.to_dict(),
    }
    with open(oracle_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(oracle, indent=2) + "\n")
    _emit(cfg, {"schema_version": SCHEMA_VERSION, "command": "simulate",
                "dataset": cfg.out, "oracle": oracle_path, "att_true": truth.att_true})
    return 0


def _run_validate(cfg: RunConfig) -> int:
    failures = 0
    lines = []

    dev = qq_invariance_diagnostic(cfg.model)
    qq_ok = dev <= 1e-10
    lines.append(f"qq-invariance\t{'PASS' if qq_ok else 'FAIL'}\tmax_deviation={dev:.3e}")
    failures += 0 if qq_ok else 1

    for j in range(cfg.perturbations):
        pert = Perturbation.random_bounded(seed=cfg.seed * 1000 + j,
                                           gamma_scale=0.4, nu_scale=0.1)
        res = orthogonality_check(cfg.model, pert, h=cfg.h, mc_size=cfg.mc_size,
                                  seed=cfg.seed * 1000 + j)
        tol = 4.0 * res.phi_prime_se + 1e-6
        ok = abs(res.phi_prime_0) <= tol
        lines.append(
            f"orthogonality[{j}]\t{'PASS' if ok else 'FAIL'}\t"
            f"phi_prime_0={res.phi_prime_0:.3e}\tse={res.phi_prime_se:.3e}")
        failures += 0 if ok else 1

    text = "\n".join(lines) + "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if failures == 0 else 1


def _run_coverage(cfg: RunConfig) -> int:
    report = coverage_study(cfg.model, cfg.crossfit, cfg.mc_reps, master_seed=cfg.seed)
    payload = {"schema_version": SCHEMA_VERSION, "command": "coverage",
               "dgp": cfg.dgp, "n": cfg.model.n, "K": cfg.crossfit.K, "S": cfg.crossfit.S,
               "alpha": cfg.crossfit.alpha, "seed": cfg.seed}
    payload.update(report.to_dict())
    _emit(cfg, payload)
    return 0


def run(cfg: RunConfig) -> int:
    """Dispatch a parsed invocation; map errors to exit codes."""
    try:
        if cfg.subcommand == "estimate":
            return _run_estimate(cfg)
        if cfg.subcommand == "simulate":
            return _run_simulate(cfg)
        if cfg.subcommand == "validate":
            return _run_validate(cfg)
        if cfg.subcommand == "coverage":
            return _run_coverage(cfg)
        raise ValueError(f"unknown subcommand {cfg.subcommand!r}")
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser(defaults: Optional[dict] = None) -> argparse.ArgumentParser:
    """The CLI parser; ``defaults`` maps a subcommand to argument defaults
    that replace the built-in ones (explicit flags still win)."""
    parser = argparse.ArgumentParser(
        prog="cicdml",
        description="Quantile-transport panel treatment-effect estimation")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, formats=True):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--output", help="write the report here instead of stdout")
        if formats:
            sp.add_argument("--format", dest="fmt", choices=FORMATS, default="json")
        sp.add_argument("--config", help="JSON file with defaults for this subcommand")

    sp = sub.add_parser("estimate", help="estimate a target from a CSV dataset")
    sp.add_argument("--estimand", choices=ESTIMANDS, default="att")
    sp.add_argument("--y-point", type=float, help="evaluation point (cdt)")
    sp.add_argument("--tau", type=float, help="quantile level (qtt)")
    sp.add_argument("--input", help="dataset CSV path (required)")
    sp.add_argument("--folds", type=int, default=5, help="cross-fitting folds K")
    sp.add_argument("--reps", type=int, default=1, help="repetitions S")
    sp.add_argument("--cv-folds", type=int, default=None,
                    help="model-selection folds K' (default: rule of thumb)")
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--no-stratify", action="store_true",
                    help="plain random folds instead of arm-stratified")
    sp.add_argument("--eps-clip", type=float, default=0.01)
    sp.add_argument("--f-min", type=float, default=1e-3)
    sp.add_argument("--kernel", choices=KERNELS, default="gaussian")
    sp.add_argument("--bandwidth", type=float, default=None)
    common(sp)

    sp = sub.add_parser("simulate", help="write a simulated dataset and its oracle")
    sp.add_argument("--dgp", choices=DGP_NAMES, help="model name (required)")
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--trend", type=float, default=None)
    sp.add_argument("--effect", type=float, default=None)
    sp.add_argument("--pi", type=float, default=0.5)
    sp.add_argument("--out", help="dataset CSV path to write (required)")
    sp.add_argument("--oracle-out", help="oracle JSON path (default: <out>.oracle.json)")
    common(sp)

    sp = sub.add_parser("validate", help="run orthogonality and invariance checks; "
                                         "prints one tab-separated line per check")
    sp.add_argument("--dgp", choices=DGP_NAMES, help="model name (required)")
    sp.add_argument("--mc-size", type=int, default=100_000)
    sp.add_argument("--h", type=float, default=0.05)
    sp.add_argument("--perturbations", type=int, default=3)
    common(sp, formats=False)

    sp = sub.add_parser("coverage", help="Monte Carlo interval-coverage study")
    sp.add_argument("--dgp", choices=DGP_NAMES, help="model name (required)")
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--mc-reps", type=int, default=100)
    sp.add_argument("--folds", type=int, default=5)
    sp.add_argument("--reps", type=int, default=1)
    sp.add_argument("--alpha", type=float, default=0.05)
    common(sp)

    for name, values in (defaults or {}).items():
        sub.choices[name].set_defaults(**values)
    return parser


def _config_defaults(args: argparse.Namespace) -> dict:
    """Argument defaults from the ``--config`` JSON file, by subcommand."""
    with open(args.config, encoding="utf-8") as fh:
        try:
            overrides = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON config: {exc}") from None
    if not isinstance(overrides, dict):
        raise ParseError("config must be a JSON object")
    allowed = _CONFIG_KEYS[args.subcommand]
    unknown = set(overrides) - allowed
    if unknown:
        raise ParseError(f"unknown config keys for {args.subcommand}: {sorted(unknown)}")
    values = {}
    for key, value in overrides.items():
        if key == "stratify":
            values["no_stratify"] = not value
        else:
            values["fmt" if key == "format" else key] = value
    return {args.subcommand: values}


def _to_run_config(args: argparse.Namespace) -> RunConfig:
    sub = args.subcommand
    for dest in _REQUIRED[sub]:
        if getattr(args, dest) is None:
            raise ParseError(f"--{dest} is required")
    for dest, choices in _CHOICES.items():
        if getattr(args, dest, None) not in (None,) + choices:
            raise ParseError(f"{dest} must be one of {choices}, got {getattr(args, dest)!r}")
    estimand = None
    crossfit = None
    if sub == "estimate":
        if args.estimand == "att":
            estimand = EstimandSpec.att()
        elif args.estimand == "cdt":
            if args.y_point is None:
                raise ParseError("--y-point is required for the cdt estimand")
            estimand = EstimandSpec.cdt(args.y_point)
        else:
            if args.tau is None:
                raise ParseError("--tau is required for the qtt estimand")
            estimand = EstimandSpec.qtt(args.tau)
        crossfit = CrossFitConfig(
            K=args.folds, S=args.reps, K_prime=args.cv_folds, alpha=args.alpha,
            seed=args.seed, kernel=args.kernel, bandwidth=args.bandwidth,
            eps_clip=args.eps_clip, f_min=args.f_min,
            stratify=not args.no_stratify)
    model = None
    if sub == "simulate":
        model = named_config(args.dgp, n=args.n, seed=args.seed, effect=args.effect,
                             trend=args.trend, pi=args.pi)
    if sub == "validate":
        # The checks draw their own mc_size samples; the model's n is unused.
        model = named_config(args.dgp, seed=args.seed)
        if not 0.0 < args.h < 0.5:
            raise ValueError("--h must lie in (0, 0.5)")
        if args.perturbations < 0:
            raise ValueError("--perturbations must be nonnegative")
    if sub == "coverage":
        model = named_config(args.dgp, n=args.n, seed=args.seed)
        if args.mc_reps < 2:
            raise ValueError("--mc-reps must be at least 2")
        crossfit = CrossFitConfig(K=args.folds, S=args.reps, alpha=args.alpha,
                                  seed=args.seed)
    return RunConfig(
        subcommand=sub,
        seed=args.seed,
        output=args.output,
        estimand=estimand,
        input=getattr(args, "input", None),
        dgp=getattr(args, "dgp", None),
        model=model,
        crossfit=crossfit,
        out=getattr(args, "out", None),
        oracle_out=getattr(args, "oracle_out", None),
        mc_size=getattr(args, "mc_size", None),
        mc_reps=getattr(args, "mc_reps", None),
        h=getattr(args, "h", None),
        perturbations=getattr(args, "perturbations", None),
        fmt=getattr(args, "fmt", None),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args = build_parser(_config_defaults(args)).parse_args(argv)
        cfg = _to_run_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
