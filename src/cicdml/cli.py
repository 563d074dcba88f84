"""Command-line interface: ingest, estimate, simulate, validate, coverage.

CSV schema: header ``y0,y1,a,l1,...,lp`` (covariate columns optional),
decimal point, UTF-8 with or without a byte-order mark; the treatment
column must parse to 0 or 1. The data rows are read in one pass of
numpy's C parser when every field is an ASCII decimal, ``inf`` or
``nan``, bare, quoted or padded with spaces or tabs; other spellings that
Python's ``float`` reads (``1_0``, non-ASCII digits or padding) and
every malformed file go through the csv reader, which gives the same
values and words each error with its line number. Floats are serialized
with 17 significant digits so a simulate/ingest round trip reproduces
the data bit-exactly.
JSON output carries a fixed schema-version field and deterministic key
order, so identical commands with identical seeds produce
byte-identical bytes.

Exit codes: 0 success; 1 only when a ``validate`` check FAILs; 2 for
every rejected input: a bad flag or config value, an unreadable or
malformed file, or a value that a library call rejects.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import warnings
from typing import Optional

import numpy as np

from .data_model import EstimandSpec, PanelDataset, validate
from .dgp import DGP_NAMES, gen_stm, named_config, qq_invariance_diagnostic
from .errors import NonBinaryTreatment, ParseError
from .estimator import CrossFitConfig, estimate
from .validation import (
    DEFAULT_FD_STEP,
    DEFAULT_MC_SIZE,
    Perturbation,
    coverage_study,
    orthogonality_check,
)

SCHEMA_VERSION = 1
ESTIMANDS = ("att", "cdt", "qtt")
FORMATS = ("json", "tsv")


# ---------------------------------------------------------------------------
# CSV ingestion / emission
# ---------------------------------------------------------------------------


def ingest_csv(path: str) -> PanelDataset:
    """Parse a dataset CSV and validate it.

    Header must be ``y0,y1,a`` followed by ``l1..lp`` in order; blank
    lines are skipped. The data rows of a file take one pass of numpy's
    C parser (``np.loadtxt``), which reads ASCII decimals, ``inf`` and
    ``nan``, quoted or padded fields and any line end. Rows it refuses
    (``1_0``, non-ASCII digits or padding, a wrong field count, a
    treatment other than 0 or 1, no rows at all), and the rows of a
    pipe, are read by the csv reader and converted as one float array,
    which gives Python's ``float`` spellings the same values and words
    every error with its 1-based line number.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        first = next(_csv_rows(reader), None)
        if first is None:
            raise ParseError("empty file", line=1)
        header = [h.strip() for h in first]
        if header[:3] != ["y0", "y1", "a"]:
            raise ParseError(f"header must start with y0,y1,a; got {header[:3]}", line=1)
        p = len(header) - 3
        expected = [f"l{j + 1}" for j in range(p)]
        if header[3:] != expected:
            raise ParseError(f"covariate columns must be {expected}; got {header[3:]}", line=1)
        # A pipe can be read only once, so the csv reader alone reads it.
        values = _loadtxt_values(fh, 3 + p) if fh.seekable() else None
        if values is None:
            if fh.seekable():
                # A new reader numbers the lines from the top again.
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
            values = _csv_values([first, *_csv_rows(reader)], 3 + p)
    data = PanelDataset(y0=values[:, 0].copy(), y1=values[:, 1].copy(),
                        a=values[:, 2].astype(int), l=values[:, 3:].copy())
    validate(data)
    return data


def _csv_rows(reader):
    """The rows of a csv reader; an error of the reader itself, such as a
    field over the csv module's size limit, as a ParseError numbered by
    the line where the reader met it."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None


def _loadtxt_values(fh, width: int) -> Optional[np.ndarray]:
    """The rows after the header as an (n, width) float array with 0/1
    treatments, in one ``np.loadtxt`` pass over the open file; None
    where the parser refuses the text or reads no rows, other widths or
    other treatments, which the csv reader then reads again."""
    try:
        with warnings.catch_warnings():
            # A file without data rows warns; the csv reader words it.
            warnings.simplefilter("error")
            values = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except (ValueError, UserWarning):
        return None
    if values.shape[1] != width or not np.isin(values[:, 2], (0.0, 1.0)).all():
        return None
    return values


def _csv_values(rows: list, width: int) -> np.ndarray:
    """The data rows of the csv reader's rows (header first) as one
    (n, width) float array with 0/1 treatments, converted in one call;
    else the first bad row's error (:func:`_row_error`)."""
    body = [row for row in rows[1:] if row]
    try:
        values = np.array(body, dtype=float).reshape(len(body), width)
    except ValueError:
        values = None
    if values is None or not np.isin(values[:, 2], (0.0, 1.0)).all():
        raise _row_error(rows, width)
    return values


def _row_error(rows: list, width: int) -> ValueError:
    """The error of the first bad data row below the header: a wrong
    field count, a field that is not a float, or a treatment other than
    0 or 1, numbered by its line. It only words the error that the
    conversion in :func:`_csv_values` met."""
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != width:
            return ParseError(f"expected {width} fields, got {len(row)}", line=lineno)
        try:
            treatment = [float(v) for v in row][2]
        except ValueError as exc:
            return ParseError(str(exc), line=lineno)
        if treatment not in (0.0, 1.0):
            return NonBinaryTreatment(
                f"line {lineno}: treatment must be 0 or 1, got {row[2]}")
    return ParseError("malformed data rows")


def dataset_csv(data: PanelDataset) -> str:
    """A dataset in the ingestion schema: 17-digit floats, CRLF line ends."""
    header = ",".join(["y0", "y1", "a"] + [f"l{j + 1}" for j in range(data.p)])
    row = ",".join(["{:.17g}", "{:.17g}", "{:d}"] + ["{:.17g}"] * data.p).format
    columns = zip(data.y0.tolist(), data.y1.tolist(), data.a.astype(int).tolist(),
                  *data.l.T.tolist())
    return "\r\n".join([header, *(row(*values) for values in columns)]) + "\r\n"


def _write_files(cfg: argparse.Namespace, report: str, texts: Optional[dict] = None) -> None:
    """Write the report to ``--output``, or to stdout without one, and
    each path's text of ``texts``. Every path is opened, not yet
    truncated, before any is written, so a path that cannot be opened
    leaves the others as they were; the files this call created are
    removed again when it fails. A regular file is truncated before it is
    written, a device or a pipe written as it is. Stdout is written after
    every file."""
    texts = dict(texts or {})
    if cfg.output:
        texts[cfg.output] = report
    created = [path for path in texts if not os.path.exists(path)]
    try:
        with contextlib.ExitStack() as stack:
            handles = [stack.enter_context(open(path, "a", newline="", encoding="utf-8"))
                       for path in texts]
            for fh, (path, text) in zip(handles, texts.items()):
                # Only a regular file is truncated: a device such as
                # /dev/null, seekable or not, or a pipe refuses it.
                if os.path.isfile(path):
                    fh.truncate(0)
                fh.write(text)
    except OSError:
        for path in created:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        raise
    if not cfg.output:
        sys.stdout.write(report)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _report(cfg: argparse.Namespace, payload: dict) -> str:
    """A report's text in ``--format``, after its schema-version and
    command header."""
    payload = {"schema_version": SCHEMA_VERSION, "command": cfg.subcommand, **payload}
    if cfg.format == "tsv":
        lines = [f"{k}\t{_tsv_value(v)}" for k, v in payload.items()]
        return "\n".join(lines) + "\n"
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _tsv_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, (list, tuple, dict)):
        return json.dumps(v)
    return str(v)


# ---------------------------------------------------------------------------
# Subcommand bodies: each takes the namespace that _to_run_config checked.
# ---------------------------------------------------------------------------


def _run_estimate(cfg: argparse.Namespace) -> int:
    data = ingest_csv(cfg.input)
    _write_files(cfg, _report(cfg, estimate(data, cfg.estimand, cfg.crossfit).to_dict()))
    return 0


def _run_simulate(cfg: argparse.Namespace) -> int:
    data, truth = gen_stm(cfg.model)
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
    report = _report(cfg, {"dataset": cfg.out, "oracle": cfg.oracle_out,
                           "att_true": truth.att_true})
    _write_files(cfg, report, {cfg.out: dataset_csv(data),
                               cfg.oracle_out: json.dumps(oracle, indent=2) + "\n"})
    return 0


def _run_validate(cfg: argparse.Namespace) -> int:
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

    _write_files(cfg, "\n".join(lines) + "\n")
    return 0 if failures == 0 else 1


def _run_coverage(cfg: argparse.Namespace) -> int:
    report = coverage_study(cfg.model, cfg.crossfit, cfg.mc_reps, master_seed=cfg.seed)
    _write_files(cfg, _report(cfg, {"dgp": cfg.dgp, "n": cfg.model.n, "K": cfg.crossfit.K,
                                    "S": cfg.crossfit.S, "alpha": cfg.crossfit.alpha,
                                    "seed": cfg.seed, **report.to_dict()}))
    return 0


# Each subcommand's body and the options it requires. The options are
# checked after parsing, so that a --config file can supply them too.
_SUBCOMMANDS = {
    "estimate": (_run_estimate, ("input",)),
    "simulate": (_run_simulate, ("dgp", "out")),
    "validate": (_run_validate, ("dgp",)),
    "coverage": (_run_coverage, ("dgp",)),
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser(defaults: Optional[dict] = None) -> argparse.ArgumentParser:
    """The CLI parser; ``defaults`` maps a subcommand to argument defaults
    that replace the built-in ones (explicit flags still win)."""
    fit = CrossFitConfig()
    parser = argparse.ArgumentParser(
        prog="cicdml",
        description="Quantile-transport panel treatment-effect estimation")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, formats=True):
        sp.add_argument("--seed", type=int, default=0, help="nonnegative random seed")
        sp.add_argument("--output", help="write the report here instead of stdout")
        if formats:
            sp.add_argument("--format", choices=FORMATS, default="json", help="report format")
        sp.add_argument("--config", help="JSON file with defaults for this subcommand")

    sp = sub.add_parser("estimate", help="estimate a target from a CSV dataset")
    sp.add_argument("--estimand", choices=ESTIMANDS, default="att",
                    help="ATT, counterfactual CDF at --y-point, or QTT at --tau")
    sp.add_argument("--y-point", type=float, help="evaluation point (cdt)")
    sp.add_argument("--tau", type=float, help="quantile level (qtt)")
    sp.add_argument("--input", help="dataset CSV path (required)")
    sp.add_argument("--folds", type=int, default=fit.K, help="cross-fitting folds K")
    sp.add_argument("--reps", type=int, default=fit.S, help="repetitions S")
    sp.add_argument("--alpha", type=float, default=fit.alpha, help="interval level 1 - alpha")
    sp.add_argument("--no-stratify", dest="stratify", action="store_false",
                    help="plain random folds instead of arm-stratified")
    sp.add_argument("--eps-clip", type=float, default=fit.eps_clip,
                    help="propensities are clipped to [eps, 1 - eps]")
    sp.add_argument("--f-min", type=float,
                    help="floor of the densities, in units of 1 / the sd of each density's sample")
    sp.add_argument("--bandwidth", type=float, default=fit.bandwidth,
                    help="one kernel bandwidth for all coordinates (default: each fit's rule)")
    common(sp)

    sp = sub.add_parser("simulate", help="write a simulated dataset and its oracle")
    sp.add_argument("--dgp", choices=DGP_NAMES, help="model name (required)")
    sp.add_argument("--n", type=int, default=1000, help="number of units")
    sp.add_argument("--trend", type=float, default=None,
                    help="time trend (did only; default 1.0)")
    sp.add_argument("--effect", type=float, default=None,
                    help="treatment effect (default: the model's own)")
    sp.add_argument("--pi", type=float, default=None,
                    help="treatment share (did only; default 0.5)")
    sp.add_argument("--out", help="dataset CSV path to write (required)")
    sp.add_argument("--oracle-out", help="oracle JSON path (default: <out>.oracle.json)")
    common(sp)

    sp = sub.add_parser("validate", help="run orthogonality and invariance checks; "
                                         "prints one tab-separated line per check")
    sp.add_argument("--dgp", choices=DGP_NAMES, help="model name (required)")
    sp.add_argument("--mc-size", type=int, default=DEFAULT_MC_SIZE,
                    help="Monte Carlo draws per check")
    sp.add_argument("--h", type=float, default=DEFAULT_FD_STEP,
                    help="finite-difference step, in (0, 0.5)")
    sp.add_argument("--perturbations", type=int, default=3, help="random perturbations checked")
    common(sp, formats=False)

    sp = sub.add_parser("coverage", help="Monte Carlo interval-coverage study")
    sp.add_argument("--dgp", choices=DGP_NAMES, help="model name (required)")
    sp.add_argument("--n", type=int, default=1000, help="units per replication")
    sp.add_argument("--mc-reps", type=int, default=100, help="Monte Carlo replications")
    sp.add_argument("--folds", type=int, default=fit.K, help="cross-fitting folds K")
    sp.add_argument("--reps", type=int, default=fit.S, help="repetitions S")
    sp.add_argument("--alpha", type=float, default=fit.alpha, help="interval level 1 - alpha")
    common(sp)

    for name, values in (defaults or {}).items():
        sub.choices[name].set_defaults(**values)
    return parser


def _config_value(key: str, action: argparse.Action, value):
    """A config value as its flag would give it: a JSON bool for a
    switch (an option whose default is a bool); otherwise of the
    option's type (an integer for int, a number for float, a string for
    the rest) and among its choices, or null where the default is null."""
    if isinstance(action.default, bool):
        if not isinstance(value, bool):
            raise ParseError(f"config key {key} takes true or false, got {value!r}")
        return value
    if value is None and action.default is None:
        return None
    kinds = {int: int, float: (int, float)}.get(action.type, str)
    ok = isinstance(value, kinds) and not isinstance(value, bool)
    if not ok or action.choices is not None and value not in action.choices:
        want = action.choices or (action.type or str).__name__
        raise ParseError(f"config key {key} takes {want}, got {value!r}")
    return value if action.type is None else action.type(value)


def _config_defaults(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """Argument defaults from the ``--config`` JSON file, by subcommand."""
    with open(args.config, encoding="utf-8") as fh:
        try:
            overrides = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON config: {exc}") from None
    if not isinstance(overrides, dict):
        raise ParseError("config must be a JSON object")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[args.subcommand]._actions
               if a.dest not in ("help", "config")}
    unknown = set(overrides) - set(actions)
    if unknown:
        raise ParseError(f"unknown config keys for {args.subcommand}: {sorted(unknown)}")
    return {args.subcommand: {key: _config_value(key, actions[key], value)
                              for key, value in overrides.items()}}


def _to_run_config(args: argparse.Namespace) -> argparse.Namespace:
    """Check a parsed invocation before any work and set its run objects
    on it: ``estimand`` and ``crossfit`` for estimate, ``model`` for
    simulate and validate, ``model`` and ``crossfit`` for coverage."""
    sub = args.subcommand
    for dest in _SUBCOMMANDS[sub][1]:
        if getattr(args, dest) is None:
            raise ParseError(f"--{dest} is required")
    # Seed and sizes are checked before any draw, so that the error line
    # names the flag rather than numpy's argument.
    if args.seed < 0:
        raise ValueError("--seed must be nonnegative")
    for dest in ("n", "mc_size"):
        if getattr(args, dest, 2) < 2:
            raise ValueError(f"--{dest.replace('_', '-')} must be at least 2")
    if sub == "estimate":
        # An option that would do nothing is rejected, not ignored.
        for dest, kind in (("y_point", "cdt"), ("tau", "qtt"), ("f_min", "qtt")):
            if getattr(args, dest) is not None and args.estimand != kind:
                raise ParseError(f"--{dest.replace('_', '-')} applies only to the {kind} "
                                 f"estimand, not {args.estimand}")
        if args.estimand == "att":
            args.estimand = EstimandSpec.att()
        elif args.estimand == "cdt":
            if args.y_point is None:
                raise ParseError("--y-point is required for the cdt estimand")
            args.estimand = EstimandSpec.cdt(args.y_point)
        else:
            if args.tau is None:
                raise ParseError("--tau is required for the qtt estimand")
            args.estimand = EstimandSpec.qtt(args.tau)
        # Without --f-min, CrossFitConfig's own density floor holds.
        floor = {} if args.f_min is None else {"f_min": args.f_min}
        args.crossfit = CrossFitConfig(
            K=args.folds, S=args.reps, alpha=args.alpha,
            seed=args.seed, bandwidth=args.bandwidth,
            eps_clip=args.eps_clip, stratify=args.stratify, **floor)
    if sub == "simulate":
        args.model = named_config(args.dgp, n=args.n, seed=args.seed, effect=args.effect,
                                  trend=args.trend, pi=args.pi)
        args.oracle_out = args.oracle_out or args.out + ".oracle.json"
        # Two outputs on one file would leave only the last text there; a
        # device such as /dev/null takes any number.
        files = [_file_identity(path) for path in (args.out, args.oracle_out, args.output)
                 if path and (os.path.isfile(path) or not os.path.exists(path))]
        if len(set(files)) < len(files):
            raise ParseError("--out, --oracle-out and --output must name different files")
    if sub == "validate":
        # The checks draw their own mc_size samples; the model's n is unused.
        args.model = named_config(args.dgp, seed=args.seed)
        if not 0.0 < args.h < 0.5:
            raise ValueError("--h must lie in (0, 0.5)")
        if args.perturbations < 0:
            raise ValueError("--perturbations must be nonnegative")
    if sub == "coverage":
        args.model = named_config(args.dgp, n=args.n, seed=args.seed)
        if args.mc_reps < 2:
            raise ValueError("--mc-reps must be at least 2")
        args.crossfit = CrossFitConfig(K=args.folds, S=args.reps, alpha=args.alpha,
                                       seed=args.seed)
    # An output on a file that the run reads would replace its input; a
    # device such as /dev/null may be both.
    read = _regular_files(args, ("input", "config"))
    for ident, dest in _regular_files(args, ("out", "oracle_out", "output")).items():
        if ident in read:
            raise ParseError(f"--{dest.replace('_', '-')} names the file that "
                             f"--{read[ident]} reads")
    return args


def _regular_files(args: argparse.Namespace, dests) -> dict:
    """The options of ``dests`` set to a regular file's path, by the
    file's identity (:func:`_file_identity`)."""
    return {_file_identity(path): dest for dest in dests
            if (path := getattr(args, dest, None)) and os.path.isfile(path)}


def _file_identity(path: str):
    """What makes two paths one file: the resolved path, or the (device,
    inode) pair of the file it names, which hard links share."""
    real = os.path.realpath(path)
    if os.path.exists(real):
        st = os.stat(real)
        return st.st_dev, st.st_ino
    return real


def main(argv=None) -> int:
    """Run one invocation and return its exit code. A rejected input,
    from the config file, the checks or a library call, prints an
    ``error:`` line and exits 2; argparse itself exits 2 on a bad flag."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = build_parser(_config_defaults(parser, args)).parse_args(argv)
        return _SUBCOMMANDS[args.subcommand][0](_to_run_config(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
