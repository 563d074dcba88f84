#!/usr/bin/env python3
"""Benchmark of the `cicdml estimate` user path.

Run from the repository root:

    python3 perfbench/run.py --workload att-p0-20k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --smoke --seconds 0 --trace 1

One run of one workload:

1. Set-up. A fresh Python process imports cicdml from ``src/`` and runs
   ``cicdml simulate`` for every dataset of the run (the datasets and
   their oracle files follow from ``--seed``). This is repeated three
   times; ``setup_s`` is the median, and the three outputs must be
   byte-identical.
2. One untimed warm-up call on a small dataset.
3. Rounds. A round calls ``cicdml.cli.main(["estimate", ...])`` in this
   process once for each call of the workload. Rounds repeat while the
   next one is expected to end within ``--seconds`` (at least one runs).
   With ``--trace 1`` every call is made twice, untraced and then with
   the layer functions wrapped in spans (see ``layers.py``).

Every call is checked: exit code 0, the output JSON parses, the estimate
and interval are finite with ``ci_lo <= theta_hat <= ci_hi``, the output
is byte-identical to the same call in round 0 and, traced, to the
untraced call, and the traced counts equal round 0's. Quality is taken
against the oracle truth.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` its per-layer ones. Every metric is printed by name
with its unit; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every check passed, 1 when one failed, 2 when the program or the
benchmark declaration is missing. Results, with the environment they
were measured in, and the spans of a traced run are written under
``.perfbench_out/``.
"""

import os

# Pinned before numpy loads, here and in the set-up processes, which
# inherit the environment: native thread pools get one thread, and numpy
# does not ask for transparent huge pages. Whether the kernel grants them
# depends on how fragmented memory is at the time, which moved the same
# call between 5 s and 8.5 s from one process to the next.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "NUMPY_MADVISE_HUGEPAGE": "0"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, installed  # noqa: E402
from stats import layer_totals, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
HELD_OUT_SEED = 9001    # kept apart from tuning; check claims on it too

_SIMULATE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from cicdml.cli import main
for argv in json.loads(sys.argv[2]):
    rc = main(argv)
    if rc != 0:
        sys.exit(rc)
"""


class MissingInput(Exception):
    """The program or the benchmark declaration is not in the checkout."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _git_commit():
    # The ceiling keeps git from reporting an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cicdml").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned_env": {v: os.environ[v] for v in PINNED_ENV},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "platform": platform.platform(),
    }


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise MissingInput(f"{path.name} not found")
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def require_program() -> None:
    if not (SRC / "cicdml" / "__init__.py").is_file():
        raise MissingInput("src/cicdml not found; run from the repository root")


def import_cli():
    """cicdml.cli from this checkout's sources, never an installed copy."""
    require_program()
    sys.path.insert(0, str(SRC))
    from cicdml import cli

    if Path(cli.__file__).resolve().parent != (SRC / "cicdml").resolve():
        raise MissingInput(f"imported cicdml from {cli.__file__}, not from src/")
    return cli


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def set_up(datasets, run_dir: Path, problems: list):
    """Simulate the datasets SETUP_REPEATS times in fresh processes.

    Returns the seconds of each repeat and the directory of the first.
    """
    seconds, dirs = [], []
    for r in range(SETUP_REPEATS):
        directory = run_dir / f"setup{r}"
        directory.mkdir()
        argvs = [ds.simulate_argv(directory) for ds in datasets]
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SIMULATE, str(SRC), json.dumps(argvs)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        seconds.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"cicdml simulate exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        dirs.append(directory)
    for ds in datasets:
        for name in (ds.csv, ds.oracle):
            if any(name(d).read_bytes() != name(dirs[0]).read_bytes() for d in dirs[1:]):
                problems.append(f"simulate output {name(dirs[0]).name} differs between set-ups")
    for directory in dirs[1:]:
        shutil.rmtree(directory)
    return seconds, dirs[0]


# ---------------------------------------------------------------------------
# One estimate call
# ---------------------------------------------------------------------------


def call_estimate(main, call, data_dir: Path, out: Path, tracer=None):
    """Run one `estimate` in process; return (seconds, exit code, output
    text or None, error text or None)."""
    if out.exists():
        out.unlink()
    argv = call.estimate_argv(data_dir, out)
    gc.collect()
    error = None
    t0 = time.perf_counter()
    root = tracer.open("cli.main") if tracer is not None else None
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc, error = exc.code, f"SystemExit({exc.code})"
    except Exception:
        rc, error = None, traceback.format_exc()
    finally:
        if root is not None:
            tracer.close(root)
    seconds = time.perf_counter() - t0
    text = out.read_text(encoding="utf-8") if out.exists() else None
    return seconds, rc, text, error


def check_output(call, rc, text, error):
    """The parsed output of a call, or the reason it failed."""
    if error is not None:
        return None, error.strip().splitlines()[-1]
    if rc != 0:
        return None, f"exit code {rc}"
    if text is None:
        return None, "no output written"
    try:
        payload = json.loads(text)
        theta, lo, hi = (float(payload[k]) for k in ("theta_hat", "ci_lo", "ci_hi"))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return None, f"unreadable output: {exc!r}"
    if not all(math.isfinite(v) for v in (theta, lo, hi)):
        return None, "non-finite estimate or interval"
    if not lo <= theta <= hi:
        return None, "estimate outside its interval"
    if (payload.get("estimand") != call.estimand or payload.get("n") != call.dataset.n
            or payload.get("tau") != call.tau):
        return None, "output describes another call"
    return payload, None


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Run:
    """Everything one run observes."""

    def __init__(self, calls, trace: bool):
        self.calls = calls
        self.tracer = Tracer() if trace else None
        self.rounds = []          # untraced seconds per call, per round
        self.traced = []          # traced seconds per call, per round
        self.trace_ids = []       # trace id per call, per round
        self.reference = {}       # call index -> round-0 output text
        self.quality = []         # (theta, ci_lo, ci_hi, truth) of round 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label: str, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{label}: {problem}")


def measure(run: Run, cli, layers, warmup, truths, data_dir: Path, run_dir: Path,
            seconds: float) -> None:
    out = run_dir / "out.json"
    out_traced = run_dir / "out-traced.json"
    _, rc, text, error = call_estimate(cli.main, warmup, data_dir, out)
    run.record(f"warm-up {warmup.label}", check_output(warmup, rc, text, error)[1])

    start = time.perf_counter()
    while True:
        r = len(run.rounds)
        round_start = time.perf_counter()
        times, traced_times, ids = [], [], []
        for j, call in enumerate(run.calls):
            sec, rc, text, error = call_estimate(cli.main, call, data_dir, out)
            payload, problem = check_output(call, rc, text, error)
            if problem is None and r > 0 and text != run.reference.get(j):
                problem = "output differs from round 0"
            if problem is None and r == 0:
                run.reference[j] = text
                run.quality.append((payload["theta_hat"], payload["ci_lo"],
                                    payload["ci_hi"], truths[call]))
            run.record(f"{call.label} round {r}", problem)
            times.append(sec)
            if run.tracer is not None:
                run.tracer.trace += 1
                ids.append(run.tracer.trace)
                with installed(run.tracer, layers):
                    sec, rc, ttext, error = call_estimate(cli.main, call, data_dir,
                                                          out_traced, run.tracer)
                problem = check_output(call, rc, ttext, error)[1]
                if problem is None and ttext != text:
                    problem = "traced output differs from untraced output"
                run.record(f"{call.label} round {r} traced", problem)
                traced_times.append(sec)
        run.rounds.append(times)
        run.traced.append(traced_times)
        run.trace_ids.append(ids)
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            break


def end_to_end(run: Run, setup_seconds) -> dict:
    round_means = [sum(times) / len(times) for times in run.rounds]
    total_s = sum(sum(times) for times in run.rounds)
    total_n = len(run.rounds) * sum(c.dataset.n for c in run.calls)
    return {
        "estimate_s.p50": (percentile(round_means, 50), "s"),
        "obs_per_s": (total_n / total_s, "1/s"),
        "setup_s": (statistics.median(setup_seconds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def _counts(row: dict) -> dict:
    return {name: {k: v for k, v in cols.items() if k not in ("s", "self_s")}
            for name, cols in row.items()}


def per_layer(run: Run, layers) -> dict:
    totals = layer_totals(run.tracer.spans)
    first = run.trace_ids[0]
    for r, ids in enumerate(run.trace_ids[1:], start=1):
        for j, tid in enumerate(ids):
            if _counts(totals.get(tid, {})) != _counts(totals.get(first[j], {})):
                run.problems.append(f"{run.calls[j].label} round {r}: traced counts "
                                    "differ from round 0")
    all_ids = [tid for ids in run.trace_ids for tid in ids]
    metrics = {}
    for layer in layers:
        rows = [totals.get(tid, {}).get(layer.name, {}) for tid in all_ids]
        metrics[f"{layer.name}.s"] = (sum(row.get("s", 0.0) for row in rows) / len(rows), "s")
        metrics[f"{layer.name}.self_s"] = (
            sum(row.get("self_s", 0.0) for row in rows) / len(rows), "s")
        for key in layer.keys:
            metrics[f"{layer.name}.{key}"] = (
                sum(totals.get(tid, {}).get(layer.name, {}).get(key, 0) for tid in first),
                "count")
    est = [totals.get(tid, {}).get("estimator.estimate", {}) for tid in all_ids]
    est_s = sum(row.get("s", 0.0) for row in est)
    est_self = sum(row.get("self_s", 0.0) for row in est)
    metrics["trace.coverage"] = (1.0 - est_self / est_s if est_s else 0.0, "share")
    metrics["trace.overhead"] = (sum(map(sum, run.traced)) / sum(map(sum, run.rounds)), "ratio")

    q = run.quality or [(math.nan,) * 4]
    metrics["rmse"] = (math.sqrt(statistics.fmean((t - truth) ** 2 for t, _, _, truth in q)),
                       "outcome")
    metrics["ci_halfwidth.mean"] = (statistics.fmean((hi - lo) / 2 for _, lo, hi, _ in q),
                                    "outcome")
    metrics["coverage"] = (statistics.fmean(float(lo <= truth <= hi) for _, lo, hi, truth in q),
                           "share")
    metrics["failed_share"] = (run.failed / run.attempted, "share")
    return metrics


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    declared = declared_metrics(args.trace)
    cli = import_cli()
    calls = workload.calls(args.seed, args.smoke)
    warmup = workload.warmup(args.seed)
    run_dir = OUT / (f"{workload.name}-seed{args.seed}-trace{args.trace}"
                     + ("-smoke" if args.smoke else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    run = Run(calls, bool(args.trace))
    datasets = list(dict.fromkeys([warmup.dataset] + [c.dataset for c in calls]))
    setup_seconds, data_dir = set_up(datasets, run_dir, run.problems)
    truths = {}
    for call in [warmup] + calls:
        oracle = json.loads(call.dataset.oracle(data_dir).read_text(encoding="utf-8"))
        truths[call] = call.truth(oracle)

    layers = []
    if args.trace:
        from layers import cicdml_layers

        layers = cicdml_layers()
    measure(run, cli, layers, warmup, truths, data_dir, run_dir, args.seconds)
    metrics = per_layer(run, layers) if args.trace else end_to_end(run, setup_seconds)
    if args.trace:
        run.tracer.write(run_dir / "spans.jsonl")
    shutil.rmtree(data_dir)

    if {k: u for k, (_, u) in metrics.items()} != declared:
        raise RuntimeError("measured metrics do not match BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(declared))}")
    correct = not run.problems
    env = environment()
    result = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "env": env,
        "setup_seconds": setup_seconds, "rounds": run.rounds, "traced": run.traced,
        "calls": [c.label for c in calls], "problems": run.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}"
          + (" smoke" if args.smoke else ""))
    print("env " + json.dumps(env, sort_keys=True))
    print(f"set-up: {SETUP_REPEATS} repeats, seconds {[round(s, 3) for s in setup_seconds]}")
    print(f"rounds: {len(run.rounds)} of {len(calls)} calls ({', '.join(c.label for c in calls)})"
          f"; estimate_s.p50 is the median over rounds of the mean seconds per call")
    for name in declared:
        value, unit = metrics[name]
        print(f"  {name} = {value} {unit}")
    for problem in run.problems:
        print(f"FAIL {problem}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process; fails if any check fails."""
    declared_metrics(args.trace)
    require_program()
    summary = {}
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False}
        summary[name] = {k: result.get(k) for k in ("correct", "attempted", "failed")}
        ok = ok and proc.returncode == 0 and result.get("correct") is True
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1,
                        help=f"workload seed (seed {HELD_OUT_SEED} is held out for claims)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure in rounds until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets, for checking the benchmark itself")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except MissingInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
