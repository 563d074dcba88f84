#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its bounds.

Runs ``run.py`` once per seed on each workload, one run at a time, and
prints for every end-to-end metric its median over the seeds and its
quartile spread (the distance between the first and third quartile as a
share of the median) next to the metric's bound. A spread passes below
a third of the bound; ``setup_s`` is shown but not held to it. With
``--against`` an earlier output of this script, it also checks that no
median got worse by more than the bound. Exits 1 when a check fails.

    python3 perfbench/steady.py --seeds 1-10 --save .perfbench_out/steady-a.json
    python3 perfbench/steady.py --seeds 1-10 --against .perfbench_out/steady-a.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n"
                         f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, as 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", help="write every value to this JSON file")
    parser.add_argument("--against", help="an earlier --save file to compare medians with")
    args = parser.parse_args()

    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    values = {}
    ok = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds) for seed in seed_list(args.seeds)]
        values[workload] = {m["name"]: [r[m["name"]] for r in runs] for m in spec["end_to_end"]}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            xs = values[workload][name]
            med = statistics.median(xs)
            spread = quartile_spread(xs)
            line = (f"{workload:12s} {name:16s} median {med:12.6g} {m['unit']:5s} "
                    f"spread {spread:6.3f} bound {bound:.2f}")
            if name != "setup_s" and spread >= bound / 3:
                ok = False
                line += "  SPREAD TOO WIDE"
            if workload in earlier:
                before = statistics.median(earlier[workload][name])
                change = (med - before) / before
                worse = change if m["better"] == "lower" else -change
                line += f"  change {change:+.3f}"
                if worse > bound:
                    ok = False
                    line += "  WORSE THAN BOUND"
            print(line, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
