"""End-to-end checks of the benchmark on tiny datasets."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(cwd, *args, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_declaration_keeps_the_contract_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_runs_every_workload_with_every_metric(trace, section):
    proc = _run(ROOT, "--workload", "all", "--smoke", "--seed", "3", "--seconds", "0",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[-1])["correct"] is True
    results = [json.loads(l) for l in lines[:-1] if l.startswith('{"correct"')]
    assert len(results) == len(SPEC["workloads"])
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"  {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
