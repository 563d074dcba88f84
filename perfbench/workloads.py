"""The benchmark's workloads: the datasets each run simulates from its
seed, and the `cicdml estimate` calls it times on them.

Every workload uses K=5 folds, S=1 repetition and an additive effect of
2.0, so the oracle truth is the effect for ATT and for QTT at every tau.
Dataset i of a round with seed s is simulated with seed 1000 s + i.
Why each workload exists, and which layer it loads or skips, is written
in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

EFFECT = 2.0
FOLDS = 5
REPS = 1
SMOKE_N = 300       # dataset size in smoke mode
WARMUP_N = 300      # size of the untimed warm-up call's dataset


@dataclass(frozen=True)
class Dataset:
    dgp: str
    n: int
    seed: int

    @property
    def stem(self) -> str:
        return f"{self.dgp}-n{self.n}-s{self.seed}"

    def csv(self, directory: Path) -> Path:
        return directory / f"{self.stem}.csv"

    def oracle(self, directory: Path) -> Path:
        # `cicdml simulate` writes the oracle next to the CSV by default.
        return directory / f"{self.stem}.csv.oracle.json"

    def simulate_argv(self, directory: Path) -> list:
        return ["simulate", "--dgp", self.dgp, "--n", str(self.n),
                "--seed", str(self.seed), "--effect", repr(EFFECT),
                "--out", str(self.csv(directory)),
                "--output", str(directory / f"{self.stem}.simulate.json")]


@dataclass(frozen=True)
class Call:
    dataset: Dataset
    estimand: str                 # "att" or "qtt"
    tau: Optional[float] = None

    @property
    def label(self) -> str:
        tail = "" if self.tau is None else f"-tau{self.tau:g}"
        return f"{self.estimand}-{self.dataset.stem}{tail}"

    def estimate_argv(self, directory: Path, output: Path) -> list:
        argv = ["estimate", "--input", str(self.dataset.csv(directory)),
                "--estimand", self.estimand, "--folds", str(FOLDS),
                "--reps", str(REPS), "--seed", str(self.dataset.seed),
                "--output", str(output)]
        if self.tau is not None:
            argv += ["--tau", repr(self.tau)]
        return argv

    def truth(self, oracle: dict) -> float:
        """The true target, from the oracle file `simulate` wrote."""
        if self.estimand == "att":
            return float(oracle["att_true"])
        config = oracle["config"]
        if config["effect_kind"] != "additive":
            raise ValueError(f"{self.label}: QTT truth is known only for additive effects")
        return float(config["effect"])


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    # One round: (dgp, estimand, tau) per call. Each call gets a dataset of
    # its own, so a round averages over independent draws and a seed's
    # data moves the round mean less.
    round: Tuple[Tuple[str, str, Optional[float]], ...]

    def calls(self, seed: int, smoke: bool = False) -> list:
        n = SMOKE_N if smoke else self.n
        return [Call(Dataset(dgp, n, 1000 * seed + i), estimand, tau)
                for i, (dgp, estimand, tau) in enumerate(self.round)]

    def warmup(self, seed: int) -> Call:
        """An untimed small call that lets lazy set-up finish first."""
        dgp, estimand, tau = self.round[0]
        return Call(Dataset(dgp, WARMUP_N, 1000 * seed + 999), estimand, tau)


WORKLOADS = {w.name: w for w in (
    Workload("att-p0-20k", 20_000, (("did", "att", None), ("stm-exp", "att", None))),
    Workload("att-cov-1k", 1_000, (("stm-cov", "att", None),)),
    Workload("qtt-cov-2k", 2_000, tuple(("stm-cov", "qtt", tau) for tau in (0.25, 0.5, 0.75))),
)}
