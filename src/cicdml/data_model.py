"""Observed-data containers, fold partitioning, and dataset validation.

The observed data unit is the tuple (y0, y1, a, l): outcomes in the two
periods, a binary treatment indicator, and a (possibly empty) covariate
vector. Everything downstream consumes the immutable :class:`PanelDataset`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateArm,
    DimensionMismatch,
    FoldTooSmall,
    InsufficientData,
    NonBinaryTreatment,
    NonFiniteValue,
)

DEFAULT_MIN_STRATUM = 10


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PanelDataset:
    """Immutable two-period panel: outcomes, treatment, covariates.

    Parameters
    ----------
    y0, y1 : ndarray, shape (n,)
        Outcomes at baseline and follow-up.
    a : ndarray, shape (n,)
        Binary treatment indicator (1 = treated).
    l : ndarray, shape (n, p)
        Pre-treatment covariates; p = 0 (an (n, 0) matrix) is a
        first-class covariate-free case.
    """

    y0: np.ndarray
    y1: np.ndarray
    a: np.ndarray
    l: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y0", _readonly(np.asarray(self.y0, dtype=float)))
        object.__setattr__(self, "y1", _readonly(np.asarray(self.y1, dtype=float)))
        object.__setattr__(self, "a", _readonly(np.asarray(self.a)))
        l = np.asarray(self.l, dtype=float)
        if l.ndim == 1:
            l = l.reshape(-1, 1)
        object.__setattr__(self, "l", _readonly(l))

    @property
    def n(self) -> int:
        return self.y0.shape[0]

    @property
    def p(self) -> int:
        return self.l.shape[1]

    def transform_outcomes(self, fn) -> "PanelDataset":
        """Apply a strictly increasing map to all outcomes (both periods)."""
        return PanelDataset(y0=fn(self.y0), y1=fn(self.y1), a=self.a, l=self.l)


def validate(dataset: PanelDataset) -> None:
    """Check the PanelDataset invariants, raising on the first violation.

    Raises
    ------
    DimensionMismatch, NonBinaryTreatment, DegenerateArm, NonFiniteValue
    """
    n = dataset.y0.shape[0]
    if dataset.y0.ndim != 1 or dataset.y1.ndim != 1 or dataset.a.ndim != 1:
        raise DimensionMismatch("y0, y1 and a must be one-dimensional")
    if dataset.y1.shape[0] != n or dataset.a.shape[0] != n:
        raise DimensionMismatch(
            f"length mismatch: y0 has {n}, y1 has {dataset.y1.shape[0]}, "
            f"a has {dataset.a.shape[0]}"
        )
    if dataset.l.ndim != 2 or dataset.l.shape[0] != n:
        raise DimensionMismatch(f"l must be an (n, p) matrix with n={n}")
    if n < 2:
        raise DimensionMismatch("need at least 2 observations")
    a = np.asarray(dataset.a)
    if not np.isin(a, (0, 1)).all():
        raise NonBinaryTreatment("treatment indicator must contain only 0 and 1")
    n_treated = int((a == 1).sum())
    if n_treated == 0:
        raise DegenerateArm("no treated units")
    if n_treated == n:
        raise DegenerateArm("no control units")
    for name, arr in (("y0", dataset.y0), ("y1", dataset.y1), ("l", dataset.l)):
        if arr.size and not np.isfinite(arr).all():
            raise NonFiniteValue(f"{name} contains non-finite values")


class EstimandKind(enum.Enum):
    ATT = "att"
    CDT = "cdt"
    QTT = "qtt"
    GENERAL_MOMENT = "general"


@dataclass(frozen=True)
class EstimandSpec:
    """Which target is being estimated.

    ``y_point`` is required for CDT, ``tau`` for QTT, and ``gtilde`` (a
    moment descriptor consumed by the influence-function module) for
    GENERAL_MOMENT.
    """

    kind: EstimandKind
    y_point: Optional[float] = None
    tau: Optional[float] = None
    gtilde: Optional[object] = None

    def __post_init__(self):
        if self.kind == EstimandKind.CDT:
            if self.y_point is None or not np.isfinite(self.y_point):
                raise ValueError("CDT estimand needs a finite y_point")
        if self.kind == EstimandKind.QTT:
            if self.tau is None or not 0.0 < self.tau < 1.0:
                raise ValueError("QTT estimand needs tau in (0, 1)")
        if self.kind == EstimandKind.GENERAL_MOMENT and self.gtilde is None:
            raise ValueError("general-moment estimand needs a gtilde descriptor")

    @classmethod
    def att(cls) -> "EstimandSpec":
        return cls(kind=EstimandKind.ATT)

    @classmethod
    def cdt(cls, y_point: float) -> "EstimandSpec":
        return cls(kind=EstimandKind.CDT, y_point=float(y_point))

    @classmethod
    def qtt(cls, tau: float) -> "EstimandSpec":
        return cls(kind=EstimandKind.QTT, tau=float(tau))


@dataclass(frozen=True)
class FoldAssignment:
    """Partition of [0, n) into K folds; ``fold_of[i]`` is unit i's fold."""

    fold_of: np.ndarray
    K: int

    def __post_init__(self):
        object.__setattr__(self, "fold_of", _readonly(np.asarray(self.fold_of, dtype=int)))

    @property
    def n(self) -> int:
        return self.fold_of.shape[0]

    def eval_indices(self, k: int) -> np.ndarray:
        return np.nonzero(self.fold_of == k)[0]

    def train_indices(self, k: int) -> np.ndarray:
        return np.nonzero(self.fold_of != k)[0]

    def sizes(self) -> np.ndarray:
        return np.bincount(self.fold_of, minlength=self.K)


def partition_folds(
    n: int,
    K: int,
    stratify_on: Optional[np.ndarray] = None,
    seed: int = 0,
    min_stratum: int = DEFAULT_MIN_STRATUM,
) -> FoldAssignment:
    """Random partition of [0, n) into K folds of near-equal size.

    Deterministic in (n, K, seed, stratify_on). Fold sizes differ by at
    most one. With ``stratify_on`` given (a binary arm indicator), each
    arm is dealt round-robin across folds so that every training
    complement keeps both arms; complements with fewer than
    ``min_stratum`` units of an arm are rejected.

    Raises
    ------
    FoldTooSmall
        If K > n or K < 2.
    InsufficientData
        If stratification cannot leave ``min_stratum`` units of each arm
        in every training complement.
    """
    if K < 2:
        raise FoldTooSmall(f"need at least 2 folds, got {K}")
    if K > n:
        raise FoldTooSmall(f"cannot split {n} observations into {K} folds")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), n, K, 0x7F01)))
    fold_of = np.empty(n, dtype=int)
    if stratify_on is None:
        order = rng.permutation(n)
        fold_of[order] = np.arange(n) % K
        return FoldAssignment(fold_of=fold_of, K=K)

    strat = np.asarray(stratify_on)
    if strat.shape != (n,):
        raise DimensionMismatch("stratify_on must have length n")
    # Deal arms one after the other so per-arm and total fold sizes both
    # differ by at most one.
    pieces = [rng.permutation(np.nonzero(strat == v)[0]) for v in (1, 0)]
    order = np.concatenate(pieces)
    fold_of[order] = np.arange(n) % K
    for v, piece in zip((1, 0), pieces):
        n_arm = piece.shape[0]
        if n_arm == 0:
            continue
        largest_fold_share = -(-n_arm // K)
        if n_arm - largest_fold_share < min_stratum:
            raise InsufficientData(
                f"arm {v} has {n_arm} units: some training complement would "
                f"hold fewer than min_stratum={min_stratum}; lower K or "
                "min_stratum, or disable stratification"
            )
    return FoldAssignment(fold_of=fold_of, K=K)
