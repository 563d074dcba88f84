import numpy as np
import pytest

from cicdml.data_model import (
    EstimandKind,
    EstimandSpec,
    PanelDataset,
    partition_folds,
    validate,
)
from cicdml.errors import (
    DegenerateArm,
    DimensionMismatch,
    FoldTooSmall,
    InsufficientData,
    NonBinaryTreatment,
    NonFiniteValue,
)


def make_dataset(y0, y1, a, l=None):
    return PanelDataset(y0=np.asarray(y0, dtype=float), y1=np.asarray(y1, dtype=float),
                        a=np.asarray(a), l=np.empty((len(y0), 0)) if l is None else np.asarray(l))


class TestValidate:
    def test_valid_dataset_passes(self):
        ds = make_dataset([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.0], [1, 0, 1, 0])
        validate(ds)

    def test_all_treated_rejected(self):
        ds = make_dataset([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.0], [1, 1, 1, 1])
        with pytest.raises(DegenerateArm):
            validate(ds)

    def test_no_treated_rejected(self):
        ds = make_dataset([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.0], [0, 0, 0, 0])
        with pytest.raises(DegenerateArm, match="no treated units"):
            validate(ds)

    def test_non_finite_outcome_rejected(self):
        ds = make_dataset([1.0, 2.0, 3.0], [2.0, np.nan, 4.0], [1, 0, 1])
        with pytest.raises(NonFiniteValue):
            validate(ds)

    def test_non_binary_treatment_rejected(self):
        ds = make_dataset([1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [1, 2, 0])
        with pytest.raises(NonBinaryTreatment):
            validate(ds)

    def test_length_mismatch_rejected(self):
        ds = PanelDataset(y0=np.zeros(3), y1=np.zeros(4), a=np.array([1, 0, 1]),
                          l=np.empty((3, 0)))
        with pytest.raises(DimensionMismatch):
            validate(ds)

    @pytest.mark.parametrize("y0,l,match", [
        (np.zeros((4, 1)), np.empty((4, 0)), "one-dimensional"),
        (np.zeros(4), np.zeros((3, 1)), r"\(n, p\) matrix with n=4"),
    ], ids=["2d-y0", "wrong-rows-l"])
    def test_misshapen_arrays_rejected(self, y0, l, match):
        ds = PanelDataset(y0=y0, y1=np.zeros(4), a=np.array([1, 0, 1, 0]), l=l)
        with pytest.raises(DimensionMismatch, match=match):
            validate(ds)

    def test_one_dimensional_covariates_are_one_column(self):
        ds = make_dataset([1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [1, 0, 1], l=[0.5, 0.6, 0.7])
        assert ds.l.shape == (3, 1) and ds.p == 1
        assert ds.l[:, 0].tolist() == [0.5, 0.6, 0.7]

    def test_arrays_are_readonly(self):
        ds = make_dataset([1.0, 2.0], [2.0, 3.0], [1, 0])
        with pytest.raises(ValueError):
            ds.y0[0] = 7.0


class TestEstimandSpec:
    def test_cdt_needs_finite_point(self):
        with pytest.raises(ValueError):
            EstimandSpec(kind=EstimandKind.CDT, y_point=np.inf)

    def test_qtt_needs_interior_tau(self):
        with pytest.raises(ValueError):
            EstimandSpec.qtt(1.0)
        assert EstimandSpec.qtt(0.25).tau == 0.25

    def test_general_moment_needs_a_link(self):
        with pytest.raises(ValueError, match="gtilde"):
            EstimandSpec(kind=EstimandKind.GENERAL_MOMENT)


class TestPartitionFolds:
    def test_divisible_case(self):
        folds = partition_folds(6, 3, seed=0)
        assert sorted(folds.sizes()) == [2, 2, 2]

    def test_remainder_case(self):
        folds = partition_folds(7, 3, seed=0)
        assert sorted(folds.sizes()) == [2, 2, 3]

    def test_n_counts_the_units(self):
        assert partition_folds(7, 3, seed=0).n == 7

    def test_deterministic(self):
        f1 = partition_folds(101, 5, seed=42)
        f2 = partition_folds(101, 5, seed=42)
        assert np.array_equal(f1.fold_of, f2.fold_of)
        f3 = partition_folds(101, 5, seed=43)
        assert not np.array_equal(f1.fold_of, f3.fold_of)

    def test_too_many_folds(self):
        with pytest.raises(FoldTooSmall):
            partition_folds(3, 4, seed=0)

    @pytest.mark.parametrize("K", [1, 0])
    def test_fewer_than_two_folds(self, K):
        with pytest.raises(FoldTooSmall, match="at least 2 folds"):
            partition_folds(10, K, seed=0)

    def test_stratify_on_of_another_length_is_rejected(self):
        with pytest.raises(DimensionMismatch, match="stratify_on"):
            partition_folds(10, 2, stratify_on=np.array([1, 0] * 4), seed=0)

    def test_every_index_gets_one_fold(self):
        for seed in range(5):
            n, K = 53, 4
            folds = partition_folds(n, K, seed=seed)
            assert folds.fold_of.shape == (n,)
            assert set(np.unique(folds.fold_of)) == set(range(K))
            assert folds.sizes().sum() == n
            assert folds.sizes().max() - folds.sizes().min() <= 1

    def test_stratified_complements_keep_both_arms(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            a = (rng.uniform(size=80) < 0.3).astype(int)
            if a.sum() < 4 or a.sum() > 76:
                continue
            folds = partition_folds(80, 4, stratify_on=a, seed=seed, min_stratum=1)
            for k in range(4):
                tr = folds.train_indices(k)
                assert a[tr].min() == 0 and a[tr].max() == 1

    def test_stratified_arm_split_is_even(self):
        a = np.array([1] * 20 + [0] * 40)
        folds = partition_folds(60, 4, stratify_on=a, seed=1, min_stratum=1)
        treated_per_fold = np.bincount(folds.fold_of[a == 1], minlength=4)
        assert treated_per_fold.max() - treated_per_fold.min() <= 1
        assert folds.sizes().max() - folds.sizes().min() <= 1

    def test_min_stratum_enforced(self):
        a = np.array([1] * 12 + [0] * 48)
        with pytest.raises(InsufficientData):
            partition_folds(60, 5, stratify_on=a, seed=0, min_stratum=10)
