import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostcontrib import (
    CartParams,
    Dataset,
    GbdtParams,
    batch_explain,
    decision_contributions,
    decision_space,
    feature_contributions,
    fit_gbdt,
    gbdt_predict,
)
from boostcontrib.contrib import _decision_bounds
from boostcontrib.oracle import enumerate_leaf_regions
from conftest import D0_X, random_ensemble, region_index, region_leaf_values, sample_probes

X11 = np.array([1.0, 1.0])


class TestD0Explanations:
    """All expected numbers are dyadic, so comparisons are exact equality."""

    def test_one_tree(self, d0_one_tree):
        e = feature_contributions(d0_one_tree, X11)
        assert e.bias == 7.5
        assert e.contributions == {"f0": 7.5, "f1": 5.0}
        assert e.prediction == 20.0

    def test_two_trees(self, d0_two_trees):
        e = feature_contributions(d0_two_trees, X11)
        assert e.bias == 7.5
        assert e.contributions == {"f0": 5.625, "f1": 3.75}
        assert e.prediction == 16.875

    def test_two_tree_records(self, d0_two_trees):
        records = decision_contributions(d0_two_trees, X11)
        as_tuples = [
            (r.tree_index, r.step, r.feature, r.threshold, r.direction, r.residue, r.scaled_residue)
            for r in records
        ]
        assert as_tuples == [
            (0, 0, 0, 0.5, "right", 7.5, 3.75),
            (0, 1, 1, 0.5, "right", 5.0, 2.5),
            (1, 0, 0, 0.5, "right", 3.75, 1.875),
            (1, 1, 1, 0.5, "right", 2.5, 1.25),
        ]

    def test_left_direction_recorded(self, d0_one_tree):
        records = decision_contributions(d0_one_tree, np.array([0.0, 0.0]))
        assert [r.direction for r in records] == ["left"]
        assert records[0].residue == -7.5

    def test_bias_folds_every_root(self, d0_two_trees):
        # both trees have root value 0, so bias stays f0 here; the formula
        # is checked against a nonzero-root model below
        assert feature_contributions(d0_two_trees, X11).bias == 7.5


class TestAdditiveIdentity:
    @given(seed=st.integers(0, 5000))
    @settings(max_examples=50, deadline=None)
    def test_bias_plus_contributions_is_the_prediction(self, seed):
        rng = np.random.default_rng(seed)
        ds, ens = random_ensemble(rng)
        for x in rng.uniform(-4, 4, size=(10, ds.n_features)):
            e = feature_contributions(ens, x)
            total = e.bias + sum(e.contributions[n] for n in ens.feature_names)
            assert abs(e.prediction - total) <= 1e-9 * max(1.0, abs(e.prediction))

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_residues_telescope_to_the_leaf(self, seed):
        rng = np.random.default_rng(seed)
        ds, ens = random_ensemble(rng)
        x = rng.uniform(-4, 4, size=ds.n_features)
        records = decision_contributions(ens, x)
        for t, tree in enumerate(ens.trees):
            mine = [r for r in records if r.tree_index == t]
            walked = tree.value[tree.root] + sum(r.residue for r in mine)
            assert abs(walked - region_leaf_values(tree, x)[0]) <= 1e-12

    def test_nonzero_roots_fold_into_bias(self):
        # shifted targets give the later trees nonzero root means
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 2))
        y = 100.0 + 3.0 * X[:, 0] + rng.normal(size=30)
        ds = Dataset(X, y, ("a", "b"))
        ens = fit_gbdt(ds, GbdtParams(n_estimators=4, learning_rate=0.5, cart=CartParams(max_depth=2), seed=0))
        expected_bias = ens.f0
        for tree in ens.trees:
            expected_bias += ens.learning_rate * tree.value[tree.root]
        e = feature_contributions(ens, X[0])
        assert e.bias == expected_bias


class TestUntouchedFeatures:
    def test_report_exactly_zero(self):
        # second feature is pure noise with zero weight and the tree is a
        # stump, so it can never be split on
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 2))
        y = 5.0 * X[:, 0]
        ds = Dataset(X, y, ("signal", "decoy"))
        ens = fit_gbdt(ds, GbdtParams(n_estimators=3, cart=CartParams(max_depth=1), seed=0))
        e = feature_contributions(ens, np.array([0.3, -1.2]))
        assert e.contributions["decoy"] == 0.0
        assert all(r.feature == 0 for r in decision_contributions(ens, np.array([0.3, -1.2])))

    def test_zero_iff_absent_from_records(self, d0_two_trees):
        e = feature_contributions(d0_two_trees, np.array([0.0, 1.0]))
        touched = {
            d0_two_trees.feature_names[r.feature]
            for r in decision_contributions(d0_two_trees, np.array([0.0, 1.0]))
        }
        for name, value in e.contributions.items():
            if name not in touched:
                assert value == 0.0


class TestDecisionSpace:
    def test_d0_intervals(self, d0_one_tree):
        space = decision_space(d0_one_tree, X11)
        assert space.intervals == {"f0": (0.5, np.inf), "f1": (0.5, np.inf)}

    def test_d0_left_side(self, d0_one_tree):
        space = decision_space(d0_one_tree, np.array([0.0, 1.0]))
        assert space.intervals == {"f0": (-np.inf, 0.5), "f1": (-np.inf, np.inf)}

    @given(seed=st.integers(0, 3000))
    @settings(max_examples=40, deadline=None)
    def test_any_point_inside_predicts_the_same(self, seed):
        rng = np.random.default_rng(seed)
        ds, ens = random_ensemble(rng)
        x = rng.uniform(-3, 3, size=ds.n_features)
        space = decision_space(ens, x)
        base = gbdt_predict(ens, x)
        for _ in range(5):
            probe = np.empty(ds.n_features)
            for j, name in enumerate(ens.feature_names):
                lo, hi = space.intervals[name]
                a = max(lo, -10.0)
                b = min(hi, 10.0)
                # sample strictly inside the open end, on the closed end
                # the boundary itself is fair game
                probe[j] = b if rng.random() < 0.2 else rng.uniform(a, b)
                if probe[j] <= a:
                    probe[j] = np.nextafter(a, b)
            assert gbdt_predict(ens, probe) == base

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_bounds_are_the_oracle_regions_intersected_in_tree_order(self, seed):
        # Rows from a box wider than the data, every other one with a cell
        # moved onto a split threshold, where the upper bound is closed.
        rng = np.random.default_rng(seed)
        ds, ens = random_ensemble(rng)
        X = sample_probes(ds.features, 21, seed)
        splits = [(t.feature[k], t.threshold[k]) for t in ens.trees for k in np.flatnonzero(~t.is_leaf)]
        for i in range(0, len(X), 2) if splits else ():
            feature, threshold = splits[int(rng.integers(len(splits)))]
            X[i, feature] = threshold
        lower, upper = np.full(X.shape, -np.inf), np.full(X.shape, np.inf)
        for tree in ens.trees:
            region_lower, region_upper, _value = enumerate_leaf_regions(tree)
            held = region_index(region_lower, region_upper, X)
            lower, upper = np.maximum(lower, region_lower[held]), np.minimum(upper, region_upper[held])
        got = _decision_bounds(ens, X)
        assert (got[0].tobytes(), got[1].tobytes()) == (lower.tobytes(), upper.tobytes())

    def test_contains_the_sample_itself(self, d0_two_trees):
        for x in D0_X:
            space = decision_space(d0_two_trees, x)
            for j, name in enumerate(d0_two_trees.feature_names):
                lo, hi = space.intervals[name]
                assert lo < x[j] <= hi


class TestBatchExplain:
    def test_dataset_and_array_agree(self, d0_dataset, d0_two_trees):
        via_ds = batch_explain(d0_two_trees, d0_dataset)
        via_arr = batch_explain(d0_two_trees, d0_dataset.features)
        assert [e.prediction for e in via_ds] == [e.prediction for e in via_arr]
        assert len(via_ds) == 4

    def test_empty_array_gives_empty_list(self, d0_two_trees):
        assert batch_explain(d0_two_trees, np.empty((0, 2))) == []

    def test_shape_check(self, d0_two_trees):
        with pytest.raises(ValueError, match=r"expected shape \(n, 2\)"):
            batch_explain(d0_two_trees, np.zeros((3, 5)))
