import ast
import inspect
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from boostcontrib import (
    CartParams, Dataset, Ensemble, GbdtParams, batch_explain, feature_contributions, fit_gbdt, oracle,
    predict_batch,
)
from boostcontrib.kernel import FlatForest
from boostcontrib.oracle import (
    check_partition,
    count_containing_regions,
    enumerate_leaf_regions,
    naive_contributions,
    naive_contributions_batch,
)
from conftest import random_ensemble, sample_probes, tree_of


class TestNaiveContributions:
    def test_d0_two_trees_exact(self, d0_two_trees):
        bias, contrib = naive_contributions(d0_two_trees, np.array([1.0, 1.0]))
        assert bias == 7.5
        assert contrib.tolist() == [5.625, 3.75]

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=50, deadline=None)
    def test_bit_exact_match_with_primary_implementation(self, seed):
        rng = np.random.default_rng(seed)
        ds, ens = random_ensemble(rng)
        for x in rng.uniform(-4, 4, size=(5, ds.n_features)):
            e = feature_contributions(ens, x)
            bias, contrib = naive_contributions(ens, x)
            ours = np.array([e.contributions[n] for n in ens.feature_names])
            assert bias == e.bias
            assert np.array_equal(contrib, ours)

    def test_dimension_check(self, d0_two_trees):
        with pytest.raises(ValueError, match="2 features"):
            naive_contributions(d0_two_trees, np.array([1.0]))
        with pytest.raises(ValueError, match="2 features"):
            naive_contributions(d0_two_trees, np.ones((1, 2)))
        with pytest.raises(ValueError, match=r"expected shape \(n, 2\)"):
            naive_contributions_batch(d0_two_trees, np.ones((3, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_is_refused_as_predict_batch_refuses_it(self, d0_two_trees, bad):
        X = np.array([[0.0, 1.0], [bad, 0.0]])
        message = "row 1 holds a non-finite value"
        for call in (predict_batch, naive_contributions_batch):
            with pytest.raises(ValueError, match=message):
                call(d0_two_trees, X)
        with pytest.raises(ValueError, match="row 0 holds a non-finite value"):
            naive_contributions(d0_two_trees, X[1])

    @pytest.mark.parametrize("seed", range(12))
    def test_batch_is_bit_equal_to_the_kernel(self, seed):
        rng = np.random.default_rng(seed)
        ds, ens = random_ensemble(rng)
        X = rng.uniform(-4, 4, size=(23, ds.n_features))
        bias, contrib = naive_contributions_batch(ens, X)
        for row, e in zip(contrib, batch_explain(ens, X)):
            assert bias == e.bias
            assert row.tobytes() == np.array(list(e.contributions.values())).tobytes()

    def test_sums_tree_major_path_minor(self):
        # Row 0.0 goes left twice in both trees. Tree 0 credits 1.0, then
        # 1e-17; tree 1 credits -1.0, then 0.0. Tree by tree, 1.0 + 1e-17
        # rounds to 1.0 and the sum is 0.0; step by step across the trees
        # it would be 1e-17.
        def chain(root, middle, leaf):
            return tree_of([
                (root, 3, 0, 0.5, 1, 4), (middle, 2, 0, 0.25, 2, 3), (leaf, 1), (0.0, 1), (0.0, 1),
            ])

        ens = Ensemble(0.0, 1.0, FlatForest.of([chain(-1.0, 0.0, 1e-17), chain(1.0, 0.0, 0.0)], 1.0), ("a",))
        assert naive_contributions(ens, np.array([0.0]))[1].tolist() == [0.0]
        assert feature_contributions(ens, np.array([0.0])).contributions == {"a": 0.0}

    def test_uses_no_traversal_code(self):
        # The recount is the independent reference: it must not reach the
        # kernel, the contribution module or cart's walks.
        syntax = ast.parse(inspect.getsource(oracle))
        imports = [node for node in ast.walk(syntax) if isinstance(node, ast.ImportFrom)]
        assert not {node.module for node in imports} & {"kernel", "contrib"}
        names = {alias.name for node in imports for alias in node.names}
        names |= {node.attr for node in ast.walk(syntax) if isinstance(node, ast.Attribute)}
        assert not names & {"flat", "FlatForest", "decision_path", "tree_predict"}


class TestLeafRegions:
    def test_d0_tree_regions(self, d0_one_tree):
        lower, upper, value = enumerate_leaf_regions(d0_one_tree.trees[0])
        inf = np.inf
        assert value.tolist() == [-7.5, 2.5, 12.5]
        assert lower.tolist() == [[-inf, -inf], [0.5, -inf], [0.5, 0.5]]
        assert upper.tolist() == [[0.5, inf], [inf, 0.5], [inf, inf]]

    def test_one_region_per_leaf(self, d0_two_trees):
        for tree in d0_two_trees.trees:
            n_leaves = int(tree.is_leaf.sum())
            lower, upper, value = enumerate_leaf_regions(tree)
            assert lower.shape == upper.shape == (n_leaves, tree.n_features)
            assert value.tolist() == tree.value[tree.is_leaf].tolist()

    def test_single_leaf_tree_covers_everything(self):
        import boostcontrib

        tree = boostcontrib.fit_cart(
            np.array([[0.0]]), np.array([1.0]),
            boostcontrib.CartParams(max_depth=3), np.random.default_rng(0),
        )
        lower, upper, value = enumerate_leaf_regions(tree)
        assert value.tolist() == [1.0]
        assert count_containing_regions(lower, upper, [[1e300], [-1e300]]).tolist() == [1, 1]


class TestPartition:
    @given(seed=st.integers(0, 3000))
    @settings(max_examples=40, deadline=None)
    def test_fitted_trees_partition_the_space(self, seed):
        rng = np.random.default_rng(seed)
        ds, ens = random_ensemble(rng)
        probes = sample_probes(ds.features, 200, seed=seed)
        for tree in ens.trees:
            lower, upper, _value = enumerate_leaf_regions(tree)
            assert check_partition(lower, upper, probes)

    def test_missing_region_is_detected(self, d0_one_tree):
        lower, upper, _value = enumerate_leaf_regions(d0_one_tree.trees[0])
        probes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        assert check_partition(lower, upper, probes)
        assert not check_partition(lower[:-1], upper[:-1], probes)

    def test_overlapping_region_is_detected(self, d0_one_tree):
        lower, upper, _value = enumerate_leaf_regions(d0_one_tree.trees[0])
        probes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        assert not check_partition(lower[[0, 1, 2, 0]], upper[[0, 1, 2, 0]], probes)

    def test_empty_region_list(self):
        none = np.zeros((0, 2))
        assert count_containing_regions(none, none, np.zeros((3, 2))).tolist() == [0, 0, 0]
        assert not check_partition(none, none, np.zeros((1, 2)))
        assert check_partition(none, none, np.zeros((0, 2)))

    def test_lower_bound_is_open_and_upper_bound_closed(self):
        lower, upper = np.array([[0.0]]), np.array([[1.0]])
        probes = [[0.0], [0.0000001], [1.0], [1.0000001]]
        assert count_containing_regions(lower, upper, probes).tolist() == [0, 1, 1, 0]

    def test_probe_width_must_match_the_regions(self, d0_one_tree):
        lower, upper, _value = enumerate_leaf_regions(d0_one_tree.trees[0])
        with pytest.raises(ValueError, match=r"must be \(n, 2\) like the regions, got shape \(4, 3\)"):
            count_containing_regions(lower, upper, np.zeros((4, 3)))

    @staticmethod
    def with_non_finite(probes, columns):
        """probes, then copies of its first three rows holding -inf, +inf and
        NaN in each of `columns`."""
        extra = []
        for j in columns:
            for k, v in enumerate((-np.inf, np.inf, np.nan)):
                row = probes[k].copy()
                row[j] = v
                extra.append(row)
        return np.vstack([probes, extra])

    @given(seed=st.integers(0, 3000))
    @settings(max_examples=40, deadline=None)
    def test_count_equals_the_cube_on_fitted_trees(self, seed):
        # The last column is constant, so no tree splits on it and no region
        # bounds it; the probes put -inf, +inf and NaN there and in a
        # column the trees may split on.
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(5, 80)), int(rng.integers(1, 5))
        X = np.column_stack([rng.normal(size=(n, d)), np.ones(n)])
        ds = Dataset(X, rng.normal(size=n), tuple(f"x{j}" for j in range(d + 1)))
        cart = CartParams(max_depth=int(rng.integers(1, 5)))
        ens = fit_gbdt(ds, GbdtParams(n_estimators=int(rng.integers(1, 6)), cart=cart, seed=seed))
        probes = self.with_non_finite(sample_probes(X, 60, seed=seed), [d, int(rng.integers(d))])
        regions = [enumerate_leaf_regions(tree)[:2] for tree in ens.trees]
        # Random boxes need not tile the space: a probe may lie in none or in several.
        boxes = rng.uniform(-2, 2, size=(int(rng.integers(1, 6)), d + 1))
        regions.append((boxes, boxes + rng.uniform(0, 2, size=boxes.shape)))
        for lower, upper in regions:
            counts = count_containing_regions(lower, upper, probes)
            assert counts.tolist() == bruteforce.count_containing_regions(lower, upper, probes).tolist()

    def test_count_equals_the_cube_on_a_single_leaf_tree(self):
        lower, upper, _value = enumerate_leaf_regions(tree_of([(1.0, 3)], n_features=2))
        probes = self.with_non_finite(np.array([[0.0, 0.0], [1e300, -1e300], [-5.0, 2.0]]), [0, 1])
        counts = count_containing_regions(lower, upper, probes)
        assert counts.tolist() == bruteforce.count_containing_regions(lower, upper, probes).tolist()
        assert counts.tolist() == [1, 1, 1] + [0, 1, 0] * 2

    @pytest.mark.parametrize("cells", [1, 840, 1 << 20])
    def test_chunked_count_equals_one_pass(self, cells):
        rng = np.random.default_rng(cells)
        lower = rng.uniform(-2, 2, size=(40, 3))
        upper = lower + rng.uniform(0, 2, size=(40, 3))
        probes = rng.uniform(-3, 3, size=(101, 3))
        with mock.patch.object(oracle, "CHUNK_CELLS", cells):
            counts = count_containing_regions(lower, upper, probes)
        assert counts.tolist() == bruteforce.count_containing_regions(lower, upper, probes).tolist()


class TestSampleProbes:
    def test_deterministic_and_shaped(self, synthetic_500x8):
        a = sample_probes(synthetic_500x8.features, 50, seed=3)
        b = sample_probes(synthetic_500x8.features, 50, seed=3)
        assert np.array_equal(a, b)
        assert a.shape == (50, 8)

    def test_probes_cover_an_inflated_box(self, synthetic_500x8):
        X = synthetic_500x8.features
        probes = sample_probes(X, 2000, seed=0)
        lo, hi = X.min(axis=0), X.max(axis=0)
        span = hi - lo
        assert np.all(probes >= lo - span) and np.all(probes <= hi + span)
        # inflation matters: some probes actually fall outside the data hull
        assert np.any((probes < lo) | (probes > hi))
