from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from boostcontrib import CartParams, best_split, cart, decision_path, fit_cart, tree_predict
from conftest import D0_X, D0_Y


def rng_of(seed=0):
    return np.random.default_rng(seed)


class TestBestSplit:
    def test_d0_exact_gain(self):
        found = best_split(D0_X, D0_Y, rng_of())
        assert found == (0, 0.5, 225.0)

    def test_rng_untouched_when_winner_is_unique(self):
        rng = rng_of(3)
        best_split(D0_X, D0_Y, rng)
        assert rng.integers(2**32) == rng_of(3).integers(2**32)

    def test_tie_between_duplicate_columns_uses_rng(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0.0, 0.0, 5.0, 5.0])
        chosen = {best_split(X, y, rng_of(s))[0] for s in range(25)}
        assert chosen == {0, 1}

    def test_tie_choice_is_seed_deterministic(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0.0, 0.0, 5.0, 5.0])
        assert best_split(X, y, rng_of(9)) == best_split(X, y, rng_of(9))

    def test_pure_node_returns_none(self):
        X = np.array([[0.0], [1.0], [2.0]])
        assert best_split(X, np.zeros(3), rng_of()) is None

    def test_single_row_returns_none(self):
        assert best_split(np.array([[1.0]]), np.array([2.0]), rng_of()) is None

    def test_constant_feature_returns_none(self):
        X = np.zeros((4, 1))
        y = np.array([0.0, 1.0, 2.0, 3.0])
        assert best_split(X, y, rng_of()) is None

    def test_min_samples_leaf_blocks_candidates(self):
        # every D0 split leaves 2 rows per side, so a minimum of 3 kills all
        assert best_split(D0_X, D0_Y, rng_of(), min_samples_leaf=3) is None
        found = best_split(D0_X, D0_Y, rng_of(), min_samples_leaf=2)
        assert found == (0, 0.5, 225.0)

    def test_min_gain_is_strict(self):
        assert best_split(D0_X, D0_Y, rng_of(), min_gain=225.0) is None
        assert best_split(D0_X, D0_Y, rng_of(), min_gain=224.9) is not None

    @pytest.mark.parametrize(
        "X, y, expected",
        [
            ([[0.0, np.nan]] + D0_X[1:].tolist(), D0_Y, "row 0 holds a non-finite value"),
            ([[np.inf, 0.0]] + D0_X[1:].tolist(), D0_Y, "row 0 holds a non-finite value"),
            (D0_X, [0.0, 0.0, np.nan, 0.0], "row 2 holds a non-finite value"),
            (D0_X, D0_Y[:3], "matching n"),
            (D0_X[:, 0], D0_Y, "matching n"),
            (np.zeros((0, 2)), np.zeros(0), "at least one sample"),
            (np.zeros((4, 0)), D0_Y, "one feature"),
            (D0_X.tolist(), D0_Y.tolist(), (0, 0.5, 225.0)),
            (D0_X.astype(int), D0_Y.astype(int), (0, 0.5, 225.0)),
        ],
        ids=["nan-x", "inf-x", "nan-y", "short-y", "1d-x", "no-rows", "no-columns", "lists", "ints"],
    )
    def test_input_is_checked_as_fit_cart_checks_it(self, X, y, expected):
        if not isinstance(expected, str):
            assert best_split(X, y, rng_of()) == expected
            return
        for call in (best_split, lambda X, y, rng: fit_cart(X, y, CartParams(max_depth=2), rng)):
            with pytest.raises(ValueError, match=expected):
                call(X, y, rng_of())

    @given(
        n=st.integers(2, 25),
        d=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_exhaustive_search(self, n, d, seed):
        # Values on a coarse grid so duplicates and exact gain ties occur.
        rng = rng_of(seed)
        X = rng.integers(0, 4, size=(n, d)).astype(np.float64)
        y = rng.integers(-3, 4, size=n).astype(np.float64)
        found = best_split(X, y, rng_of(seed + 1))
        candidates = bruteforce.enumerate_splits(X, y)
        top = bruteforce.best_gain(X, y)
        if found is None:
            assert top <= 0.0 or not candidates
            return
        feat, th, gain = found
        assert gain == pytest.approx(top, rel=1e-9, abs=1e-9)
        matching = [
            g for f, t, g in candidates if f == feat and t == pytest.approx(th)
        ]
        assert matching, "returned split is not a real candidate"
        assert matching[0] >= top - 1e-9 * max(1.0, abs(top))


class TestFitCart:
    def test_d0_structure(self, d0_dataset):
        tree = fit_cart(D0_X, D0_Y, CartParams(max_depth=2), rng_of())
        assert (tree.value[0], tree.n_samples[0]) == (7.5, 4)
        assert tree.feature[0] == 0 and tree.threshold[0] == 0.5
        left = tree.left[0]
        assert (tree.value[left], tree.n_samples[left]) == (0.0, 2)
        assert tree.is_leaf[left]
        right = tree.right[0]
        assert (tree.value[right], tree.n_samples[right]) == (15.0, 2)
        assert tree.feature[right] == 1 and tree.threshold[right] == 0.5
        assert tree.value[tree.left[right]] == 10.0
        assert tree.value[tree.right[right]] == 20.0
        assert tree.value.size == 5

    def test_node_ids_are_preorder(self):
        tree = fit_cart(D0_X, D0_Y, CartParams(max_depth=2), rng_of())
        assert tree.left[0] == 1 and tree.right[0] == 2
        assert tree.left[2] == 3 and tree.right[2] == 4

    def test_depth_one_is_a_stump(self):
        tree = fit_cart(D0_X, D0_Y, CartParams(max_depth=1), rng_of())
        assert tree.value.size == 3
        assert tree.is_leaf[1] and tree.is_leaf[2]

    def test_single_sample_gives_single_leaf(self):
        tree = fit_cart(np.array([[3.0]]), np.array([7.0]), CartParams(max_depth=4), rng_of())
        assert tree.value.size == 1
        assert tree.value[0] == 7.0

    def test_min_samples_split_stops_growth(self):
        tree = fit_cart(D0_X, D0_Y, CartParams(max_depth=5, min_samples_split=3), rng_of())
        # the 2-row children of the root may not split again
        assert tree.is_leaf[tree.right[0]]

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="matching n"):
            fit_cart(np.zeros((3, 2)), np.zeros(4), CartParams(max_depth=1), rng_of())

    def test_zero_feature_columns_raise(self):
        # There would be no split to search, not even a failing one.
        with pytest.raises(ValueError, match="one feature"):
            fit_cart(np.zeros((3, 0)), np.arange(3.0), CartParams(max_depth=2), rng_of())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["X", "y"])
    def test_non_finite_input_raises(self, where, bad):
        # A NaN target would give NaN node means; a NaN feature routes right.
        X, y = D0_X.copy(), D0_Y.copy()
        if where == "X":
            X[2, 1] = bad
        else:
            y[2] = bad
        with pytest.raises(ValueError, match="row 2 holds a non-finite value"):
            fit_cart(X, y, CartParams(max_depth=2), rng_of())

    @given(seed=st.integers(0, 10_000), max_depth=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_fitted_tree_invariants(self, seed, max_depth):
        rng = rng_of(seed)
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        tree = fit_cart(X, y, CartParams(max_depth=max_depth), rng_of(seed + 1))

        # every node's value/n_samples match the rows routed to it,
        # and no leaf sits deeper than max_depth
        rows = {0: np.arange(n)}
        depth = {0: 0}
        for node_id in range(tree.value.size):
            idx = rows[node_id]
            assert tree.n_samples[node_id] == len(idx)
            want = float(y[idx].mean())
            assert tree.value[node_id] == pytest.approx(want, rel=1e-12, abs=1e-12)
            if tree.is_leaf[node_id]:
                assert depth[node_id] <= max_depth
                continue
            left, right = tree.left[node_id], tree.right[node_id]
            mask = X[idx, tree.feature[node_id]] <= tree.threshold[node_id]
            rows[left] = idx[mask]
            rows[right] = idx[~mask]
            depth[left] = depth[right] = depth[node_id] + 1
            assert len(rows[left]) >= 1 and len(rows[right]) >= 1


def tied_data(seed):
    """Rounded features, often with a duplicated column, and float targets:
    ties in every column's order, exact gain ties, and node sums whose bits
    depend on the order they are taken in."""
    rng = rng_of(seed)
    n = int(rng.integers(2, 150))
    d = int(rng.integers(1, 4))
    X = np.round(rng.normal(size=(n, d)), 1)
    if d > 1 and rng.random() < 0.5:
        X[:, -1] = X[:, 0]
    y = 2.0 * X[:, 0] + rng.normal(size=n)
    params = CartParams(
        max_depth=int(rng.integers(1, 9)),
        min_samples_leaf=int(rng.integers(1, 4)),
        min_samples_split=int(rng.integers(2, 7)),
        min_gain=float(rng.choice([0.0, 0.01])),
    )
    return X, y, params


def integer_data(seed):
    """Small data with integer targets and a few distinct feature values:
    gains often tie between candidates that split a node's rows into
    different sets, which holds the node until its draw."""
    rng = rng_of(seed)
    n = int(rng.integers(2, 40))
    d = int(rng.integers(1, 4))
    X = rng.integers(0, 5, size=(n, d)).astype(np.float64)
    y = rng.integers(0, 3, size=n).astype(np.float64)
    params = CartParams(
        max_depth=int(rng.integers(1, 7)),
        min_samples_leaf=int(rng.integers(1, 3)),
        min_samples_split=int(rng.integers(2, 5)),
    )
    return X, y, params


def assert_same_tree(tree, want):
    for field, array in want.items():
        got = getattr(tree, field)
        assert (got.dtype, got.tobytes()) == (array.dtype, array.tobytes()), field


PADDING = pytest.mark.parametrize("pad_cells", [0, 10**9], ids=["one search per size", "padded"])


class TestLevelwiseGrowth:
    """fit_cart grows a tree a level at a time and draws in a preorder walk;
    it must be the tree the slow depth-first reference grows, bit for bit,
    whether nodes are searched one size at a time or padded together."""

    @PADDING
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_reference_grower(self, pad_cells, seed):
        X, y, params = tied_data(seed)
        with mock.patch.object(cart, "PAD_CELLS", pad_cells):
            tree = fit_cart(X, y, params, rng_of(seed))
        assert_same_tree(tree, bruteforce.grow_tree(X, y, params, rng_of(seed)))

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_reference_grower_on_integer_targets(self, seed):
        X, y, params = integer_data(seed)
        tree = fit_cart(X, y, params, rng_of(seed))
        assert_same_tree(tree, bruteforce.grow_tree(X, y, params, rng_of(seed)))

    def test_held_nodes_are_grown_after_their_draw(self):
        # On these inputs some tied candidates split a node's rows into
        # different sets, so the node's children wait for its draw.
        real, held = cart._Grower._grow_held, []

        def spy(self, record, pick):
            held.append(record)
            return real(self, record, pick)

        with mock.patch.object(cart._Grower, "_grow_held", spy):
            for seed in range(40):
                X, y, params = integer_data(seed)
                tree = fit_cart(X, y, params, rng_of(seed))
                assert_same_tree(tree, bruteforce.grow_tree(X, y, params, rng_of(seed)))
        assert len(held) >= 5

    @PADDING
    def test_search_sees_each_node_sorted_by_value_then_row(self, pad_cells):
        # The invariant behind bit-identical trees: the search gets each
        # node's rows sorted per column by (value, row), padded only after
        # the run, and its sums taken in row order.
        rng = rng_of(5)
        X = np.round(rng.normal(size=(300, 3)), 1)
        X[:, 2] = X[:, 0]
        y = X[:, 0] + rng.normal(size=300)
        real, padded = cart._search, []

        def spy(Xt, y_all, slab, counts, total, total_sq, *rest):
            for q, n in enumerate(counts.astype(int).tolist()):
                rows = np.sort(slab[0, q, :n])
                assert np.array_equal(slab[:, q, :n], rows[Xt[:, rows].argsort(axis=1, kind="stable")])
                assert (slab[:, q, n:] == slab[:, q, n - 1 : n]).all()
                ys = y_all[rows]
                assert (total[q], total_sq[q]) == (ys.sum(), (ys * ys).sum())
            padded.append(len(set(counts.tolist())) > 1)
            return real(Xt, y_all, slab, counts, total, total_sq, *rest)

        with mock.patch.object(cart, "PAD_CELLS", pad_cells), mock.patch.object(cart, "_search", spy):
            fit_cart(X, y, CartParams(max_depth=8), rng_of(0))
        assert any(padded) == (pad_cells > 0)

    def test_default_outlier_fit_makes_few_searches(self):
        # One search per level and size run, not one per node (2,240 before).
        from boostcontrib import Dataset, fit_gbdt, make_outlier, train_test_split
        from boostcontrib.experiments import OUTLIER_CONFIG
        from conftest import build_synthetic

        train, _ = train_test_split(build_synthetic(n=250, d=8, seed=3), OUTLIER_CONFIG.test_fraction, 0)
        sample = make_outlier(train, "x0")
        poisoned = Dataset(
            np.vstack([train.features, sample.x_fake]), np.append(train.target, sample.y_fake), train.feature_names
        )
        with mock.patch.object(cart, "_search", wraps=cart._search) as search:
            model = fit_gbdt(poisoned, OUTLIER_CONFIG.gbdt_params(0))
        assert sum(tree.value.size for tree in model.trees) > 4000
        assert search.call_count <= 1000


class TestThresholds:
    """A threshold always separates the two values it lies between, also
    where their midpoint rounds up to the higher one or overflows."""

    @pytest.mark.parametrize(
        "low, high",
        [(1.0000000000000002, 1.0000000000000004), (1e308, 1.7e308), (-1.7e308, -1e308), (0.0, 1.0)],
        ids=["adjacent", "overflow", "negative-overflow", "plain"],
    )
    def test_split_separates_its_rows(self, low, high):
        X = np.array([[low], [high]])
        tree = fit_cart(X, np.array([0.0, 1.0]), CartParams(max_depth=1), rng_of())
        assert tree.value.tolist() == [0.5, 0.0, 1.0]
        threshold = tree.threshold[0]
        assert low <= threshold < high
        assert threshold == (low + high) / 2 or threshold == low
        assert best_split(X, np.array([0.0, 1.0]), rng_of())[1] == threshold


class TestTraversal:
    def test_equality_routes_left(self):
        tree = fit_cart(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), CartParams(max_depth=1), rng_of())
        assert tree.threshold[0] == 0.5
        assert tree_predict(tree, np.array([0.5])) == 0.0
        assert tree_predict(tree, np.array([0.50000001])) == 1.0

    def test_path_is_a_root_to_leaf_chain(self):
        tree = fit_cart(D0_X, D0_Y, CartParams(max_depth=2), rng_of())
        path = decision_path(tree, np.array([1.0, 1.0]))
        assert path[0] == tree.root
        assert tree.is_leaf[path[-1]]
        for parent_id, child_id in zip(path, path[1:]):
            assert child_id in (tree.left[parent_id], tree.right[parent_id])

    def test_d0_predictions(self):
        tree = fit_cart(D0_X, D0_Y, CartParams(max_depth=2), rng_of())
        expected = [0.0, 0.0, 10.0, 20.0]
        for x, want in zip(D0_X, expected):
            assert tree_predict(tree, x) == want

    def test_dimension_mismatch_raises(self):
        tree = fit_cart(D0_X, D0_Y, CartParams(max_depth=2), rng_of())
        with pytest.raises(ValueError, match="2 features"):
            decision_path(tree, np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("walk", [decision_path, tree_predict])
    def test_non_finite_input_raises(self, walk, bad):
        # NaN fails every <= test and would otherwise route right unnoticed.
        tree = fit_cart(D0_X, D0_Y, CartParams(max_depth=2), rng_of())
        with pytest.raises(ValueError, match="non-finite"):
            walk(tree, np.array([bad, 0.0]))
