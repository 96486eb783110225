import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostcontrib import (
    CartParams,
    Dataset,
    GbdtParams,
    ModelFormatError,
    feature_importance,
    fit_gbdt,
    gbdt_predict,
    load_model,
    make_outlier,
    node_split_gain,
    predict_batch,
    save_model,
    train_test_split,
)
from boostcontrib.experiments import OUTLIER_CONFIG
from conftest import D0_X, build_synthetic, random_ensemble


def trees_equal(a, b) -> bool:
    if len(a.nodes) != len(b.nodes) or a.root != b.root:
        return False
    for na, nb in zip(a.nodes, b.nodes):
        if (na.value, na.n_samples, na.left, na.right) != (
            nb.value,
            nb.n_samples,
            nb.left,
            nb.right,
        ):
            return False
        if (na.split is None) != (nb.split is None):
            return False
        if na.split is not None and na.split != nb.split:
            return False
    return True


class TestFit:
    def test_f0_is_target_mean(self, d0_two_trees):
        assert d0_two_trees.f0 == 7.5

    def test_one_tree_full_rate_reproduces_pure_leaves(self, d0_one_tree):
        # depth 2 fully separates D0, so the boosted model recovers y exactly
        for x, want in zip(D0_X, [0.0, 0.0, 10.0, 20.0]):
            assert gbdt_predict(d0_one_tree, x) == want

    def test_second_tree_fits_residuals(self, d0_two_trees):
        t2 = d0_two_trees.trees[1]
        root = t2.nodes[0]
        assert root.value == 0.0
        assert root.split.feature == 0
        assert t2.nodes[root.left].value == -3.75
        right = t2.nodes[root.right]
        assert right.value == 3.75
        assert t2.nodes[right.left].value == 1.25
        assert t2.nodes[right.right].value == 6.25

    def test_learning_rate_never_scales_f0(self, d0_two_trees):
        # 7.5 + 0.5*(-7.5) + 0.5*(-3.75), not 0.5*7.5 + ...
        assert gbdt_predict(d0_two_trees, np.array([0.0, 0.0])) == 1.875
        assert gbdt_predict(d0_two_trees, np.array([1.0, 1.0])) == 16.875

    def test_first_tree_independent_of_ensemble_size(self, d0_dataset):
        small = fit_gbdt(d0_dataset, GbdtParams(n_estimators=1, cart=CartParams(max_depth=2), seed=4))
        large = fit_gbdt(d0_dataset, GbdtParams(n_estimators=3, cart=CartParams(max_depth=2), seed=4))
        assert trees_equal(small.trees[0], large.trees[0])

    def test_same_seed_same_model(self, synthetic_500x8):
        params = GbdtParams(n_estimators=5, cart=CartParams(max_depth=3), seed=11)
        a = fit_gbdt(synthetic_500x8, params)
        b = fit_gbdt(synthetic_500x8, params)
        assert a.f0 == b.f0
        assert all(trees_equal(ta, tb) for ta, tb in zip(a.trees, b.trees))

    def test_params_recorded_on_fitted_model(self, d0_one_tree):
        assert d0_one_tree.params is not None
        assert d0_one_tree.params.n_estimators == 1

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_training_mse_non_increasing(self, seed):
        ds, ens = random_ensemble(np.random.default_rng(seed))
        running = np.full(ds.n_samples, ens.f0)
        last = float(np.mean((ds.target - running) ** 2))
        for tree in ens.trees:
            stage = np.array([
                tree.nodes[_leaf(tree, x)].value for x in ds.features
            ])
            running = running + ens.learning_rate * stage
            mse = float(np.mean((ds.target - running) ** 2))
            assert mse <= last + 1e-9 * max(1.0, last)
            last = mse


def _leaf(tree, x):
    node_id = tree.root
    while tree.nodes[node_id].split is not None:
        node = tree.nodes[node_id]
        node_id = node.left if x[node.split.feature] <= node.split.threshold else node.right
    return node_id


class TestPredict:
    def test_batch_matches_scalar(self, d0_two_trees):
        batch = predict_batch(d0_two_trees, D0_X)
        scalars = [gbdt_predict(d0_two_trees, x) for x in D0_X]
        assert batch.tolist() == scalars

    def test_wrong_dimension(self, d0_two_trees):
        with pytest.raises(ValueError, match="2 features"):
            gbdt_predict(d0_two_trees, np.array([1.0]))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_estimators"):
            GbdtParams(n_estimators=0)
        with pytest.raises(ValueError, match="learning_rate"):
            GbdtParams(n_estimators=1, learning_rate=0.0)
        with pytest.raises(ValueError, match="learning_rate"):
            GbdtParams(n_estimators=1, learning_rate=1.5)
        with pytest.raises(ValueError, match="seed"):
            GbdtParams(n_estimators=1, seed=-1)
        with pytest.raises(ValueError, match="max_depth"):
            CartParams(max_depth=0)


class TestImportance:
    def test_d0_exact(self, d0_one_tree):
        imp = feature_importance(d0_one_tree)
        assert imp.tolist() == [225.0 / 275.0, 50.0 / 275.0]

    def test_node_split_gain_matches_sse_bookkeeping(self, d0_one_tree):
        tree = d0_one_tree.trees[0]
        root = tree.nodes[0]
        assert node_split_gain(tree, root) == 225.0
        assert node_split_gain(tree, tree.nodes[root.right]) == 50.0

    def test_single_leaf_model_has_no_importance(self):
        from boostcontrib import Dataset

        ds = Dataset(np.array([[0.0], [1.0]]), np.array([3.0, 3.0]), ("a",))
        ens = fit_gbdt(ds, GbdtParams(n_estimators=1))
        with pytest.raises(ValueError, match="no splits"):
            feature_importance(ens)

    def test_survives_round_trip_exactly(self, d0_two_trees, tmp_path):
        path = tmp_path / "m.json"
        save_model(d0_two_trees, path)
        assert feature_importance(load_model(path)).tolist() == feature_importance(
            d0_two_trees
        ).tolist()


class TestPersistence:
    def test_schema(self, d0_one_tree, tmp_path):
        path = tmp_path / "m.json"
        save_model(d0_one_tree, path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 1
        assert payload["f0"] == 7.5
        assert payload["feature_names"] == ["f0", "f1"]
        node = payload["trees"][0]["nodes"][0]
        assert set(node) == {"id", "value", "n_samples", "feature", "threshold", "left", "right"}
        leaf = payload["trees"][0]["nodes"][1]
        assert leaf["feature"] is None and leaf["left"] is None

    def test_saves_are_byte_identical(self, d0_two_trees, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(d0_two_trees, p1)
        save_model(d0_two_trees, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_has_no_fit_metadata(self, d0_one_tree, tmp_path):
        path = tmp_path / "m.json"
        save_model(d0_one_tree, path)
        loaded = load_model(path)
        assert loaded.params is None
        assert all(n.sse is None for t in loaded.trees for n in t.nodes)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_predictions_bit_exact(self, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        ds, ens = random_ensemble(rng)
        path = tmp_path_factory.mktemp("models") / "m.json"
        save_model(ens, path)
        loaded = load_model(path)
        probes = rng.uniform(-3, 3, size=(20, ds.n_features))
        for x in probes:
            assert gbdt_predict(loaded, x) == gbdt_predict(ens, x)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError, match="cannot read"):
            load_model(tmp_path / "nope.json")

    def test_load_garbage(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError, match="malformed"):
            load_model(path)

    def test_load_rejects_future_version(self, d0_one_tree, tmp_path):
        path = tmp_path / "m.json"
        save_model(d0_one_tree, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="unknown format version 99"):
            load_model(path)

    def test_load_rejects_missing_key(self, d0_one_tree, tmp_path):
        path = tmp_path / "m.json"
        save_model(d0_one_tree, path)
        payload = json.loads(path.read_text())
        del payload["f0"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="missing top-level key 'f0'"):
            load_model(path)

    def _mangle(self, ens, tmp_path, fn):
        path = tmp_path / "m.json"
        save_model(ens, path)
        payload = json.loads(path.read_text())
        fn(payload)
        path.write_text(json.dumps(payload))
        return path

    def test_load_rejects_duplicate_node_id(self, d0_one_tree, tmp_path):
        path = self._mangle(
            d0_one_tree, tmp_path, lambda p: p["trees"][0]["nodes"][1].update(id=0)
        )
        with pytest.raises(ModelFormatError, match="duplicate node id"):
            load_model(path)

    def test_load_rejects_dangling_child(self, d0_one_tree, tmp_path):
        path = self._mangle(
            d0_one_tree, tmp_path, lambda p: p["trees"][0]["nodes"][0].update(left=42)
        )
        with pytest.raises(ModelFormatError, match="unknown node id 42"):
            load_model(path)

    def test_load_rejects_half_split_node(self, d0_one_tree, tmp_path):
        path = self._mangle(
            d0_one_tree, tmp_path, lambda p: p["trees"][0]["nodes"][0].update(threshold=None)
        )
        with pytest.raises(ModelFormatError, match="internal node needs"):
            load_model(path)

    def test_load_rejects_feature_out_of_range(self, d0_one_tree, tmp_path):
        path = self._mangle(
            d0_one_tree, tmp_path, lambda p: p["trees"][0]["nodes"][0].update(feature=7)
        )
        with pytest.raises(ModelFormatError, match="feature 7 out of range"):
            load_model(path)

    # d0_one_tree: root 0 splits into leaf 1 and node 2, which splits into
    # leaves 3 and 4.
    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda nodes: nodes[0].update(left=0), "node id 0 is reached twice"),
            (lambda nodes: nodes[2].update(left=0), "node id 0 is reached twice"),
            (lambda nodes: nodes[2].update(left=1), "node id 1 is reached twice"),
            (
                lambda nodes: nodes[2].update(
                    feature=None, threshold=None, left=None, right=None
                ),
                "node id 3 is not reached",
            ),
            (lambda nodes: nodes[0].update(id=[0]), r"node id must be an integer, got \[0\]"),
            (lambda nodes: nodes[0].update(id=True), "node id must be an integer"),
            (lambda nodes: nodes[0].update(left=[1]), r"unknown node id \[1\]"),
        ],
        ids=["self-loop", "cycle", "shared-child", "orphan", "list-id", "bool-id", "list-child"],
    )
    def test_load_rejects_malformed_tree(self, d0_one_tree, tmp_path, mangle, message):
        path = self._mangle(d0_one_tree, tmp_path, lambda p: mangle(p["trees"][0]["nodes"]))
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_load_accepts_permuted_node_order(self, d0_one_tree, tmp_path):
        # ids are names, not positions: reversing the node list is harmless
        path = self._mangle(
            d0_one_tree, tmp_path, lambda p: p["trees"][0]["nodes"].reverse()
        )
        loaded = load_model(path)
        for x, want in zip(D0_X, [0.0, 0.0, 10.0, 20.0]):
            assert gbdt_predict(loaded, x) == want


class TestPinnedModels:
    """Saved model bytes must not change when fitting code is reworked."""

    @staticmethod
    def saved_sha256(ens, tmp_path) -> str:
        path = tmp_path / "m.json"
        save_model(ens, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_hundred_depth4_trees(self, tmp_path):
        ds = build_synthetic(n=2000, d=10, seed=0)
        params = GbdtParams(n_estimators=100, cart=CartParams(max_depth=4), seed=0)
        assert self.saved_sha256(fit_gbdt(ds, params), tmp_path) == (
            "3fd052feb916747dd67352215dc1176f7335e0cdb5814c7bca218e8a3f49023b"
        )

    def test_depth15_outlier_fit(self, synthetic_500x8, tmp_path):
        train, _ = train_test_split(synthetic_500x8, OUTLIER_CONFIG.test_fraction, 0)
        sample = make_outlier(train, "x0")
        poisoned = Dataset(
            np.vstack([train.features, sample.x_fake]),
            np.append(train.target, sample.y_fake),
            train.feature_names,
        )
        model = fit_gbdt(poisoned, OUTLIER_CONFIG.gbdt_params(0))
        assert self.saved_sha256(model, tmp_path) == (
            "70da22a01f130208141b4b5499e0f6b4f5d1ccbca573f11f80debee05211e0f9"
        )
