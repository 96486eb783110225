import copy
import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostcontrib import (
    CartParams,
    DataError,
    Dataset,
    Ensemble,
    GbdtParams,
    ModelFormatError,
    batch_explain,
    feature_contributions,
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
from boostcontrib import boosting, cart
from boostcontrib.experiments import OUTLIER_CONFIG
from boostcontrib.kernel import FlatForest
from conftest import D0_X, build_synthetic, random_ensemble, tree_of


TREE_FIELDS = ("feature", "threshold", "left", "right", "value", "n_samples")


def json_dump_text(ens) -> str:
    """The model file as json.dump(payload, fh, indent=2) writes it, with one
    dict per node."""
    trees = []
    for tree in ens.trees:
        nodes = []
        for i in range(tree.value.size):
            split = None if tree.is_leaf[i] else (
                int(tree.feature[i]), float(tree.threshold[i]), int(tree.left[i]), int(tree.right[i])
            )
            nodes.append({
                "id": i, "value": float(tree.value[i]), "n_samples": int(tree.n_samples[i]),
                **dict(zip(("feature", "threshold", "left", "right"), split or (None,) * 4)),
            })
        trees.append({"root": int(tree.root), "nodes": nodes})
    payload = {
        "format_version": 1, "f0": ens.f0, "learning_rate": ens.learning_rate,
        "feature_names": list(ens.feature_names), "trees": trees,
    }
    return json.dumps(payload, indent=2) + "\n"


# Single-fault trees, as (mangle of a node list, message). In d0_one_tree,
# root 0 splits into leaf 1 and node 2, which splits into leaves 3 and 4.
MALFORMED_TREES = [
    (lambda nodes: nodes[0].update(left=0), "node id 0 is reached twice"),
    (lambda nodes: nodes[2].update(left=0), "node id 0 is reached twice"),
    (lambda nodes: nodes[2].update(left=1), "node id 1 is reached twice"),
    # Every node has one parent, but nodes 2 and 4 hang off a loop.
    (
        lambda nodes: (nodes[0].update(right=3), nodes[2].update(left=2)),
        "node id 2 is not reached",
    ),
    (
        lambda nodes: nodes[2].update(
            feature=None, threshold=None, left=None, right=None
        ),
        "node id 3 is not reached",
    ),
    (lambda nodes: nodes[0].update(id=[0]), r"node id must be an integer, got \[0\]"),
    (lambda nodes: nodes[0].update(id=True), "node id must be an integer"),
    (lambda nodes: nodes[0].update(left=[1]), r"unknown node id \[1\]"),
    (lambda nodes: nodes[1].update(value=[1]), r"node value must be a number, got \[1\]"),
    (lambda nodes: nodes[1].update(value="1.5"), "node value must be a number"),
    (lambda nodes: nodes[1].update(value=float("nan")), "node value must be finite"),
    (lambda nodes: nodes[0].update(threshold=[0.5]), "split threshold must be a number"),
    (
        lambda nodes: nodes[0].update(threshold=float("-inf")),
        "split threshold must be finite",
    ),
    (lambda nodes: nodes[1].update(n_samples=[2]), "node n_samples must be an integer"),
    (lambda nodes: nodes[1].update(n_samples=True), "node n_samples must be an integer"),
    (lambda nodes: nodes[1].update(n_samples=0), "node n_samples must be positive"),
    (lambda nodes: nodes[1].update(n_samples=10**400), "node n_samples must be finite"),
    (lambda nodes: nodes[1].update(n_samples=2**63), "n_samples must be .* fit in 64 bits"),
    (lambda nodes: nodes[0].update(feature=[0]), "split feature must be an integer"),
    (lambda nodes: nodes[0].update(feature=0.0), "split feature must be an integer"),
    (
        lambda nodes: nodes[0].update(n_samples=5),
        r"n_samples 5 is not the sum of its children's \(2 \+ 2\)",
    ),
]
MALFORMED_TREE_IDS = [
    "self-loop", "cycle", "shared-child", "loop-apart-from-root", "orphan", "list-id",
    "bool-id", "list-child", "list-value", "string-value", "nan-value", "list-threshold",
    "inf-threshold", "list-n_samples", "bool-n_samples", "zero-n_samples", "huge-n_samples",
    "int64-n_samples", "list-feature", "float-feature", "unbalanced-n_samples",
]


def trees_equal(a, b) -> bool:
    return a.root == b.root and all(
        np.array_equal(getattr(a, field), getattr(b, field)) for field in TREE_FIELDS
    )


class TestFit:
    def test_f0_is_target_mean(self, d0_two_trees):
        assert d0_two_trees.f0 == 7.5

    def test_one_tree_full_rate_reproduces_pure_leaves(self, d0_one_tree):
        # depth 2 fully separates D0, so the boosted model recovers y exactly
        for x, want in zip(D0_X, [0.0, 0.0, 10.0, 20.0]):
            assert gbdt_predict(d0_one_tree, x) == want

    def test_second_tree_fits_residuals(self, d0_two_trees):
        t2 = d0_two_trees.trees[1]
        assert t2.value[0] == 0.0
        assert not t2.is_leaf[0] and t2.feature[0] == 0
        assert t2.value[t2.left[0]] == -3.75
        right = t2.right[0]
        assert t2.value[right] == 3.75
        assert t2.value[t2.left[right]] == 1.25
        assert t2.value[t2.right[right]] == 6.25

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
                tree.value[_leaf(tree, x)] for x in ds.features
            ])
            running = running + ens.learning_rate * stage
            mse = float(np.mean((ds.target - running) ** 2))
            assert mse <= last + 1e-9 * max(1.0, last)
            last = mse


def _leaf(tree, x):
    node_id = tree.root
    while tree.left[node_id] != node_id:
        go_left = x[tree.feature[node_id]] <= tree.threshold[node_id]
        node_id = tree.left[node_id] if go_left else tree.right[node_id]
    return node_id


class TestPredict:
    def test_batch_matches_scalar(self, d0_two_trees):
        batch = predict_batch(d0_two_trees, D0_X)
        scalars = [gbdt_predict(d0_two_trees, x) for x in D0_X]
        assert batch.tolist() == scalars

    def test_wrong_dimension(self, d0_two_trees):
        with pytest.raises(ValueError, match="2 features"):
            gbdt_predict(d0_two_trees, np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "api, row",
        [(predict_batch, 2), (batch_explain, 2), (gbdt_predict, 0), (feature_contributions, 0)],
    )
    def test_non_finite_input_is_rejected(self, d0_two_trees, api, row, bad):
        X = D0_X.copy()
        X[2, 1] = bad
        with pytest.raises(ValueError, match=f"row {row} holds a non-finite value"):
            api(d0_two_trees, X if row else X[2])


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
        gains = node_split_gain(tree)
        assert gains[0] == 225.0
        assert gains[tree.right[0]] == 50.0

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_node_split_gain_matches_python_floats(self, seed):
        # The per-node formula in Python floats, as importance was computed
        # node by node; leaves gain exactly nothing.
        _, ens = random_ensemble(np.random.default_rng(seed))
        for tree in ens.trees:
            n, v = tree.n_samples.tolist(), tree.value.tolist()
            want = [
                0.0 if leaf else n[l] * (v[l] - v[i]) ** 2 + n[r] * (v[r] - v[i]) ** 2
                for i, (leaf, l, r) in enumerate(
                    zip(tree.is_leaf.tolist(), tree.left.tolist(), tree.right.tolist())
                )
            ]
            assert node_split_gain(tree).tobytes() == np.array(want).tobytes()

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
        for fitted, back in zip(ens.trees, loaded.trees):
            assert fitted.root == back.root
            for field in TREE_FIELDS:
                a, b = getattr(fitted, field), getattr(back, field)
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
        again = path.with_name("again.json")
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        assert path.read_text() == json_dump_text(ens)

    @pytest.mark.parametrize("names", [("x0", "x1"), ("naïve", 'q"t'), ("a,b", "\u2603 back\\slash")])
    def test_text_is_what_json_dump_writes(self, names, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 2))
        y = 3.0 * X[:, 0] + rng.normal(size=60)
        ens = fit_gbdt(Dataset(X, y, names), GbdtParams(n_estimators=4, seed=1))
        path = tmp_path / "m.json"
        save_model(ens, path)
        assert path.read_text() == json_dump_text(ens)
        loaded = load_model(path)
        save_model(loaded, path)
        assert path.read_text() == json_dump_text(loaded)

    def test_text_keeps_negative_zero(self, tmp_path):
        tree = tree_of([(-0.0, 3, 0, -0.0, 2, 1), (1e22, 2), (-0.0, 1)])
        ens = Ensemble(-0.0, 1.0, [tree], ("\u00e9",))
        path = tmp_path / "m.json"
        save_model(ens, path)
        text = path.read_text()
        assert text == json_dump_text(ens)
        assert '"f0": -0.0' in text and '"threshold": -0.0' in text and "1e+22" in text

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

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2])
    def test_load_accepts_only_the_integer_version(self, d0_one_tree, tmp_path, version):
        path = tmp_path / "m.json"
        save_model(d0_one_tree, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError) as excinfo:
            load_model(path)
        assert str(excinfo.value) == f"unknown format version {version!r}; expected 1"

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

    @pytest.mark.parametrize("mangle, message", MALFORMED_TREES, ids=MALFORMED_TREE_IDS)
    def test_load_rejects_malformed_tree(self, d0_one_tree, tmp_path, mangle, message):
        path = self._mangle(d0_one_tree, tmp_path, lambda p: mangle(p["trees"][0]["nodes"]))
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda p: p.update(f0=float("nan")), "f0 must be finite"),
            (lambda p: p.update(f0=10**400), "f0 must be finite"),
            (lambda p: p.update(f0=True), "f0 must be a number"),
            (lambda p: p.update(learning_rate="0.1"), "learning_rate must be a number"),
            (lambda p: p.update(learning_rate=float("nan")), "learning_rate must be finite"),
            (lambda p: p.update(learning_rate=0.0), r"learning_rate must be in \(0, 1\]"),
            (lambda p: p.update(learning_rate=1.5), r"learning_rate must be in \(0, 1\]"),
            (lambda p: p.update(feature_names=["f0", "f0"]), "feature_names must be unique"),
            (lambda p: p.update(trees=[]), "trees must be a non-empty list"),
            (lambda p: p.update(trees={}), "trees must be a non-empty list"),
        ],
        ids=[
            "nan-f0", "huge-f0", "bool-f0", "string-rate", "nan-rate", "zero-rate",
            "rate-above-one", "duplicate-names", "no-trees", "trees-object",
        ],
    )
    def test_load_rejects_malformed_payload(self, d0_one_tree, tmp_path, mangle, message):
        path = self._mangle(d0_one_tree, tmp_path, mangle)
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

    @pytest.mark.parametrize("mangle, message", MALFORMED_TREES, ids=MALFORMED_TREE_IDS)
    def test_fault_in_a_middle_tree_reads_as_in_a_lone_tree(
        self, d0_one_tree, tmp_path, mangle, message
    ):
        # Fields are checked over all trees' nodes at once; a fault must
        # still be named as the per-tree check named it.
        lone = self._mangle(d0_one_tree, tmp_path, lambda p: mangle(p["trees"][0]["nodes"]))
        with pytest.raises(ModelFormatError, match=message) as alone:
            load_model(lone)

        def plant(payload):
            payload["trees"] = [copy.deepcopy(payload["trees"][0]) for _ in range(3)]
            mangle(payload["trees"][1]["nodes"])

        with pytest.raises(ModelFormatError) as middle:
            load_model(self._mangle(d0_one_tree, tmp_path, plant))
        assert str(middle.value) == str(alone.value)

    def test_ids_name_nodes_within_their_tree(self, d0_dataset, tmp_path):
        # Tree 0 names its nodes 10, 5, 7 and tree 1 names them 5, 10, 7,
        # listed in reverse.
        params = GbdtParams(n_estimators=2, learning_rate=0.5, cart=CartParams(max_depth=1), seed=0)
        model = fit_gbdt(d0_dataset, params)
        assert [tree.value.size for tree in model.trees] == [3, 3]
        names = ({0: 10, 1: 5, 2: 7}, {0: 5, 1: 10, 2: 7})

        def rename(payload):
            for tree, name in zip(payload["trees"], names):
                tree["root"] = name[tree["root"]]
                for node in tree["nodes"]:
                    for key in ("id", "left", "right"):
                        if node[key] is not None:
                            node[key] = name[node[key]]
            payload["trees"][1]["nodes"].reverse()

        canonical = tmp_path / "canonical.json"
        save_model(model, canonical)
        renamed = load_model(self._mangle(model, tmp_path, rename))
        X = np.vstack([D0_X, np.random.default_rng(0).uniform(-1, 2, size=(50, 2))])
        assert predict_batch(renamed, X).tobytes() == predict_batch(load_model(canonical), X).tobytes()


class TestStageUpdate:
    """fit_gbdt reads each row's leaf value off the grower's partition. At
    every stage the residuals handed to the grower must be, bit for bit,
    those that routing the rows through each fitted tree with the kernel
    gives."""

    @staticmethod
    def assert_residuals_match_the_kernel_update(ds, params):
        received, grow = [], boosting._grow

        def spy(residual, *args):
            received.append(residual.copy())
            return grow(residual, *args)

        with mock.patch.object(boosting, "_grow", spy):
            model = fit_gbdt(ds, params)
        assert len(received) == len(model.trees)
        running = np.full(ds.n_samples, model.f0)
        for residual, tree in zip(received, model.trees):
            assert residual.tobytes() == (ds.target - running).tobytes()
            flat = FlatForest([tree], model.learning_rate)
            for rows, ids in flat.paths(ds.features):
                running[rows] = running[rows] + model.learning_rate * flat.leaf_sum(ids[:, -1])

    def test_outlier_study_data(self, synthetic_500x8):
        train, _ = train_test_split(synthetic_500x8, OUTLIER_CONFIG.test_fraction, 0)
        sample = make_outlier(train, "x0")
        poisoned = Dataset(
            np.vstack([train.features, sample.x_fake]),
            np.append(train.target, sample.y_fake),
            train.feature_names,
        )
        self.assert_residuals_match_the_kernel_update(poisoned, OUTLIER_CONFIG.gbdt_params(0))

    def test_tied_and_duplicated_columns(self):
        # Few distinct values, a duplicated column and integer targets: tied
        # candidates that split a node's rows differently hold the node.
        rng = np.random.default_rng(0)
        X = rng.integers(0, 4, size=(60, 3)).astype(np.float64)
        data = Dataset(
            np.column_stack([X, X[:, 0]]), rng.integers(0, 3, size=60).astype(np.float64),
            ("a", "b", "c", "a2"),
        )
        params = GbdtParams(n_estimators=8, learning_rate=1.0, cart=CartParams(max_depth=6), seed=2)
        grow_held, held = cart._Grower._grow_held, []

        def spy(self, record, pick):
            held.append(record)
            return grow_held(self, record, pick)

        with mock.patch.object(cart._Grower, "_grow_held", spy):
            self.assert_residuals_match_the_kernel_update(data, params)
        assert held

    def test_depth_one(self):
        ds = build_synthetic(n=200, d=4, seed=5)
        params = GbdtParams(n_estimators=20, cart=CartParams(max_depth=1), seed=0)
        self.assert_residuals_match_the_kernel_update(ds, params)


class TestOverflowingTargets:
    """A fit whose residual sums could overflow is refused before its trees
    grow; one whose sums stay finite fits as it always did."""

    PARAMS = GbdtParams(n_estimators=3, cart=CartParams(max_depth=4))

    @staticmethod
    def signed_targets(magnitude):
        # The sign of x0, plus 1% of x1, times the magnitude.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(1000, 3))
        return Dataset(X, magnitude * (np.sign(X[:, 0]) + 0.01 * X[:, 1]), ("a", "b", "c"))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_residual_sums_are_refused(self):
        # n * sum(r * r) is about 1e310: the fit once gave one-leaf trees.
        with pytest.raises(DataError, match="targets too large to fit"):
            fit_gbdt(self.signed_targets(1e152), self.PARAMS)

    @pytest.mark.filterwarnings("error")
    def test_finite_residual_sums_fit_as_before(self, tmp_path):
        # n * sum(r * r) is about 1e306. Pinned before the refusal existed.
        model = fit_gbdt(self.signed_targets(1e150), self.PARAMS)
        assert [int(tree.is_leaf.sum()) for tree in model.trees] == [16, 16, 16]
        assert TestPinnedModels.saved_sha256(model, tmp_path) == (
            "e24b42a1b7985e882e80436aef5a2613a36b2386603aac48e85793d0ad7f982c"
        )

    @pytest.mark.filterwarnings("error")
    def test_one_overflowing_fit_refuses_its_group(self):
        datasets = [self.signed_targets(1.0), self.signed_targets(1e152)]
        with pytest.raises(DataError, match="targets too large to fit"):
            boosting._fit_group(datasets, self.PARAMS, [0, 1])


def group_data(data_seed, sizes, d, slopes, decimals):
    """One dataset per entry of `sizes`: rounded features, so candidates tie,
    targets that are integers when decimals is 0, so tied candidates often
    split a node's rows differently and hold the node, and a last column
    that is 2 * slope * (first column) + 1 where the fit's slope is not 0:
    an increasing copy in some fits, a decreasing one, whose ties swap the
    children, in others."""
    rng = np.random.default_rng(data_seed)
    datasets = []
    for n, slope in zip(sizes, slopes):
        X = np.round(rng.normal(size=(n, d)) * 2.0, decimals)
        if slope:
            X[:, -1] = 2.0 * slope * X[:, 0] + 1.0
        y = np.round(X[:, 0] + rng.normal(size=n), decimals)
        datasets.append(Dataset(X, y, tuple(f"x{j}" for j in range(d))))
    return datasets


class TestGroupFit:
    """Fits grown in lockstep, as the studies grow them, must save the bytes
    that each fit grown on its own saves."""

    @staticmethod
    def assert_equals_separate_fits(group, datasets, params, seeds, tmp_path):
        assert len(group) == len(datasets)
        for ds, seed, model in zip(datasets, seeds, group):
            alone = fit_gbdt(ds, GbdtParams(params.n_estimators, params.learning_rate, params.cart, seed))
            save_model(model, tmp_path / "group.json")
            save_model(alone, tmp_path / "alone.json")
            assert (tmp_path / "group.json").read_bytes() == (tmp_path / "alone.json").read_bytes()

    @given(case_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_group_fit_equals_separate_fits(self, tmp_path_factory, case_seed):
        # 1-4 fits of 1-40 rows, depth 1-15, non-default stopping rules and
        # seeds drawn from three, so some fits share theirs.
        rng = np.random.default_rng(case_seed)
        k = int(rng.integers(1, 5))
        cart_params = CartParams(
            max_depth=int(rng.integers(1, 16)),
            min_samples_leaf=int(rng.integers(1, 4)),
            min_samples_split=int(rng.integers(2, 7)),
            min_gain=float(rng.choice([0.0, 0.01, 0.5])),
        )
        params = GbdtParams(int(rng.integers(1, 4)), learning_rate=0.5, cart=cart_params)
        datasets = group_data(
            case_seed, rng.integers(1, 41, size=k).tolist(), int(rng.integers(2, 5)),
            rng.choice([1, -1, 0], size=k).tolist(), int(rng.integers(0, 2)),
        )
        seeds = rng.integers(0, 3, size=k).tolist()
        group = boosting._fit_group(datasets, params, seeds)
        self.assert_equals_separate_fits(group, datasets, params, seeds, tmp_path_factory.mktemp("models"))

    def test_held_nodes_in_a_group(self, tmp_path):
        # Integer targets and a copy column in two of four fits, two of
        # which share a seed: some tied nodes are held until their draw.
        real, held = cart._Grower._grow_held, []

        def spy(self, record, pick):
            held.append(record)
            return real(self, record, pick)

        datasets = group_data(4, [40, 31, 40, 12], 3, [1, 0, 1, 0], 0)
        params = GbdtParams(n_estimators=4, learning_rate=1.0, cart=CartParams(max_depth=8))
        with mock.patch.object(cart._Grower, "_grow_held", spy):
            group = boosting._fit_group(datasets, params, [0, 1, 1, 2])
        assert held
        self.assert_equals_separate_fits(group, datasets, params, [0, 1, 1, 2], tmp_path)

    @pytest.mark.parametrize("pad_cells", [0, 10**9])
    def test_wide_levels_equal_separate_fits(self, pad_cells, tmp_path):
        # Five fits of 150-250 rows at depth 15, rounded columns, a copy
        # column increasing in some fits and decreasing in others, integer
        # targets: the deep levels hold more nodes than LOOP_NODES, span
        # several searches under SEARCH_CELLS and have ties that swap
        # children and ties that hold nodes.
        real_runs, real_walk, runs, swaps, held = cart._runs, cart._Grower.walk, [], [], []

        def runs_spy(sizes, d):
            cut = list(real_runs(sizes, d))
            runs.append((len(sizes), len(cut)))
            return cut

        def walk_spy(self, rngs):
            swaps.append(sum(self.swap))
            held.append(len(self.held))
            return real_walk(self, rngs)

        datasets = group_data(1, [150, 250, 200, 180, 230], 8, [1, -1, 0, 1, -1], 0)
        params = GbdtParams(n_estimators=3, learning_rate=0.5, cart=CartParams(max_depth=15))
        seeds = [0, 1, 2, 0, 1]
        with mock.patch.object(cart, "PAD_CELLS", pad_cells):
            with mock.patch.object(cart, "_runs", runs_spy), mock.patch.object(cart._Grower, "walk", walk_spy):
                group = boosting._fit_group(datasets, params, seeds)
            assert any(nodes > cart.LOOP_NODES and cut > 1 for nodes, cut in runs)
            assert sum(swaps) and sum(held)
            self.assert_equals_separate_fits(group, datasets, params, seeds, tmp_path)

    @pytest.mark.parametrize("k", [1, 3], ids=["one fit", "group"])
    def test_copy_ties_grow_with_their_level(self, k):
        # Continuous data whose only tied candidates are a column and its
        # exact or increasing copy, and the single rows a 2-row node sends
        # either way: every tie splits its node's rows into the same two
        # sets, so no node waits for its draw.
        rng = np.random.default_rng(8)
        datasets = []
        for n in (90, 70, 50)[:k]:
            X = rng.normal(size=(n, 3))
            X = np.column_stack([X, X[:, 0], 2.0 * X[:, 1] + 1.0])
            datasets.append(Dataset(X, X[:, 0] - X[:, 1] + rng.normal(size=n), ("a", "b", "c", "a2", "b2")))
        # A learning rate below 1 keeps the residuals distinct: at 1 every
        # row alone in its leaf gets residual 0, and rows that tie at 0 tie
        # candidates that split a node's rows differently.
        params = GbdtParams(n_estimators=3, learning_rate=0.1, cart=CartParams(max_depth=8))
        real_check, real_held, tied, held = cart._Grower._check_ties, cart._Grower._grow_held, [], []

        def check_spy(self, block, starts, counts, nodes, *rest):
            tied.extend(nodes)
            return real_check(self, block, starts, counts, nodes, *rest)

        def held_spy(self, record, pick):
            held.append(record)
            return real_held(self, record, pick)

        with mock.patch.object(cart._Grower, "_check_ties", check_spy), \
                mock.patch.object(cart._Grower, "_grow_held", held_spy):
            boosting._fit_group(datasets, params, list(range(k)))
        assert len(tied) > 100 and not held


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

    def test_tie_draws_on_both_sides_of_the_presort_cutoff(self, tmp_path):
        # Rounded data with a duplicated column and non-default stopping rules:
        # the fit breaks gain ties at random in nodes of 64 rows and more and
        # in smaller ones, which once took different search paths. Pinned
        # before the presorted search existed.
        ds = build_synthetic(n=400, d=4, seed=3)
        X = np.round(ds.features, 1)
        data = Dataset(
            np.column_stack([X, X[:, 1]]), np.round(ds.target, 1), ("a", "b", "c", "d", "b2")
        )
        cart = CartParams(max_depth=6, min_samples_leaf=3, min_samples_split=6, min_gain=0.01)
        params = GbdtParams(n_estimators=10, learning_rate=0.3, cart=cart, seed=7)
        assert self.saved_sha256(fit_gbdt(data, params), tmp_path) == (
            "464f338e1094399beba2355f4420e5434028cc6832a74ec5a28edb62f3f80953"
        )

    @staticmethod
    def sweep_fit(k):
        """Config k of the sweep: rounded and duplicated columns, integer
        targets, min_samples_leaf 1-5, min_gain up to 0.5, depth up to 15."""
        rng = np.random.default_rng([k, 48])
        ds = build_synthetic(n=int(rng.choice([20, 60, 150, 400])), d=int(rng.integers(1, 6)), seed=k)
        X, y = ds.features, ds.target
        decimals = int(rng.choice([-1, 0, 1]))
        if decimals >= 0:
            X = np.round(X, decimals)
        if rng.random() < 0.5:
            X = np.column_stack([X, X[:, 0]])
        if rng.random() < 0.3:
            y = np.round(y)
        cart = CartParams(
            max_depth=int(rng.choice([1, 3, 6, 15])),
            min_samples_leaf=int(rng.integers(1, 6)),
            min_samples_split=int(rng.integers(2, 9)),
            min_gain=float(rng.choice([0.0, 0.01, 0.5])),
        )
        params = GbdtParams(
            n_estimators=int(rng.integers(1, 6)),
            learning_rate=float(rng.choice([0.1, 0.5, 1.0])),
            cart=cart,
            seed=int(rng.integers(1000)),
        )
        names = tuple(f"x{j}" for j in range(X.shape[1]))
        return fit_gbdt(Dataset(X, y, names), params)

    def test_sweep_of_48_configs(self, tmp_path):
        # Pinned before the level-wise grower existed.
        digest = hashlib.sha256()
        models = [self.sweep_fit(k) for k in range(48)]
        for model in models:
            save_model(model, tmp_path / "m.json")
            digest.update((tmp_path / "m.json").read_bytes())
        carts = [model.params.cart for model in models]
        assert {c.max_depth for c in carts} == {1, 3, 6, 15}
        assert {c.min_samples_leaf for c in carts} == {1, 2, 3, 4, 5}
        assert max(c.min_gain for c in carts) == 0.5
        assert digest.hexdigest() == (
            "5f19419a1dfe8d4728f94fe1f587bc8fc2e489e4c79fdce5689214aa7ed0bf90"
        )
