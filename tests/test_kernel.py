"""The flat-array batch kernel against the oracle.

Every quantity the kernel produces must equal its reference bit for bit:
contributions and bias against the oracle's descent, predictions
against f0 + lr * (leaf values added tree by tree, each read off the one
oracle leaf region holding the row), and the batched per-edge views
against their single-row forms. The single-tree `decision_path` and
`tree_predict` are batches of one on the kernel, checked against the same
regions; a hand-built non-tree is refused, never walked.
"""

import ast
import inspect
import json
import os
import signal
import sys
import tracemalloc
from contextlib import contextmanager
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostcontrib import (
    CartParams,
    Dataset,
    Ensemble,
    GbdtParams,
    batch_explain,
    cart,
    cli,
    decision_contributions,
    decision_path,
    decision_space,
    fit_gbdt,
    iter_decision_contributions,
    iter_decision_spaces,
    load_model,
    predict_batch,
    save_model,
    tree_predict,
)
from boostcontrib import kernel
from boostcontrib.contrib import _explain_arrays
from boostcontrib.oracle import enumerate_leaf_regions, naive_contributions
from conftest import D0_X, D0_Y, build_synthetic, random_ensemble, region_index, region_leaf_values, tree_of


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def reference_predictions(ens, X) -> np.ndarray:
    acc = np.zeros(len(X))
    for tree in ens.trees:
        acc += region_leaf_values(tree, X)
    return ens.f0 + ens.learning_rate * acc


def rows_with_ties(rng, ens, n_rows: int) -> np.ndarray:
    """Random rows, every other one moved exactly onto some split threshold."""
    X = rng.normal(size=(n_rows, ens.n_features))
    splits = [
        split
        for tree in ens.trees
        for split in zip(tree.feature[~tree.is_leaf], tree.threshold[~tree.is_leaf])
    ]
    if splits:
        for i in range(0, n_rows, 2):
            feature, threshold = splits[int(rng.integers(len(splits)))]
            X[i, feature] = threshold
    return X


@given(seed=st.integers(0, 100_000), n_rows=st.sampled_from([1, 2, 41]))
@settings(max_examples=40, deadline=None)
def test_kernel_is_bit_equal_to_references(seed, n_rows):
    rng = np.random.default_rng(seed)
    _, ens = random_ensemble(rng)
    X = rows_with_ties(rng, ens, n_rows)
    predictions = predict_batch(ens, X)
    explanations = batch_explain(ens, X)
    assert len(explanations) == n_rows
    for x, prediction, e, want in zip(X, predictions, explanations, reference_predictions(ens, X)):
        bias, contributions = naive_contributions(ens, x)
        assert bits(e.bias) == bits(bias)
        assert bits([e.contributions[n] for n in ens.feature_names]) == bits(contributions)
        assert bits(prediction) == bits(want)
        assert bits(e.prediction) == bits(want)


@given(seed=st.integers(0, 100_000), n_rows=st.sampled_from([1, 17]))
@settings(max_examples=25, deadline=None)
def test_batched_decisions_equal_single_rows(seed, n_rows):
    rng = np.random.default_rng(seed)
    _, ens = random_ensemble(rng)
    X = rows_with_ties(rng, ens, n_rows)
    assert list(iter_decision_contributions(ens, X)) == [
        decision_contributions(ens, x) for x in X
    ]
    assert list(iter_decision_spaces(ens, X)) == [decision_space(ens, x) for x in X]


def descended_records(ens, x) -> list[tuple]:
    """The fields of x's decision records from a descent of each tree's own
    arrays, root to leaf, written without the kernel."""
    records = []
    for t, tree in enumerate(ens.trees):
        node, step = tree.root, 0
        while not tree.is_leaf[node]:
            feature, threshold = int(tree.feature[node]), float(tree.threshold[node])
            went_left = bool(x[feature] <= threshold)
            child = int(tree.left[node] if went_left else tree.right[node])
            residue = float(tree.value[child] - tree.value[node])
            records.append((t, step, feature, threshold, "left" if went_left else "right", residue, ens.learning_rate * residue))
            node, step = child, step + 1
    return records


def float_bits(fields) -> tuple:
    return tuple(v.hex() if isinstance(v, float) else v for v in fields)


@pytest.mark.parametrize("block_node_ids", [kernel.BLOCK_NODE_IDS, 1])
@given(seed=st.integers(0, 100_000), n_rows=st.sampled_from([1, 17]))
@settings(max_examples=25, deadline=None)
def test_records_equal_an_independent_descent(block_node_ids, seed, n_rows):
    rng = np.random.default_rng(seed)
    _, ens = random_ensemble(rng)
    X = rows_with_ties(rng, ens, n_rows)
    with mock.patch.object(kernel, "BLOCK_NODE_IDS", block_node_ids):
        records = [[float_bits(astuple(r)) for r in row] for row in iter_decision_contributions(ens, X)]
    assert records == [list(map(float_bits, descended_records(ens, x))) for x in X]


def test_threshold_ties_route_left():
    rng = np.random.default_rng(3)
    for _ in range(20):
        _, ens = random_ensemble(rng)
        for tree_index, tree in enumerate(ens.trees):
            root = tree.root
            if tree.is_leaf[root]:
                continue
            x = rng.normal(size=ens.n_features)
            x[tree.feature[root]] = tree.threshold[root]
            first = next(
                r for r in decision_contributions(ens, x) if r.tree_index == tree_index
            )
            assert first.step == 0 and first.direction == "left"


def test_row_blocks_do_not_change_results(monkeypatch):
    rng = np.random.default_rng(11)
    _, ens = random_ensemble(rng, max_trees=6)
    X = rows_with_ties(rng, ens, 30)
    whole = (
        predict_batch(ens, X),
        batch_explain(ens, X),
        list(iter_decision_contributions(ens, X)),
        list(iter_decision_spaces(ens, X)),
    )
    # One row per block, so every row is routed in a block of its own.
    monkeypatch.setattr(kernel, "BLOCK_NODE_IDS", 1)
    blocked = (
        predict_batch(ens, X),
        batch_explain(ens, X),
        list(iter_decision_contributions(ens, X)),
        list(iter_decision_spaces(ens, X)),
    )
    assert bits(blocked[0]) == bits(whole[0])
    assert blocked[1:] == whole[1:]


def test_contributions_are_floats_when_no_row_takes_an_edge():
    # No row takes a step, so there is no step to stack, and np.bincount
    # over no edge at all would return int64.
    ens = Ensemble(0.5, 0.1, kernel.FlatForest.of([tree_of([(1.0, 3)]), tree_of([(2.0, 3)])], 0.1), ("a",))
    _bias, contributions, _predictions = _explain_arrays(ens, np.zeros((2, 1)))
    assert contributions.dtype == np.float64 and contributions.shape == (2, 1)
    assert bits(contributions) == bits([[0.0], [0.0]])


def test_empty_batch(d0_two_trees):
    X = np.empty((0, 2))
    assert predict_batch(d0_two_trees, X).shape == (0,)
    assert batch_explain(d0_two_trees, X) == []


def test_compile_rejects_a_cycle():
    # Node 1's right child points back at the root.
    tree = tree_of([(0.0, 3, 0, 0.5, 1, 2), (1.0, 2, 0, 0.2, 2, 0), (2.0, 1)])
    with pytest.raises(ValueError, match="do not form trees"):
        kernel.FlatForest.of([tree], 0.1)


def chain(depth: int):
    """Internal node k < depth tests x <= -k; its left child is node k + 1,
    its right child leaf depth + 1 + k. Node depth is the deepest leaf."""
    splits = [(float(k % 7), 2, 0, float(-k), k + 1, depth + 1 + k) for k in range(depth)]
    leaves = [(float(k % 5), 1) for k in range(depth + 1)]
    return tree_of(splits + leaves)


CHAIN = chain(3000)


def permuted_model(rng, ens, directory):
    """ens saved and loaded back with each tree's node ids renamed at random
    and its nodes shuffled, the root listed last."""
    path = directory / "model.json"
    save_model(ens, path)
    payload = json.loads(path.read_text())
    for tree in payload["trees"]:
        name = dict(enumerate((rng.permutation(len(tree["nodes"])) + 3).tolist()))
        for node in tree["nodes"]:
            for key in ("id", "left", "right"):
                node[key] = name.get(node[key])
        tree["root"] = name[tree["root"]]
        rng.shuffle(tree["nodes"])
        tree["nodes"].sort(key=lambda node: node["id"] == tree["root"])
    path.write_text(json.dumps(payload))
    return load_model(path)


def assert_routes_as_regions(tree, X):
    """decision_path is a root-to-leaf chain whose intersected splits are
    the oracle region holding the row, and tree_predict is its value."""
    lower, upper, value = enumerate_leaf_regions(tree)
    for x, region in zip(X, region_index(lower, upper, X)):
        path = decision_path(tree, x)
        assert path[0] == tree.root and tree.is_leaf[path[-1]]
        low, high = np.full(tree.n_features, -np.inf), np.full(tree.n_features, np.inf)
        for parent, child in zip(path, path[1:]):
            feature, threshold = tree.feature[parent], tree.threshold[parent]
            if child == tree.left[parent]:
                high[feature] = min(threshold, high[feature])  # a tie of zeros keeps the threshold's, as the oracle does
            else:
                assert child == tree.right[parent]
                low[feature] = max(threshold, low[feature])
        assert bits(low) == bits(lower[region]) and bits(high) == bits(upper[region])
        assert bits(tree_predict(tree, x)) == bits(value[region])


@pytest.mark.parametrize("case", ["fitted", "loaded", "leaf", "chain"])
@given(seed=st.integers(0, 100_000))
@settings(max_examples=15, deadline=None)
def test_single_tree_routing_matches_the_oracle_regions(case, seed, tmp_path_factory):
    rng = np.random.default_rng(seed)
    if case == "chain":
        trees = [CHAIN]
        X = np.concatenate([-rng.integers(0, 3000, size=(1, 1)), rng.uniform(-3100, 10, size=(1, 1))])
    elif case == "leaf":
        d = int(rng.integers(1, 4))
        trees = [tree_of([(float(rng.normal()), 3)], n_features=d)]
        X = rng.normal(size=(3, d))
    else:
        _, ens = random_ensemble(rng)
        X = rows_with_ties(rng, ens, 6)
        if case == "loaded":
            loaded = permuted_model(rng, ens, tmp_path_factory.mktemp("permuted"))
            assert all(tree.root == tree.value.size - 1 for tree in loaded.trees)
            assert bits(predict_batch(loaded, X)) == bits(predict_batch(ens, X))
            ens = loaded
        trees = ens.trees
    for tree in trees:
        assert_routes_as_regions(tree, X)


FOREST_ARRAYS = (
    "feature", "threshold", "child", "value", "n_samples", "starts", "roots", "tree", "node_depth", "parent", "residue",
)
TREE_ARRAYS = ("feature", "threshold", "left", "right", "value", "n_samples")


def same_array(a, b) -> bool:
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("case", ["fitted", "loaded", "leaf", "chain"])
@given(seed=st.integers(0, 100_000))
@settings(max_examples=8, deadline=None)
def test_the_model_is_stored_in_one_layout(case, seed, tmp_path_factory):
    # Fit, load and a tree list concatenated all give the same forest; the
    # trees cut from a loaded forest are the fitted ones; a loaded forest
    # saves to the bytes it was loaded from.
    rng = np.random.default_rng(seed)
    if case == "chain":
        # Internal node k holds the 3001 - k leaves below it, as load requires.
        counts = np.concatenate([np.arange(3001, 1, -1), np.ones(3001, dtype=np.int64)])
        ens = Ensemble(0.0, 1.0, kernel.FlatForest.of([replace(CHAIN, n_samples=counts)], 1.0), ("x0",))
    elif case == "leaf":
        d = int(rng.integers(1, 4))
        trees = [tree_of([(float(rng.normal()), 3)], n_features=d) for _ in range(int(rng.integers(1, 4)))]
        ens = Ensemble(float(rng.normal()), 0.5, kernel.FlatForest.of(trees, 0.5), tuple(f"x{j}" for j in range(d)))
    else:
        _, ens = random_ensemble(rng)
        if case == "loaded":
            ens = permuted_model(rng, ens, tmp_path_factory.mktemp("permuted"))
    path = tmp_path_factory.mktemp("layout") / "model.json"
    save_model(ens, path)
    loaded = load_model(path)
    for model in (ens, loaded):
        rebuilt = kernel.FlatForest.of(model.trees, model.learning_rate)
        for name in FOREST_ARRAYS:
            assert same_array(getattr(rebuilt, name), getattr(model.flat, name)), name
        assert (rebuilt.depth, rebuilt.learning_rate) == (model.flat.depth, model.flat.learning_rate)
    assert len(loaded.trees) == len(ens.trees)
    for fitted, back in zip(ens.trees, loaded.trees):
        assert fitted.root == back.root
        assert all(same_array(getattr(fitted, name), getattr(back, name)) for name in TREE_ARRAYS)
    again = path.with_name("again.json")
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_load_checks_the_nodes_once_and_builds_no_tree(monkeypatch, tmp_path, d0_two_trees):
    path = tmp_path / "model.json"
    save_model(d0_two_trees, path)
    checks, trees = [], []
    node_depths, tree_init = kernel.node_depths, cart.Tree.__init__
    monkeypatch.setattr(kernel, "node_depths", lambda *args: checks.append(args) or node_depths(*args))
    monkeypatch.setattr(cart.Tree, "__init__", lambda self, *args, **kw: trees.append(args) or tree_init(self, *args, **kw))
    model = load_model(path)
    predict_batch(model, D0_X)
    _explain_arrays(model, D0_X)
    assert (len(checks), trees) == (1, [])


@contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the block once it has run `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


NON_TREES = {
    # Node 1's right child points back at the root.
    "cycle": [(0.0, 3, 0, 0.5, 1, 2), (1.0, 2, 0, 0.2, 2, 0), (2.0, 1)],
    # Nodes 1 and 2 both have nodes 3 and 4 as children.
    "shared-subtree": [
        (0.0, 4, 0, 0.5, 1, 2), (1.0, 2, 0, 0.2, 3, 4), (2.0, 2, 0, 0.8, 3, 4), (3.0, 1), (4.0, 1),
    ],
    # Node 3 has no parent.
    "orphan": [(0.0, 2, 0, 0.5, 1, 2), (1.0, 1), (2.0, 1), (3.0, 1)],
}


@pytest.mark.parametrize("walk", [decision_path, tree_predict])
@pytest.mark.parametrize("nodes", NON_TREES.values(), ids=NON_TREES)
def test_a_non_tree_is_refused_not_walked(walk, nodes):
    with time_limit(5), pytest.raises(ValueError, match="do not form trees"):
        walk(tree_of(nodes), np.array([0.3]))


def test_single_tree_functions_are_batches_of_one(monkeypatch):
    shapes = []
    levels = kernel.FlatForest._levels

    def spy(self, x, steps=None):
        shapes.append(x.shape)
        return levels(self, x, steps)

    monkeypatch.setattr(kernel.FlatForest, "_levels", spy)
    tree = tree_of([(0.0, 2, 0, 0.5, 1, 2), (-1.0, 1), (1.0, 1)])
    assert decision_path(tree, np.array([0.5])) == [0, 1]
    assert tree_predict(tree, np.array([0.7])) == 1.0
    assert shapes == [(1, 1), (1, 1)]


def chain_rows(rng, n_rows: int) -> np.ndarray:
    """Rows that leave the CHAIN at every depth, from the root to the bottom."""
    return rng.uniform(-3100, 10, size=(n_rows, 1))


@pytest.mark.parametrize("block_node_ids", [kernel.BLOCK_NODE_IDS, 1])
@pytest.mark.parametrize("case", ["fitted", "loaded", "leaf", "chain"])
@given(seed=st.integers(0, 100_000))
@settings(max_examples=8, deadline=None)
def test_the_leaf_walk_ends_where_the_paths_end(case, block_node_ids, seed, tmp_path_factory):
    rng = np.random.default_rng(seed)
    if case == "chain":
        ens = Ensemble(0.0, 1.0, kernel.FlatForest.of([CHAIN], 1.0), ("x0",))
    elif case == "leaf":
        d = int(rng.integers(1, 4))
        trees = [tree_of([(float(rng.normal()), 3)], n_features=d) for _ in range(int(rng.integers(1, 4)))]
        ens = Ensemble(float(rng.normal()), 0.5, kernel.FlatForest.of(trees, 0.5), tuple(f"x{j}" for j in range(d)))
    else:
        _, ens = random_ensemble(rng)
        if case == "loaded":
            ens = permuted_model(rng, ens, tmp_path_factory.mktemp("permuted"))
    flat = ens.flat
    n_trees = len(ens.trees)
    with mock.patch.object(kernel, "BLOCK_NODE_IDS", block_node_ids):
        # Three blocks of the leaf walk, the last of one row.
        n_rows = 2 * max(1, block_node_ids // n_trees) + 1
        # A chain's rows repeat, so that the oracle below tests each distinct row once.
        X = chain_rows(rng, 4096)[rng.integers(4096, size=n_rows)] if case == "chain" else rows_with_ties(rng, ens, n_rows)
        reached = np.full((n_trees, n_rows), -1)
        blocks = 0
        for rows, leaves in flat.leaves(X):
            reached[:, rows] = leaves
            blocks += 1
        # Three blocks of explanation's walk, whose blocks are smaller.
        head = X[: 2 * max(1, block_node_ids // (n_trees * max(1, flat.depth))) + 1]
        predictions = predict_batch(ens, head)
        explained = _explain_arrays(ens, head)[2]
    assert blocks == 3
    distinct, row_of = np.unique(X, axis=0, return_inverse=True)
    oracle = [region_leaf_values(tree, distinct)[row_of.ravel()] for tree in ens.trees]
    assert bits(flat.value[reached]) == bits(oracle)
    assert bits(predictions) == bits(explained)


def test_every_command_walks_to_the_leaves_only(monkeypatch, tmp_path, d0_two_trees):
    # A leaf has one path from its root, so no command keeps a row's path:
    # each walk is the leaf walk or explanation's, driven by _walk.
    assert not hasattr(kernel.FlatForest, "paths") and not hasattr(kernel.FlatForest, "edges")
    model, data = tmp_path / "model.json", tmp_path / "data.csv"
    save_model(d0_two_trees, model)
    data.write_text("f0,f1,y\n" + "".join(f"{a!r},{b!r},{y!r}\n" for (a, b), y in zip(D0_X.tolist(), D0_Y.tolist())))
    walks, levels = [], kernel.FlatForest._levels

    def spy(self, x, steps=None):
        walks.append((sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name))
        return levels(self, x, steps)

    monkeypatch.setattr(kernel.FlatForest, "_levels", spy)
    files = ["--model", str(model), "--data", str(data), "--target", "y"]
    outputs = [str(tmp_path / name) for name in ("out.csv", "records.csv", "space.csv")]
    leaves, explanation = ("_walk", "leaves"), ("_walk", "_explain")
    for command, walked in [
        (["predict", *files, "--out", outputs[0]], {leaves}),
        (["explain", *files, "--check", "--out", outputs[0], "--decision-records", outputs[1], "--decision-space", outputs[2]],
         {leaves, explanation}),
        (["verify", *files], {leaves, explanation}),
    ]:
        walks.clear()
        assert cli.main(command) == 0
        assert set(walks) == walked, command[0]


def test_the_leaf_walk_keeps_no_bins():
    # explain-batch's model and batch size: 100 depth-4 trees fitted on
    # 2000x10 rows, then 250 unseen rows. Each level step drops the cells it
    # tested before it gathers the thresholds.
    ds = build_synthetic(n=2250, d=10, seed=1)
    train = Dataset(ds.features[:2000], ds.target[:2000], ds.feature_names)
    ens = fit_gbdt(train, GbdtParams(n_estimators=100, cart=CartParams(max_depth=4), seed=0))
    X = ds.features[2000:]
    predict_batch(ens, X)
    tracemalloc.start()
    try:
        predict_batch(ens, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * 2**20


def test_predict_through_a_deep_chain_walks_large_blocks_of_leaves():
    ens = Ensemble(0.0, 1.0, kernel.FlatForest.of([CHAIN], 1.0), ("x0",))
    X = chain_rows(np.random.default_rng(5), 20_000)
    ens.flat  # built outside the limit, as a loaded model is before it predicts
    with time_limit(5):
        predictions = predict_batch(ens, X)
    assert bits(predictions[:200]) == bits(region_leaf_values(CHAIN, X[:200]))


def test_explain_through_a_deep_chain_stops_at_each_blocks_deepest_leaf():
    ens = Ensemble(0.0, 1.0, kernel.FlatForest.of([CHAIN], 1.0), ("x0",))
    # Every row leaves the chain within its first six splits, and the paths
    # of a 3000-deep tree come in blocks of a few rows, so the early stop
    # spares thousands of blocks nearly all of their levels.
    X = np.random.default_rng(6).uniform(-5, 10, size=(20_000, 1))
    ens.flat
    with time_limit(5):
        explanations = batch_explain(ens, X)
    for x, e in zip(X[:20], explanations):
        bias, contributions = naive_contributions(ens, x)
        assert bits(e.bias) == bits(bias) and bits(e.contributions["x0"]) == bits(contributions)


def test_records_and_the_telescoping_check_through_a_deep_chain_read_the_leaves():
    ens = Ensemble(0.0, 1.0, kernel.FlatForest.of([CHAIN], 1.0), ("x0",))
    X = chain_rows(np.random.default_rng(7), 20_000)
    ens.flat.parent  # built outside the limits, as a loaded model's would be
    with time_limit(5):
        assert cli._telescoping_violation(ens, X) is None
    with time_limit(5):
        cli._write_decision_records(os.devnull, ens, X)


def test_the_region_table_is_built_once_per_model(monkeypatch, d0_two_trees):
    builds, regions = [], kernel.FlatForest.regions
    monkeypatch.setattr(kernel.FlatForest, "regions", lambda self, d: builds.append(d) or regions(self, d))
    assert decision_space(d0_two_trees, D0_X[0]) != decision_space(d0_two_trees, D0_X[3])
    assert cli._partition_violation(d0_two_trees) is None
    assert builds == [2]


def test_kernel_imports_nothing_from_the_package_at_run_time():
    syntax = ast.parse(inspect.getsource(kernel))
    type_only = {
        id(node)
        for statement in syntax.body
        if isinstance(statement, ast.If) and ast.unparse(statement.test) == "TYPE_CHECKING"
        for node in ast.walk(statement)
    }
    imports = [
        node for node in ast.walk(syntax)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in type_only
    ]
    modules = [alias.name for node in imports if isinstance(node, ast.Import) for alias in node.names]
    modules += ["." * node.level + (node.module or "") for node in imports if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.startswith((".", "boostcontrib"))]
    # cart is built on the kernel, not the other way round.
    assert cart.FlatForest is kernel.FlatForest
