"""The flat-array batch kernel against the per-tree walk and the oracle.

Every quantity the kernel produces must equal its reference bit for bit:
contributions and bias against the oracle's descent, predictions
against f0 + lr * (leaf values added tree by tree through tree_predict),
and the batched per-edge views against their single-row forms.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostcontrib import (
    Ensemble,
    batch_explain,
    decision_contributions,
    decision_space,
    iter_decision_contributions,
    iter_decision_spaces,
    predict_batch,
    tree_predict,
)
from boostcontrib import kernel
from boostcontrib.oracle import naive_contributions
from conftest import random_ensemble, tree_of


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def reference_prediction(ens, x) -> float:
    acc = 0.0
    for tree in ens.trees:
        acc += tree_predict(tree, x)
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
    for x, prediction, e in zip(X, predictions, explanations):
        bias, contributions = naive_contributions(ens, x)
        want = reference_prediction(ens, x)
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
    # np.bincount over no edge at all returns int64.
    ens = Ensemble(0.5, 0.1, [tree_of([(1.0, 3)]), tree_of([(2.0, 3)])], ("a",))
    (_rows, ids), = ens.flat.paths(np.zeros((2, 1)))
    contributions = ens.flat.contributions(ids, 1)
    assert contributions.dtype == np.float64 and contributions.tolist() == [[0.0], [0.0]]


def test_empty_batch(d0_two_trees):
    X = np.empty((0, 2))
    assert predict_batch(d0_two_trees, X).shape == (0,)
    assert batch_explain(d0_two_trees, X) == []


def test_compile_rejects_a_cycle():
    # Node 1's right child points back at the root.
    tree = tree_of([(0.0, 3, 0, 0.5, 1, 2), (1.0, 2, 0, 0.2, 2, 0), (2.0, 1)])
    with pytest.raises(ValueError, match="do not form trees"):
        kernel.FlatForest([tree], 0.1)
