"""Stage-wise boosting of regression trees on squared-loss residuals.

The ensemble prediction is f0 + learning_rate * sum of tree outputs, with
f0 fixed to the training-target mean and the learning rate applied
uniformly to every tree (never to f0). Tree l draws its random state from
``np.random.default_rng([seed, l])`` with l counted from 1, so growing an
ensemble never perturbs the trees already fit; stream [seed, 0] is left
free for callers (the experiment runners use it).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cart import (
    CartParams,
    SplitDecision,
    Tree,
    TreeNode,
    _check_matrix,
    _check_vector,
    fit_cart,
)
from .data import Dataset
from .kernel import FlatForest

MODEL_FORMAT_VERSION = 1


class ModelFormatError(Exception):
    """Raised when a model file is malformed or of an unknown version."""


@dataclass(frozen=True)
class GbdtParams:
    n_estimators: int
    learning_rate: float = 0.1
    cart: CartParams = field(default_factory=lambda: CartParams(max_depth=3))
    seed: int = 0

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass
class Ensemble:
    """Fitted additive model; immutable by convention once constructed.

    `params` is a provenance record for freshly fitted ensembles; models
    restored from disk carry None there (the file format stores only the
    predictive state). The trees are compiled into `flat` on first use and
    the result is cached, so they must not be changed after that.
    """

    f0: float
    learning_rate: float
    trees: list[Tree]
    feature_names: tuple[str, ...]
    params: GbdtParams | None = None

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @cached_property
    def flat(self) -> FlatForest:
        """The trees compiled for the batch kernel, built on first use."""
        return FlatForest(self.trees, self.learning_rate)


def fit_gbdt(ds: Dataset, params: GbdtParams) -> Ensemble:
    """Fit trees sequentially, each on the residuals of the running model."""
    X = ds.features
    f0 = float(np.mean(ds.target))
    running = np.full(ds.n_samples, f0, dtype=np.float64)
    trees: list[Tree] = []
    for l in range(1, params.n_estimators + 1):
        residual = ds.target - running
        rng = np.random.default_rng([params.seed, l])
        tree = fit_cart(X, residual, params.cart, rng)
        flat = FlatForest([tree], params.learning_rate)
        for rows, ids in flat.paths(X):
            running[rows] = running[rows] + params.learning_rate * flat.leaf_sum(ids)
        trees.append(tree)
    return Ensemble(
        f0=f0,
        learning_rate=params.learning_rate,
        trees=trees,
        feature_names=ds.feature_names,
        params=params,
    )


def gbdt_predict(ens: Ensemble, x) -> float:
    """f0 + learning_rate * sum of per-tree leaf values, in tree order."""
    return float(predict_batch(ens, _check_vector(ens, x)[None])[0])


def predict_batch(ens: Ensemble, X) -> np.ndarray:
    """gbdt_predict for every row of an (n, d) array, in one kernel pass."""
    X = _check_matrix(ens, X)
    out = np.empty(X.shape[0], dtype=np.float64)
    for rows, ids in ens.flat.paths(X):
        out[rows] = ens.f0 + ens.learning_rate * ens.flat.leaf_sum(ids)
    return out


def node_split_gain(tree: Tree, node: TreeNode) -> float:
    """SSE reduction of an internal node's split.

    Uses the between-children identity
    n_l*(v_l - v)^2 + n_r*(v_r - v)^2, which depends only on serialized
    fields and therefore works identically for fitted and loaded models.
    """
    left = tree.nodes[node.left]
    right = tree.nodes[node.right]
    return left.n_samples * (left.value - node.value) ** 2 + right.n_samples * (
        right.value - node.value
    ) ** 2


def feature_importance(ens: Ensemble) -> np.ndarray:
    """Per-feature split gains summed over all trees, normalized to 1.

    This is the global "which feature split the data best" measure, as
    opposed to the per-sample contributions in :mod:`boostcontrib.contrib`.
    """
    gains = np.zeros(ens.n_features, dtype=np.float64)
    for tree in ens.trees:
        for node in tree.nodes:
            if node.split is not None:
                gains[node.split.feature] += node_split_gain(tree, node)
    total = gains.sum()
    if total <= 0.0:
        raise ValueError("no splits; importance undefined")
    return gains / total


def _tree_to_dict(tree: Tree) -> dict:
    nodes = []
    for node_id, node in enumerate(tree.nodes):
        nodes.append(
            {
                "id": node_id,
                "value": node.value,
                "n_samples": node.n_samples,
                "feature": None if node.split is None else node.split.feature,
                "threshold": None if node.split is None else node.split.threshold,
                "left": node.left,
                "right": node.right,
            }
        )
    return {"root": tree.root, "nodes": nodes}


def save_model(ens: Ensemble, path) -> None:
    """Write the versioned JSON model file (full float round-trip precision)."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "f0": ens.f0,
        "learning_rate": ens.learning_rate,
        "feature_names": list(ens.feature_names),
        "trees": [_tree_to_dict(tree) for tree in ens.trees],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ModelFormatError(message)


def _tree_from_dict(obj, n_features: int) -> Tree:
    _require(isinstance(obj, dict), "tree entry must be an object")
    _require("root" in obj and "nodes" in obj, "tree entry needs 'root' and 'nodes'")
    raw_nodes = obj["nodes"]
    _require(isinstance(raw_nodes, list) and raw_nodes, "tree needs a non-empty node list")
    position = {}
    for pos, raw in enumerate(raw_nodes):
        _require(isinstance(raw, dict), "node entry must be an object")
        for key in ("id", "value", "n_samples", "feature", "threshold", "left", "right"):
            _require(key in raw, f"node entry missing {key!r}")
        _require(_is_node_id(raw["id"]), f"node id must be an integer, got {raw['id']!r}")
        _require(raw["id"] not in position, f"duplicate node id {raw['id']}")
        position[raw["id"]] = pos

    def child_pos(raw_id) -> int:
        _require(_is_node_id(raw_id) and raw_id in position, f"unknown node id {raw_id!r}")
        return position[raw_id]

    nodes = []
    for raw in raw_nodes:
        value = _number(raw["value"], "node value")
        n_samples = _number(raw["n_samples"], "node n_samples", int)
        _require(n_samples >= 1, f"node n_samples must be positive, got {n_samples}")
        split_keys = (raw["feature"], raw["threshold"], raw["left"], raw["right"])
        if all(k is None for k in split_keys):
            nodes.append(TreeNode(value=value, n_samples=n_samples))
            continue
        _require(
            all(k is not None for k in split_keys),
            "internal node needs feature, threshold, left and right; a leaf has none",
        )
        feature = _number(raw["feature"], "split feature", int)
        _require(0 <= feature < n_features, f"split feature {feature} out of range")
        nodes.append(
            TreeNode(
                value=value,
                n_samples=n_samples,
                split=SplitDecision(
                    feature=feature, threshold=_number(raw["threshold"], "split threshold")
                ),
                left=child_pos(raw["left"]),
                right=child_pos(raw["right"]),
            )
        )
    tree = Tree(nodes=nodes, root=child_pos(obj["root"]), n_features=n_features)
    _require_tree_shape(tree, [raw["id"] for raw in raw_nodes])
    return tree


def _number(raw, what: str, kind: type = float):
    """A JSON number of the given kind (float or int), no bool or string, that
    converts to a finite float: an integer beyond that would overflow when
    multiplied with a float."""
    accepted = (int, float) if kind is float else int
    _require(
        isinstance(raw, accepted) and not isinstance(raw, bool),
        f"{what} must be {'a number' if kind is float else 'an integer'}, got {raw!r}",
    )
    _require(
        math.isfinite(raw) if isinstance(raw, float) else abs(raw) <= sys.float_info.max,
        f"{what} must be finite, got {raw!r}",
    )
    return kind(raw)


def _is_node_id(raw_id) -> bool:
    return isinstance(raw_id, int) and not isinstance(raw_id, bool)


def _require_tree_shape(tree: Tree, ids: list[int]) -> None:
    """Every node is reached from the root exactly once: no cycle, no
    shared subtree, no orphan. Traversal relies on this to terminate.
    Each internal node's n_samples is the sum of its children's."""
    reached = [False] * len(tree.nodes)
    stack = [tree.root]
    while stack:
        node_id = stack.pop()
        _require(not reached[node_id], f"node id {ids[node_id]} is reached twice from the root")
        reached[node_id] = True
        node = tree.nodes[node_id]
        if node.split is not None:
            stack += (node.right, node.left)
    if not all(reached):
        raise ModelFormatError(f"node id {ids[reached.index(False)]} is not reached from the root")
    for node_id, node in enumerate(tree.nodes):
        if node.split is not None:
            left, right = tree.nodes[node.left].n_samples, tree.nodes[node.right].n_samples
            _require(
                node.n_samples == left + right,
                f"node id {ids[node_id]}: n_samples {node.n_samples} is not the sum of "
                f"its children's ({left} + {right})",
            )


def load_model(path) -> Ensemble:
    """Read a model file back; predictions are bit-identical to the saved model."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: malformed model file ({exc})") from None
    _require(isinstance(payload, dict), "top level must be an object")
    for key in ("format_version", "f0", "learning_rate", "feature_names", "trees"):
        _require(key in payload, f"missing top-level key {key!r}")
    if payload["format_version"] != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unknown format version {payload['format_version']!r}; "
            f"expected {MODEL_FORMAT_VERSION}"
        )
    names = payload["feature_names"]
    _require(
        isinstance(names, list) and all(isinstance(n, str) for n in names),
        "feature_names must be a list of strings",
    )
    _require(len(set(names)) == len(names), "feature_names must be unique")
    f0 = _number(payload["f0"], "f0")
    learning_rate = _number(payload["learning_rate"], "learning_rate")
    _require(
        0.0 < learning_rate <= 1.0, f"learning_rate must be in (0, 1], got {learning_rate!r}"
    )
    _require(
        isinstance(payload["trees"], list) and payload["trees"],
        "trees must be a non-empty list",
    )
    trees = [_tree_from_dict(t, len(names)) for t in payload["trees"]]
    return Ensemble(
        f0=f0,
        learning_rate=learning_rate,
        trees=trees,
        feature_names=tuple(names),
        params=None,
    )
