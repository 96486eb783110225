"""Binary regression trees with conditional-mean node values.

Every node stores the mean of the training targets routed to it, so a
prediction can be read either as the leaf value or as the root value plus
the chain of child-minus-parent differences along the decision path. The
contribution machinery in :mod:`boostcontrib.contrib` relies on that
equivalence, which makes the conventions here load-bearing:

* a sample goes LEFT iff x[feature] <= threshold (equality routes left);
* candidate thresholds are midpoints between consecutive distinct sorted
  feature values;
* split quality is the absolute SSE reduction
  SSE(parent) - SSE(left) - SSE(right);
* gains tying the maximum within 1e-12 relative are broken uniformly at
  random using the caller-supplied generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RELATIVE_TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class CartParams:
    """Stopping rules for tree growth.

    min_samples_leaf and min_samples_split are enforced independently;
    min_gain uses a strict > comparison, so pure nodes never split.
    """

    max_depth: int
    min_samples_leaf: int = 1
    min_samples_split: int = 2
    min_gain: float = 0.0

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_gain < 0:
            raise ValueError("min_gain must be >= 0")


@dataclass(eq=False)
class Tree:
    """One tree as parallel per-node arrays, scikit-learn's ``tree_`` layout;
    `root` indexes into them (always 0 after fitting). `value` is the mean
    target of the `n_samples` training rows routed to a node. A leaf has
    feature 0, threshold 0.0 and both children pointing at itself."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    root: int = 0
    n_features: int = 0

    @property
    def is_leaf(self) -> np.ndarray:
        """Per node, whether it is a leaf."""
        return self.left == np.arange(self.left.size)


def forest_depth(left: np.ndarray, right: np.ndarray, roots: np.ndarray, ids=None) -> int:
    """The most levels below any of the roots in trees linked by `left` and
    `right`. Raises ValueError, naming nodes by `ids` (default: positions),
    unless every node is reached from the roots exactly once: no cycle, no
    shared subtree, no orphan. Traversal relies on this to terminate."""
    nodes = np.arange(left.size)
    names = nodes if ids is None else ids
    internal = nodes[(left != nodes) | (right != nodes)]
    links = np.bincount(
        np.concatenate([roots, left[internal], right[internal]]), minlength=nodes.size
    )
    if (links > 1).any():
        raise ValueError(
            f"tree nodes do not form trees: node id {names[np.argmax(links > 1)]} "
            "is reached twice from the root"
        )
    # Every node now has one link at most, so no level repeats a node.
    reached = np.zeros(nodes.size, dtype=bool)
    depth, level = -1, roots
    while level.size:
        reached[level] = True
        depth += 1
        level = level[left[level] != level]
        level = np.concatenate([left[level], right[level]])
    if not reached.all():
        raise ValueError(
            f"tree nodes do not form trees: node id {names[np.argmin(reached)]} "
            "is not reached from the root"
        )
    return depth


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    *,
    min_samples_leaf: int = 1,
    min_gain: float = 0.0,
) -> tuple[int, float, float] | None:
    """Exhaustive search for the (feature, threshold) with maximal SSE gain.

    Returns (feature, threshold, gain) or None when no candidate clears
    min_gain. Candidates are midpoints between consecutive distinct sorted
    values per feature; splits leaving fewer than min_samples_leaf rows on
    either side are excluded. Ties within 1e-12 relative of the maximum
    are resolved uniformly at random; rng is consulted only when two or
    more candidates tie, keeping single-winner searches draw-free.
    """
    n = y.shape[0]
    if n < 2:
        return None
    if np.all(y == y[0]):
        return None

    total = float(y.sum())
    total_sq = float((y * y).sum())
    parent_sse = total_sq - total * total / n

    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]

    left_sum = np.cumsum(ys, axis=0)[:-1]
    left_sq = np.cumsum(ys * ys, axis=0)[:-1]
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n - n_left

    sse_left = left_sq - left_sum * left_sum / n_left
    right_sum = total - left_sum
    right_sq = total_sq - left_sq
    sse_right = right_sq - right_sum * right_sum / n_right

    gain = parent_sse - sse_left - sse_right
    valid = xs[:-1] != xs[1:]
    valid &= (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
    gain = np.where(valid, gain, -np.inf)

    best_gain = float(gain.max())
    if not best_gain > min_gain:
        return None

    tie_floor = best_gain - RELATIVE_TIE_TOLERANCE * abs(best_gain)
    tie_rows, tie_cols = np.nonzero(gain >= tie_floor)
    pick = 0 if tie_rows.shape[0] == 1 else int(rng.integers(tie_rows.shape[0]))
    i, feat = int(tie_rows[pick]), int(tie_cols[pick])
    threshold = float((xs[i, feat] + xs[i + 1, feat]) / 2.0)
    return feat, threshold, float(gain[i, feat])


def fit_cart(
    X: np.ndarray,
    y: np.ndarray,
    params: CartParams,
    rng: np.random.Generator,
) -> Tree:
    """Grow a tree by recursive best-split partitioning of (X, y).

    The root holds the mean of all targets; recursion stops at max_depth,
    when a node has fewer than min_samples_split rows, or when best_split
    finds nothing. Node ids are assigned in preorder (left subtree first),
    so identical inputs and generator state reproduce the tree node by node.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) and y (n,) with matching n")
    if y.shape[0] < 1:
        raise ValueError("need at least one sample")

    feature, threshold, left, right, value, n_samples = [], [], [], [], [], []

    def build(X_node: np.ndarray, y_node: np.ndarray, depth: int) -> int:
        node_id = len(value)
        feature.append(0)
        threshold.append(0.0)
        left.append(node_id)
        right.append(node_id)
        value.append(np.mean(y_node))
        n_samples.append(y_node.shape[0])
        if depth >= params.max_depth or y_node.shape[0] < params.min_samples_split:
            return node_id
        found = best_split(
            X_node,
            y_node,
            rng,
            min_samples_leaf=params.min_samples_leaf,
            min_gain=params.min_gain,
        )
        if found is None:
            return node_id
        split_feature, split_threshold, _gain = found
        feature[node_id], threshold[node_id] = split_feature, split_threshold
        mask = X_node[:, split_feature] <= split_threshold
        left[node_id] = build(X_node[mask], y_node[mask], depth + 1)
        right[node_id] = build(X_node[~mask], y_node[~mask], depth + 1)
        return node_id

    build(X, y, 0)
    fields = (feature, threshold, left, right, value, n_samples)
    return Tree(*map(np.array, fields), n_features=X.shape[1])


def _check_matrix(owner, X) -> np.ndarray:
    """X as an (n, owner.n_features) float array of finite values; owner is
    a Tree or an Ensemble."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != owner.n_features:
        raise ValueError(
            f"expected shape (n, {owner.n_features}), got {X.shape}"
        )
    # NaN compares false with every threshold and would route right unnoticed.
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {int(np.argmin(finite))} holds a non-finite value")
    return X


def _check_vector(owner, x) -> np.ndarray:
    """x as one row of owner.n_features finite floats, checked as a batch of one."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (owner.n_features,):
        raise ValueError(
            f"expected a vector of {owner.n_features} features, got shape {x.shape}"
        )
    return _check_matrix(owner, x[None])[0]


def decision_path(tree: Tree, x) -> list[int]:
    """Node ids from root to the leaf reached by x, in traversal order."""
    x = _check_vector(tree, x)
    node = tree.root
    path = [node]
    while tree.left[node] != node:
        go_left = x[tree.feature[node]] <= tree.threshold[node]
        node = int(tree.left[node] if go_left else tree.right[node])
        path.append(node)
    return path


def tree_predict(tree: Tree, x) -> float:
    """Value of the leaf reached by routing x from the root."""
    return float(tree.value[decision_path(tree, x)[-1]])
