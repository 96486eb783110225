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

# Nodes with at least this many rows search column blocks sorted once per
# fit (see _grow); smaller ones sort their own rows. Per node, on data of
# 250x8, 2000x10 and 10000x20 (median of 15 timings, shared 2-core x86_64
# machine), the block cost 4-14% more than sorting at 16-32 rows and 4-14%
# less from 64 rows on, its lead growing with the node.
PRESORT_MIN_ROWS = 64


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


def node_depths(left: np.ndarray, right: np.ndarray, roots: np.ndarray, ids=None) -> np.ndarray:
    """Per node, its number of levels below its root in trees linked by
    `left` and `right`. Raises ValueError, naming nodes by `ids` (default:
    positions), unless every node is reached from the roots exactly once: no
    cycle, no shared subtree, no orphan. Traversal relies on this to terminate."""
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
    depths = np.full(nodes.size, -1)
    depth, level = 0, roots
    while level.size:
        depths[level] = depth
        depth += 1
        level = level[left[level] != level]
        level = np.concatenate([left[level], right[level]])
    if (depths < 0).any():
        raise ValueError(
            f"tree nodes do not form trees: node id {names[np.argmin(depths)]} "
            "is not reached from the root"
        )
    return depths


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
    if n < 2 or (y == y[0]).all():
        return None
    order = X.argsort(axis=0, kind="stable")
    return _search(X, y, order, float(y.sum()), float((y * y).sum()), rng, min_samples_leaf, min_gain)


def _search(X, y, order, total, total_sq, rng, min_samples_leaf, min_gain):
    """best_split over the rows of (X, y) that column j of `order` lists by
    increasing X[:, j], ties by row. total and total_sq are the sums of y and
    y * y over those rows, taken in row order. The (n, d) temporaries are
    freed when it returns, before the caller grows any child."""
    n = order.shape[0]
    xs = X[order, np.arange(X.shape[1])]
    ys = y[order][:-1]
    left_sum = ys.cumsum(axis=0)
    ys *= ys
    left_sq = ys.cumsum(axis=0)
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n_left[::-1]  # n - n_left, exactly, as the counts are integers

    # sse = sum of squares - sum * sum / count, on each side of each candidate
    right_sum = total - left_sum
    right_sq = total_sq - left_sq
    left_sum *= left_sum
    left_sum /= n_left
    left_sq -= left_sum
    right_sum *= right_sum
    right_sum /= n_right
    right_sq -= right_sum
    gain = (total_sq - total * total / n) - left_sq
    gain -= right_sq

    invalid = xs[:-1] == xs[1:]
    if min_samples_leaf > 1:
        invalid |= (n_left < min_samples_leaf) | (n_right < min_samples_leaf)
    gain[invalid] = -np.inf

    best_gain = float(gain.max())
    if not best_gain > min_gain:
        return None
    tie_floor = best_gain - RELATIVE_TIE_TOLERANCE * abs(best_gain)
    tie_rows, tie_cols = (gain >= tie_floor).nonzero()
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
    Raises ValueError naming the first row of X or y that holds NaN or ±inf.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) and y (n,) with matching n")
    if y.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError("need at least one sample and one feature")
    _check_finite(np.column_stack([X, y]))
    return _grow(X, y, X.argsort(axis=0, kind="stable"), params, rng)


def _grow(X, y, order, params: CartParams, rng) -> Tree:
    """fit_cart on finite float arrays, given `order`, X's stable argsort
    along axis 0.

    A node of PRESORT_MIN_ROWS rows or more searches its block: for each
    column, the node's row ids in the order of `order`. That is the node's
    rows sorted by (value, row), just as a stable argsort of X[rows] sorts
    them, so the search sees the same sequences and grows the same tree bit
    for bit. A child's block is its parent's block with the other child's
    rows taken out of each column, which keeps that order without sorting.
    """
    d = X.shape[1]
    rules = (params.min_samples_leaf, params.min_gain)
    in_child = np.empty(X.shape[0], dtype=bool)
    feature, threshold, left, right, value, n_samples = [], [], [], [], [], []

    def build(rows: np.ndarray, block, depth: int) -> int:
        node_id = len(value)
        n = rows.shape[0]
        y_node = y[rows]
        total = float(y_node.sum())
        feature.append(0)
        threshold.append(0.0)
        left.append(node_id)
        right.append(node_id)
        value.append(total / n)  # np.mean's sum and division, so the same bits
        n_samples.append(n)
        if depth >= params.max_depth or n < params.min_samples_split or (y_node == y_node[0]).all():
            return node_id
        total_sq = float((y_node * y_node).sum())
        if n < PRESORT_MIN_ROWS:
            X_node = X[rows]
            order_node = X_node.argsort(axis=0, kind="stable")
            found = _search(X_node, y_node, order_node, total, total_sq, rng, *rules)
        else:
            found = _search(X, y, block, total, total_sq, rng, *rules)
        if found is None:
            return node_id
        split_feature, split_threshold, _gain = found
        feature[node_id], threshold[node_id] = split_feature, split_threshold
        goes_left = X[rows, split_feature] <= split_threshold
        children = []
        for side in (goes_left, ~goes_left):
            child_rows = rows[side]
            child_block = None
            if child_rows.shape[0] >= PRESORT_MIN_ROWS:
                in_child[rows] = side
                child_block = block.T[in_child[block].T].reshape(d, -1).T
            children.append(build(child_rows, child_block, depth + 1))
        left[node_id], right[node_id] = children
        return node_id

    build(np.arange(X.shape[0]), order, 0)
    fields = (feature, threshold, left, right, value, n_samples)
    return Tree(*map(np.array, fields), n_features=d)


def _check_finite(X) -> None:
    """Refuse a 2-D array holding NaN or ±inf, naming the first such row.
    NaN compares false with every threshold and would route right unnoticed."""
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {int(np.argmin(finite))} holds a non-finite value")


def _check_matrix(owner, X) -> np.ndarray:
    """X as an (n, owner.n_features) float array of finite values; owner is
    a Tree or an Ensemble."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != owner.n_features:
        raise ValueError(
            f"expected shape (n, {owner.n_features}), got {X.shape}"
        )
    _check_finite(X)
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
