"""Slow references for split finding, tree growth and the leaf-partition
count, used to cross-check the vectorized implementation. Deliberately
obvious: every midpoint of every feature is tried with a fresh mask and two
direct SSE computations, the reference grower searches each node's rows
afresh, depth first, and the partition count tests every bound of every
region on every probe.
"""

import numpy as np

from boostcontrib import best_split


def sse(y: np.ndarray) -> float:
    if len(y) == 0:
        return 0.0
    return float(((y - y.mean()) ** 2).sum())


def enumerate_splits(X: np.ndarray, y: np.ndarray, min_samples_leaf: int = 1):
    """Every admissible (feature, threshold, gain) triple."""
    n, d = X.shape
    parent = sse(y)
    out = []
    for f in range(d):
        values = np.unique(X[:, f])
        for lo, hi in zip(values.tolist(), values[1:].tolist()):
            threshold = (lo + hi) / 2.0
            if not lo <= threshold < hi:  # rounded up to hi, or overflowed
                threshold = lo
            mask = X[:, f] <= threshold
            n_left = int(mask.sum())
            if n_left < min_samples_leaf or n - n_left < min_samples_leaf:
                continue
            gain = parent - sse(y[mask]) - sse(y[~mask])
            out.append((f, float(threshold), float(gain)))
    return out


def best_gain(X: np.ndarray, y: np.ndarray, min_samples_leaf: int = 1) -> float:
    candidates = enumerate_splits(X, y, min_samples_leaf)
    return max((g for _, _, g in candidates), default=float("-inf"))


def grow_tree(X: np.ndarray, y: np.ndarray, params, rng) -> dict:
    """fit_cart's tree, grown the slow way: public best_split on X[rows] at
    every node, node values by np.mean, node ids in preorder. Returns the
    per-node arrays by Tree field name."""
    nodes = []  # [feature, threshold, left, right, value, n_samples] per node

    def build(rows: np.ndarray, depth: int) -> int:
        node = len(nodes)
        nodes.append([0, 0.0, node, node, np.mean(y[rows]), rows.size])
        if depth >= params.max_depth or rows.size < params.min_samples_split:
            return node
        found = best_split(
            X[rows], y[rows], rng,
            min_samples_leaf=params.min_samples_leaf, min_gain=params.min_gain,
        )
        if found is None:
            return node
        feature, threshold, _gain = found
        goes_left = X[rows, feature] <= threshold
        nodes[node][:2] = feature, threshold
        nodes[node][2] = build(rows[goes_left], depth + 1)
        nodes[node][3] = build(rows[~goes_left], depth + 1)
        return node

    build(np.arange(y.size), 0)
    fields = ("feature", "threshold", "left", "right", "value", "n_samples")
    return {field: np.array(column) for field, column in zip(fields, zip(*nodes))}


def count_containing_regions(lower, upper, probes) -> np.ndarray:
    """How many of the regions (lower, upper) hold each probe, from one
    probes x regions x features cube of bound tests."""
    probes = np.asarray(probes, dtype=np.float64)
    p = probes[:, None, :]
    return ((lower[None] < p) & (p <= upper[None])).all(axis=2).sum(axis=1)
