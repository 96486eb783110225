"""Flat-array tree layout and the batch traversal kernel.

An ensemble's trees are compiled once into parallel arrays indexed by a
global node id (all trees concatenated), the layout scikit-learn's
``tree_`` uses. Rows then move through every tree at once, one level per
step, and everything the package reads off a traversal comes from the
visited node ids:

* the leaf sum, added tree by tree, which predictions are built on;
* per-feature contributions, the scaled residues of the visited edges
  credited to the feature tested at each edge's parent;
* the path itself, from which decision records and decision spaces are
  read.

Summation order is part of the contract (see :mod:`boostcontrib.contrib`):
both sums are taken with ``np.bincount``, which adds its weights into each
bin in input order. Weights are laid out tree, then step, then row, and
each bin belongs to one row, so every row is summed tree-major,
path-minor, exactly as the recursive descent in :mod:`boostcontrib.oracle`
sums it, and the two agree bit for bit. A leaf routes to itself; the
padded steps after a row reaches its leaf weigh +0.0, which leaves a sum
that started at +0.0 unchanged.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .cart import Tree

# Rows per block are chosen so one block's path array holds about this many
# node ids. This bounds the kernel's working memory whatever the input size,
# and blocks of this size ran fastest on a 120-tree depth-4 model (2-core
# x86 machine): a block's temporaries then stay in the CPU cache.
BLOCK_NODE_IDS = 1 << 15


class FlatForest:
    """Trees compiled into flat per-node arrays; read-only once built.

    Leaves carry feature 0 and point both children at themselves, so a
    row that has reached its leaf stays there on later levels.
    """

    def __init__(self, trees: list[Tree], learning_rate: float):
        total = sum(len(tree.nodes) for tree in trees)
        self.feature = np.zeros(total, dtype=np.intp)
        self.threshold = np.zeros(total, dtype=np.float64)
        self.left = np.arange(total, dtype=np.intp)
        self.right = np.arange(total, dtype=np.intp)
        self.value = np.empty(total, dtype=np.float64)
        self.roots = np.empty(len(trees), dtype=np.intp)
        offset = 0
        # Filled tree by tree, so Python-level temporaries stay one tree big.
        for tree_index, tree in enumerate(trees):
            self.roots[tree_index] = offset + tree.root
            self.value[offset : offset + len(tree.nodes)] = [n.value for n in tree.nodes]
            splits = [(i, n) for i, n in enumerate(tree.nodes) if n.split is not None]
            if splits:
                at = offset + np.array([i for i, _ in splits], dtype=np.intp)
                self.feature[at] = [n.split.feature for _, n in splits]
                self.threshold[at] = [n.split.threshold for _, n in splits]
                self.left[at] = offset + np.array([n.left for _, n in splits], dtype=np.intp)
                self.right[at] = offset + np.array([n.right for _, n in splits], dtype=np.intp)
            offset += len(tree.nodes)

        internal = np.flatnonzero(self.left != np.arange(total))
        self.residue = np.zeros(total, dtype=np.float64)
        for child in (self.left[internal], self.right[internal]):
            self.residue[child] = learning_rate * (self.value[child] - self.value[internal])

        # Levels below the roots, walked for all trees at once. No level of a
        # forest outnumbers its nodes or lies deeper than its node count, so
        # nodes that break either bound cannot form trees (say, a cycle).
        self.depth = 0
        level = self.roots
        while True:
            level = level[self.left[level] != level]
            if level.size == 0:
                break
            self.depth += 1
            if self.depth > total or level.size > total:
                raise ValueError("tree nodes do not form trees: a path never reaches a leaf")
            level = np.concatenate([self.left[level], self.right[level]])

    def paths(self, X: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """Route every row of X through every tree, one level at a time.

        Yields (rows, ids) per block of rows: ids[t, s, i] is the global
        id of the node that row ``rows.start + i`` occupies in tree t
        after s steps, so ids[:, 0] are the roots and ids[:, -1] the
        leaves.
        """
        n_trees = self.roots.shape[0]
        block = max(1, BLOCK_NODE_IDS // max(1, n_trees * (self.depth + 1)))
        for start in range(0, X.shape[0], block):
            rows = slice(start, min(start + block, X.shape[0]))
            x = X[rows]
            n, d = x.shape
            cells = x.ravel()
            row_start = np.arange(n) * d
            ids = np.empty((n_trees, self.depth + 1, n), dtype=np.intp)
            nodes = np.repeat(self.roots[:, None], n, axis=1)
            ids[:, 0] = nodes
            for step in range(1, self.depth + 1):
                go_left = cells.take(self.feature.take(nodes) + row_start) <= (
                    self.threshold.take(nodes)
                )
                nodes = np.where(go_left, self.left.take(nodes), self.right.take(nodes))
                ids[:, step] = nodes
            yield rows, ids

    def leaf_sum(self, ids: np.ndarray) -> np.ndarray:
        """Per row, the leaf values of all trees added in tree order."""
        n_trees, _, n = ids.shape
        return np.bincount(
            np.tile(np.arange(n), n_trees),
            weights=self.value.take(ids[:, -1]).ravel(),
            minlength=n,
        )

    def contributions(self, ids: np.ndarray, n_features: int) -> np.ndarray:
        """(n, n_features) scaled residues summed tree-major, path-minor."""
        n = ids.shape[2]
        parent, child = ids[:, :-1], ids[:, 1:]
        weights = np.where(parent == child, 0.0, self.residue.take(child))
        bins = self.feature.take(parent) + np.arange(n) * n_features
        return np.bincount(
            bins.ravel(), weights=weights.ravel(), minlength=n * n_features
        ).reshape(n, n_features)
