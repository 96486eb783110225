"""The batch traversal kernel over an ensemble's concatenated tree arrays.

Each :class:`~boostcontrib.cart.Tree` holds its nodes as parallel arrays,
the layout scikit-learn's ``tree_`` uses. An ensemble's trees are
concatenated once into arrays indexed by a global node id, and each
node's two children are laid side by side in one child table, right then
left, so that one level step for every row in every tree is one gather:
``child[2 * node + (x <= threshold)]``. A leaf's two children are itself,
so a row that has reached its leaf stays there. Two walks drive that one
step: :meth:`FlatForest.paths` keeps the node ids of every level and
:meth:`FlatForest.leaves` only the current ones. Both stop a block of rows
once every row rests at its leaf, so a deep, unbalanced tree costs a
block its deepest row's levels, not the tree's depth. Everything the
package reads off a traversal comes from the visited node ids:

* the leaf sum, added tree by tree, which predictions are built on;
* per-feature contributions, the scaled residues of the visited edges
  credited to the feature tested at each edge's parent;
* the traversed edges, listed once by :meth:`FlatForest.edges`, from
  which decision records and decision spaces are read;
* one tree's path, which ``cart.decision_path`` reads as a batch of one.

This is the package's one routing code beside the oracle's, and it
imports nothing from the package at run time.

Summation order is part of the contract (see :mod:`boostcontrib.contrib`):
both sums are taken with ``np.bincount``, which adds its weights into each
bin in input order. Weights are laid out tree, then step, then row, and
each bin belongs to one row, so every row is summed tree-major,
path-minor, exactly as the descent in :mod:`boostcontrib.oracle`
sums it, and the two agree bit for bit. A leaf routes to itself; the
padded steps after a row reaches its leaf weigh +0.0, which leaves a sum
that started at +0.0 unchanged.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .cart import Tree

# Rows per block are chosen so one block's path array, or the leaf walk's
# array of current nodes, holds about this many node ids. This bounds the
# kernel's working memory whatever the input size, and blocks of this size
# ran fastest on a 120-tree depth-4 model (2-core x86 machine): a block's
# temporaries then stay in the CPU cache.
BLOCK_NODE_IDS = 1 << 15


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


class FlatForest:
    """The trees' arrays concatenated, child ids made global; read-only.

    Leaves keep :class:`~boostcontrib.cart.Tree`'s convention, feature 0
    and both children pointing at themselves, so a row that has reached
    its leaf stays there on later levels. `child` holds node i's right
    child at 2i and its left child at 2i + 1; `right` and `left` are views
    of it. Roots are their own parents. `tree` and `node_depth` give each
    node's tree and its level in it.
    """

    def __init__(self, trees: list[Tree], learning_rate: float):
        sizes = [tree.value.size for tree in trees]
        offsets = np.cumsum([0, *sizes[:-1]])
        shift = np.repeat(offsets, sizes)
        self.feature = np.concatenate([tree.feature for tree in trees])
        self.threshold = np.concatenate([tree.threshold for tree in trees])
        self.child = np.empty(2 * shift.size, dtype=np.intp)
        self.child[0::2] = np.concatenate([tree.right for tree in trees]) + shift
        self.child[1::2] = np.concatenate([tree.left for tree in trees]) + shift
        self.right, self.left = self.child[0::2], self.child[1::2]
        self.value = np.concatenate([tree.value for tree in trees])
        self.roots = offsets + [tree.root for tree in trees]
        self.tree = np.repeat(np.arange(len(trees)), sizes)
        self.node_depth = node_depths(self.left, self.right, self.roots)
        self.depth = int(self.node_depth.max())
        # No row can rest at a leaf in every tree before each tree holds a
        # leaf, so the level loop looks for rest only after this level.
        leaf_depth = np.where(self.left == np.arange(self.left.size), self.node_depth, self.depth)
        self._first_rest = int(np.minimum.reduceat(leaf_depth, offsets).max())

        internal = np.flatnonzero(self.left != np.arange(self.left.size))
        self.parent = np.arange(self.left.size)
        self.residue = np.zeros(self.left.size)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing residue is verify's to report
            for child in (self.left[internal], self.right[internal]):
                self.parent[child] = internal
                self.residue[child] = learning_rate * (self.value[child] - self.value[internal])

    def _levels(self, x: np.ndarray) -> Iterator[np.ndarray]:
        """The (trees, rows) node ids that the rows of x occupy, level by
        level: the roots first, then one step at a time until no row moves,
        which is when every row rests at its leaf."""
        n, d = x.shape
        cells = x.ravel()
        row_start = np.arange(n) * d
        nodes = np.repeat(self.roots[:, None], n, axis=1)
        yield nodes
        for step in range(1, self.depth + 1):
            go_left = cells.take(self.feature.take(nodes) + row_start) <= self.threshold.take(nodes)
            moved = self.child.take(2 * nodes + go_left)
            if step > self._first_rest and (moved == nodes).all():
                return
            nodes = moved
            yield nodes

    def _walk(self, X: np.ndarray, block: int) -> Iterator[tuple[slice, Iterator[np.ndarray]]]:
        """(rows, levels) per block of max(1, block) rows of X, levels being
        :meth:`_levels` of those rows."""
        block = max(1, block)
        for start in range(0, X.shape[0], block):
            rows = slice(start, min(start + block, X.shape[0]))
            yield rows, self._levels(X[rows])

    def paths(self, X: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """Route every row of X through every tree, one level at a time.

        Yields (rows, ids) per block of rows: ids[t, s, i] is the global
        id of the node that row ``rows.start + i`` occupies in tree t
        after s steps, so ids[:, 0] are the roots and ids[:, -1] the
        leaves. Steps after every row of a block has stopped repeat the
        leaves.
        """
        n_trees = self.roots.shape[0]
        for rows, levels in self._walk(X, BLOCK_NODE_IDS // (n_trees * (self.depth + 1))):
            ids = np.empty((n_trees, self.depth + 1, rows.stop - rows.start), dtype=np.intp)
            for step, nodes in enumerate(levels):
                ids[:, step] = nodes
            ids[:, step + 1:] = nodes[:, None]
            yield rows, ids

    def leaves(self, X: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """Route every row of X to its leaf in every tree, keeping no path.

        Yields (rows, leaves) per block of rows, leaves[t, i] being the
        global id of row ``rows.start + i``'s leaf in tree t: the last step
        of :meth:`paths`, in blocks sized for this array alone.
        """
        for rows, levels in self._walk(X, BLOCK_NODE_IDS // self.roots.shape[0]):
            for nodes in levels:
                pass
            yield rows, nodes

    @staticmethod
    def edges(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The traversed edges of one block of paths from :meth:`paths`.

        Returns arrays (row, child), one entry per edge, ordered by row, then
        tree, then step; rows count from the block's first row, and an edge is
        named by its child node. A step whose node equals the previous one is
        a row resting at its leaf, not an edge.
        """
        parent, child = ids[:, :-1], ids[:, 1:]
        row, tree, step = np.nonzero((parent != child).transpose(2, 0, 1))
        return row, child[tree, step, row]

    def edge_fields(self, child: np.ndarray) -> tuple[list, ...]:
        """The fields of :class:`~boostcontrib.contrib.DecisionRecord` for the
        edges into the nodes `child`, as lists: tree, step on the path, the
        parent's feature and threshold, "left" or "right", value[child] -
        value[parent] and the scaled residue.
        """
        parent = self.parent[child]
        went_left = (self.left[parent] == child).astype(np.intp)
        return (
            self.tree[child].tolist(),
            (self.node_depth[child] - 1).tolist(),
            self.feature[parent].tolist(),
            self.threshold[parent].tolist(),
            np.array(["right", "left"], dtype=object)[went_left].tolist(),  # two shared str objects
            (self.value[child] - self.value[parent]).tolist(),
            self.residue[child].tolist(),
        )

    def leaf_sum(self, leaves: np.ndarray) -> np.ndarray:
        """Per row, the values of its (trees, rows) leaves added in tree order."""
        n_trees, n = leaves.shape
        return np.bincount(
            np.tile(np.arange(n), n_trees),
            weights=self.value.take(leaves).ravel(),
            minlength=n,
        )

    def contributions(self, ids: np.ndarray, n_features: int) -> np.ndarray:
        """(n, n_features) scaled residues summed tree-major, path-minor."""
        n = ids.shape[2]
        parent, child = ids[:, :-1], ids[:, 1:]
        weights = np.where(parent == child, 0.0, self.residue.take(child))
        bins = self.feature.take(parent) + np.arange(n) * n_features
        # With no edge at all (every tree a leaf) bincount would return int64.
        return np.bincount(
            bins.ravel(), weights=weights.ravel(), minlength=n * n_features
        ).reshape(n, n_features).astype(np.float64, copy=False)
