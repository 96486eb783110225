"""The model's one tree layout and the batch traversal kernel over it.

A model is one :class:`FlatForest`: scikit-learn's ``tree_`` layout of
parallel per-node arrays, holding every tree's nodes by a global id. Fit
and load build it; a :class:`~boostcontrib.cart.Tree` is a slice of it.
Each node's two children are laid side by side in one child table, right
then left, so that one level step for every row in every tree is one
gather: ``child[2 * node + (x <= threshold)]``. A leaf's two children are
itself, so a row that has reached its leaf stays there. Two walks drive
that one step; each stops a block of rows once every row rests at its leaf,
so a deep, unbalanced tree costs a block its deepest row's levels:

* :meth:`FlatForest.leaves` keeps the current nodes. A leaf has one path
  from its root, so what a row's path decides is read off its leaves: leaf
  sums, leaf regions, decision records and ``verify``'s telescoping check;
* ``_explain`` reads the step directly: the cell of x a row tested is the
  bin of its contribution, and :attr:`FlatForest.slot_residue` at the slot
  it took the weight, credited to the feature the edge's parent tests.

``cart.decision_path`` reads the step too: for one tree and one row, the
levels are exactly the nodes from the root to the leaf.

This is the package's one routing code beside the oracle's, and it
imports nothing from the package at run time.

Summation order is part of the contract (see :mod:`boostcontrib.contrib`):
both sums are taken with ``np.bincount``, which adds its weights into each
bin in input order. Weights are laid out tree, then step, then row, and
each bin belongs to one row, so every row is summed tree-major,
path-minor, exactly as the descent in :mod:`boostcontrib.oracle`
sums it, and the two agree bit for bit. A leaf routes to itself; a step
a row takes at its leaf weighs +0.0, and so would each step the early
stop skips, which leaves a sum that started at +0.0 unchanged.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .cart import Tree

# Rows per block are chosen so the leaf walk's current nodes, or
# explanation's bins and its weights, each hold about this many entries.
# This bounds the kernel's working memory whatever the input size, and
# blocks of this size ran fastest on a 120-tree depth-4 model (2-core x86
# machine): a block's temporaries then stay in the CPU cache.
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
    """A model's trees as one set of node arrays, child ids global; read-only.

    Tree t's nodes run from id starts[t] to the next tree's start, rooted at
    roots[t]. Leaves keep :class:`~boostcontrib.cart.Tree`'s convention, so a
    row that has reached its leaf stays there. `child` holds node i's right
    child at 2i and its left child at 2i + 1; `right` and `left` are views of
    it. `tree` and `node_depth` give each node's tree and its level in it.
    Raises as node_depths does, naming nodes by `ids`, unless they are trees.
    """

    def __init__(self, feature, threshold, left, right, value, n_samples, starts, roots, learning_rate: float, ids=None):
        self.feature, self.threshold, self.value, self.n_samples = feature, threshold, value, n_samples
        self.starts, self.roots, self.learning_rate = starts, roots, learning_rate
        self.child = np.empty(2 * left.size, dtype=np.intp)
        self.child[0::2], self.child[1::2] = right, left
        self.right, self.left = self.child[0::2], self.child[1::2]
        self.tree = np.repeat(np.arange(starts.size), np.diff(starts, append=left.size))
        self.node_depth = node_depths(self.left, self.right, self.roots, ids)
        self.depth = int(self.node_depth.max())
        # No row can rest at a leaf in every tree before each tree holds a
        # leaf, so the level loop looks for rest only after this level.
        leaf_depth = np.where(self.left == np.arange(self.left.size), self.node_depth, self.depth)
        self._first_rest = int(np.minimum.reduceat(leaf_depth, starts).max())

    @classmethod
    def of(cls, trees: list[Tree], learning_rate: float) -> FlatForest:
        """The trees' arrays concatenated, their child ids made global."""
        *columns, roots = zip(*((t.feature, t.threshold, t.left, t.right, t.value, t.n_samples, t.root) for t in trees))
        feature, threshold, left, right, value, n_samples = map(np.concatenate, columns)
        starts = np.cumsum([0, *map(len, columns[4][:-1])])
        shift = np.repeat(starts, np.diff(starts, append=value.size))
        return cls(feature, threshold, left + shift, right + shift, value, n_samples, starts, starts + roots, learning_rate)

    @cached_property
    def parent(self) -> np.ndarray:
        """Per node, its parent's id; a root is its own parent."""
        parent = np.arange(self.left.size)
        internal = np.flatnonzero(self.left != parent)
        parent[self.left[internal]] = parent[self.right[internal]] = internal
        return parent

    @cached_property
    def residue(self) -> np.ndarray:
        """Per node, learning_rate * (its value - its parent's); 0.0 at a root."""
        with np.errstate(over="ignore", invalid="ignore"):  # load_model refuses an overflow; verify reports one built otherwise
            residue = self.learning_rate * (self.value - self.value.take(self.parent))
        residue[self.roots] = 0.0
        return residue

    @cached_property
    def slot_residue(self) -> np.ndarray:
        """Per child-table slot s, residue[child[s]]; +0.0 at a leaf's slots."""
        weight = self.residue.take(self.child)
        weight.reshape(-1, 2)[self.left == np.arange(self.left.size)] = 0.0
        return weight

    def regions(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Per node, the region of x that reaches it as (nodes, d) arrays lower and upper,
        lower < x <= upper. Level by level, a child takes its parent's bounds, one side narrowed
        at the parent's feature by np.minimum/np.maximum(bound, threshold): a tie keeps the threshold."""
        lower, upper = np.full((self.left.size, d), -np.inf), np.full((self.left.size, d), np.inf)
        level = self.roots
        while level.size:
            level = level[self.left[level] != level]
            left, right, feature = self.left[level], self.right[level], self.feature[level]
            lower[left] = lower[right] = lower[level]
            upper[left] = upper[right] = upper[level]
            upper[left, feature] = np.minimum(upper[level, feature], self.threshold[level])
            lower[right, feature] = np.maximum(lower[level, feature], self.threshold[level])
            level = np.concatenate([left, right])
        return lower, upper

    def _levels(self, x: np.ndarray, steps: list | None = None) -> Iterator[np.ndarray]:
        """The (trees, rows) node ids that the rows of x occupy, level by
        level: the roots first, then one step at a time until no row moves,
        which is when every row rests at its leaf. Each step appends to the list
        `steps`, if given, its contribution bins and weights as (trees, rows) arrays:
        the cells of x.ravel() the rows tested, and slot_residue at the slots taken."""
        n, d = x.shape
        values = x.ravel()
        row_start = np.arange(n) * d
        nodes = np.repeat(self.roots[:, None], n, axis=1)
        yield nodes
        for step in range(1, self.depth + 1):
            cells = self.feature.take(nodes) + row_start
            tested = values.take(cells)
            if steps is None:
                del cells  # kept only as bins: gone before the threshold gather
            go_left = tested <= self.threshold.take(nodes)
            del tested
            slots = 2 * nodes + go_left
            moved = self.child.take(slots)
            if step > self._first_rest and (moved == nodes).all():
                return
            if steps is not None:
                steps.append((cells, self.slot_residue.take(slots)))
            del slots  # gone before the next step's
            nodes = moved
            yield nodes

    def _walk(self, X: np.ndarray, block: int, steps: list | None = None) -> Iterator[tuple[slice, Iterator[np.ndarray]]]:
        """(rows, levels) per block of max(1, block) rows of X, levels being
        :meth:`_levels` of those rows, given `steps`."""
        block = max(1, block)
        for start in range(0, X.shape[0], block):
            rows = slice(start, min(start + block, X.shape[0]))
            yield rows, self._levels(X[rows], steps)

    def leaves(self, X: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """Route every row of X to its leaf in every tree, keeping no path.

        Yields (rows, leaves) per block of rows, leaves[t, i] being the
        global id of row ``rows.start + i``'s leaf in tree t, in blocks
        sized for this array alone.
        """
        for rows, levels in self._walk(X, BLOCK_NODE_IDS // self.roots.shape[0]):
            for nodes in levels:
                pass
            yield rows, nodes

    def _explain(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row of X, its (n, d) contributions and its leaf sum, from one walk
        that keeps each step's bins and weights (at most BLOCK_NODE_IDS of each), not its nodes."""
        n, d = X.shape
        contributions, leaf_sums, steps = np.zeros((n, d)), np.empty(n), []
        for rows, levels in self._walk(X, BLOCK_NODE_IDS // (self.roots.shape[0] * max(1, self.depth)), steps):
            steps.clear()
            for nodes in levels:
                pass
            if steps:  # none when every tree is a leaf
                cells_and_weights = (np.concatenate(arrays, axis=1).ravel() for arrays in zip(*steps))
                contributions[rows] = np.bincount(*cells_and_weights, nodes.shape[1] * d).reshape(-1, d)
            leaf_sums[rows] = self.leaf_sum(nodes)
        return contributions, leaf_sums

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
