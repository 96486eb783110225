"""Independent brute-force checkers used by tests and the verify command.

Nothing here calls the traversal code in :mod:`boostcontrib.cart`,
:mod:`boostcontrib.kernel` or :mod:`boostcontrib.contrib`; each tree's
arrays are walked by direct recursive descent so the implementations can
be compared against each other. Summation order (tree-major, path-minor)
deliberately matches the contribution module, making equality exact
instead of tolerance-based. The module favors obvious correctness over
speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boosting import Ensemble
from .cart import Tree

# Most probe x region cells held at once by count_containing_regions: each
# is one byte of its boolean mask or of a temporary as large.
CHUNK_CELLS = 1 << 20


@dataclass(frozen=True)
class RegionBox:
    """Axis-aligned box with open lower and closed upper bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(self.lower < x) and np.all(x <= self.upper))


def naive_contributions(ens: Ensemble, x) -> tuple[float, np.ndarray]:
    """Recompute (bias, per-feature contributions) of one row by recursive
    descent, as a batch of one."""
    bias, contributions = naive_contributions_batch(ens, np.asarray(x, dtype=np.float64)[None])
    return bias, contributions[0]


def naive_contributions_batch(ens: Ensemble, X) -> tuple[float, np.ndarray]:
    """Recompute the bias and the (n, n_features) contributions of the rows
    of X by recursive descent, carrying the set of rows that reach each node.
    Every row gets its adds tree by tree and, within a tree, edge by edge
    from the root: tree-major, path-minor."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != ens.n_features:
        raise ValueError(f"expected rows of {ens.n_features} features, got shape {X.shape}")
    contributions = np.zeros(X.shape, dtype=np.float64)

    def descend(tree: Tree, node: int, rows: np.ndarray) -> None:
        if tree.left[node] == node or rows.size == 0:
            return
        feature = tree.feature[node]
        go_left = X[rows, feature] <= tree.threshold[node]
        children = ((tree.left[node], rows[go_left]), (tree.right[node], rows[~go_left]))
        for child, child_rows in children:
            contributions[child_rows, feature] += ens.learning_rate * (
                tree.value[child] - tree.value[node]
            )
            descend(tree, child, child_rows)

    bias = ens.f0
    for tree in ens.trees:
        bias += ens.learning_rate * tree.value[tree.root].item()
        descend(tree, tree.root, np.arange(X.shape[0]))
    return bias, contributions


def enumerate_leaf_regions(tree: Tree) -> list[tuple[RegionBox, float]]:
    """One (box, leaf value) pair per leaf, intersecting splits root-to-leaf."""
    regions = []

    def descend(node: int, lower: np.ndarray, upper: np.ndarray) -> None:
        if tree.left[node] == node:
            regions.append((RegionBox(lower=lower, upper=upper), tree.value[node].item()))
            return
        feat, th = tree.feature[node], tree.threshold[node]
        left_upper = upper.copy()
        left_upper[feat] = min(left_upper[feat], th)
        descend(tree.left[node], lower.copy(), left_upper)
        right_lower = lower.copy()
        right_lower[feat] = max(right_lower[feat], th)
        descend(tree.right[node], right_lower, upper.copy())

    descend(
        tree.root,
        np.full(tree.n_features, -np.inf),
        np.full(tree.n_features, np.inf),
    )
    return regions


def count_containing_regions(regions, probes) -> np.ndarray:
    """How many regions contain each probe; exhaustive, no tree traversal.
    A column that every region leaves unbounded (-inf below, +inf above)
    and every probe holds finite passes every test, so only the other
    columns are tested, one at a time, into a regions x probes mask. Probes
    are taken in chunks of at most CHUNK_CELLS mask cells (at least one
    probe), which bounds the working memory."""
    probes = np.asarray(probes, dtype=np.float64)
    if probes.ndim != 2:
        raise ValueError(f"probes must be (n, d), got shape {probes.shape}")
    if not regions:
        return np.zeros(probes.shape[0], dtype=np.int64)
    lower = np.array([box.lower for box, _value in regions]).T
    upper = np.array([box.upper for box, _value in regions]).T
    columns = np.ascontiguousarray(probes.T)
    tested = (lower != -np.inf).any(axis=1) | (upper != np.inf).any(axis=1)
    tested |= ~np.isfinite(columns).all(axis=1)
    lower, upper = lower[tested, :, None], upper[tested, :, None]
    chunk = max(1, CHUNK_CELLS // len(regions))
    counts = np.empty(probes.shape[0], dtype=np.int64)
    for start in range(0, probes.shape[0], chunk):
        p = columns[tested, start : start + chunk]
        inside = np.ones((len(regions), p.shape[1]), dtype=bool)
        for column, low, high in zip(p, lower, upper):
            inside &= low < column
            inside &= column <= high
        counts[start : start + chunk] = inside.sum(axis=0)
    return counts


def check_partition(regions, probes) -> bool:
    """True iff every probe lies in exactly one region."""
    return bool(np.all(count_containing_regions(regions, probes) == 1))


def sample_probes(X, n_probes: int, seed: int) -> np.ndarray:
    """Uniform probes over the data bounding box inflated by one range-width
    per side, so unbounded intervals get exercised too. The box is clipped
    to half the float range per side, so its width stays finite for data
    near the float maximum."""
    X = np.asarray(X, dtype=np.float64)
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    limit = np.finfo(np.float64).max / 2
    with np.errstate(over="ignore"):
        span = hi - lo
        low, high = np.clip(lo - span, -limit, limit), np.clip(hi + span, -limit, limit)
    return np.random.default_rng(seed).uniform(low, high, size=(n_probes, X.shape[1]))
