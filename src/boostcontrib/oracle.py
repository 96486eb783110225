"""Independent brute-force checkers used by tests and the verify command.

Nothing here calls the traversal code in :mod:`boostcontrib.cart`,
:mod:`boostcontrib.kernel` or :mod:`boostcontrib.contrib`; each tree's
arrays are walked by direct descent, preorder with an explicit stack, so the
implementations can be compared against each other; only cart's row check
is shared. Summation order (tree-major, path-minor) deliberately matches the
contribution module, making equality exact instead of tolerance-based. Leaf
regions are (lower, upper) arrays, one row per leaf. The module favors
obvious correctness over speed.
"""

from __future__ import annotations

import numpy as np

from .boosting import Ensemble
from .cart import Tree, _check_matrix, _check_vector

# Most probe x region cells held at once by count_containing_regions: each
# is one byte of its boolean mask or of a temporary as large.
CHUNK_CELLS = 1 << 20


def naive_contributions(ens: Ensemble, x) -> tuple[float, np.ndarray]:
    """Recompute (bias, per-feature contributions) of one row by descent, as
    a batch of one."""
    bias, contributions = naive_contributions_batch(ens, _check_vector(ens, x)[None])
    return bias, contributions[0]


def naive_contributions_batch(ens: Ensemble, X) -> tuple[float, np.ndarray]:
    """Recompute the bias and the (n, n_features) contributions of the rows
    of X by descent from each root, carrying the set of rows that reach each
    node. Every row gets its adds tree by tree and, within a tree, edge by
    edge from the root: tree-major, path-minor."""
    X = _check_matrix(ens, X)
    contributions = np.zeros(X.shape, dtype=np.float64)
    bias = ens.f0
    for tree in ens.trees:
        bias += ens.learning_rate * tree.value[tree.root].item()
        stack = [(tree.root, np.arange(X.shape[0]))]  # an explicit stack: depth is unbounded
        while stack:
            node, rows = stack.pop()
            if tree.left[node] == node or rows.size == 0:
                continue
            feature = tree.feature[node]
            go_left = X[rows, feature] <= tree.threshold[node]
            children = ((tree.left[node], rows[go_left]), (tree.right[node], rows[~go_left]))
            for child, child_rows in children:
                contributions[child_rows, feature] += ens.learning_rate * (
                    tree.value[child] - tree.value[node]
                )
            stack += reversed(children)  # left is visited first
    return bias, contributions


def enumerate_leaf_regions(tree: Tree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The leaf regions of tree, leaves in preorder, as (lower, upper, value)
    of shapes (r, d), (r, d) and (r,): region i holds the points x with
    lower[i] < x <= upper[i], the splits intersected root to leaf i."""
    lowers, uppers, leaves = [], [], []
    # Bounds are copied before each write, so a child may share its parent's.
    stack = [(tree.root, np.full(tree.n_features, -np.inf), np.full(tree.n_features, np.inf))]
    while stack:
        node, lower, upper = stack.pop()
        if tree.left[node] == node:
            lowers.append(lower)
            uppers.append(upper)
            leaves.append(node)
            continue
        feat, th = tree.feature[node], tree.threshold[node]
        left_upper = upper.copy()
        left_upper[feat] = min(left_upper[feat], th)
        right_lower = lower.copy()
        right_lower[feat] = max(right_lower[feat], th)
        stack.append((tree.right[node], right_lower, upper))
        stack.append((tree.left[node], lower, left_upper))  # left is visited first
    return np.array(lowers), np.array(uppers), tree.value[leaves]


def count_containing_regions(lower, upper, probes) -> np.ndarray:
    """How many of the regions (lower, upper), as enumerate_leaf_regions
    gives them, contain each probe; exhaustive, no tree traversal. A column
    that every region leaves unbounded (-inf below, +inf above) and every
    probe holds finite passes every test, so only the other columns are
    tested, one at a time, into a regions x probes mask. Probes are taken
    in chunks of at most CHUNK_CELLS mask cells (at least one probe), which
    bounds the working memory."""
    probes = np.asarray(probes, dtype=np.float64)
    n_regions, d = lower.shape
    if probes.ndim != 2 or probes.shape[1] != d:
        raise ValueError(f"probes must be (n, {d}) like the regions, got shape {probes.shape}")
    columns = np.ascontiguousarray(probes.T)
    tested = (lower != -np.inf).any(axis=0) | (upper != np.inf).any(axis=0)
    tested |= ~np.isfinite(columns).all(axis=1)
    lower, upper = lower.T[tested, :, None], upper.T[tested, :, None]
    chunk = max(1, CHUNK_CELLS // max(n_regions, 1))
    counts = np.empty(probes.shape[0], dtype=np.int64)
    for start in range(0, probes.shape[0], chunk):
        p = columns[tested, start : start + chunk]
        inside = np.ones((n_regions, p.shape[1]), dtype=bool)
        for column, low, high in zip(p, lower, upper):
            inside &= low < column
            inside &= column <= high
        counts[start : start + chunk] = inside.sum(axis=0)
    return counts


def check_partition(lower, upper, probes) -> bool:
    """True iff every probe lies in exactly one of the regions (lower, upper)."""
    return bool(np.all(count_containing_regions(lower, upper, probes) == 1))


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
