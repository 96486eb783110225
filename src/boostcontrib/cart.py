"""Binary regression trees with conditional-mean node values.

Every node stores the mean of the training targets routed to it, so a
prediction can be read either as the leaf value or as the root value plus
the chain of child-minus-parent differences along the decision path. The
contribution machinery in :mod:`boostcontrib.contrib` relies on that
equivalence, which makes the conventions here load-bearing:

* a sample goes LEFT iff x[feature] <= threshold (equality routes left);
* candidate thresholds are midpoints between consecutive distinct sorted
  feature values, or the lower value where the midpoint rounds up to the
  higher one or overflows, so the test always separates the two;
* split quality is the absolute SSE reduction
  SSE(parent) - SSE(left) - SSE(right);
* gains tying the maximum within 1e-12 relative are broken uniformly at
  random using the caller-supplied generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby

import numpy as np

from .kernel import FlatForest

RELATIVE_TIE_TOLERANCE = 1e-12

# Padding a node's search to a larger node's size costs this many (row,
# feature) cells at most, per search call saved (see _runs). A call's fixed
# cost is that of about 2000 cells: fitted on 4-128-row nodes with 8, 10 and
# 20 features, shared 2-core x86_64 machine.
PAD_CELLS = 1024

# One search holds at most this many (node, row, feature) cells unless it
# holds one node, bounding its temporaries on wide levels of fits grown
# together; measured on the outlier study's fits, shared 2-core x86_64.
SEARCH_CELLS = 2**13

# A level of at most this many nodes does its per-node bookkeeping in Python
# lists, a wider one in arrays: fits timed the same with a cut-over of 8 to 64,
# narrow fits 5-9% slower at 0, the outlier study 13% slower at no limit.
LOOP_NODES = 16


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
    values per feature, or the lower value where the midpoint does not lie
    below the higher one; splits leaving fewer than min_samples_leaf rows on
    either side are excluded. Ties within 1e-12 relative of the maximum
    are resolved uniformly at random; rng is consulted only when two or
    more candidates tie, keeping single-winner searches draw-free.
    Refuses X and y as fit_cart does.
    """
    X, y = _check_training(X, y)
    n = y.shape[0]
    if n < 2 or (y == y[0]).all():
        return None
    Xt = np.ascontiguousarray(X.T)
    slab = Xt.argsort(axis=1, kind="stable")[:, None]
    _node, i, feature, low, high, gain = _search(
        Xt, y, slab, np.array([float(n)]), y.sum()[None], (y * y).sum()[None], min_samples_leaf, min_gain
    )
    if not i.size:
        return None
    pick = 0 if i.size == 1 else int(rng.integers(i.size))
    return int(feature[pick]), float(_threshold(low[pick], high[pick])), float(gain[0, i[pick], feature[pick]])


# A padded cell, which is invalid, may overflow. A valid one's sums are bounded
# by (sum of |y| over its left rows)^2 <= n * sum(y * y), which the fit keeps finite.
@np.errstate(over="ignore", invalid="ignore")
def _search(Xt, y, slab, counts, total, total_sq, min_samples_leaf, min_gain):
    """best_split over k nodes at once, without the draw.

    Xt is X transposed, C-contiguous. slab is a (d, k, m) array of row ids:
    slab[j, q] lists node q's counts[q] rows by increasing Xt[j], ties by
    row, then repeats its last row up to m. counts is a float array; total
    and total_sq are the (k,) sums of y and y * y over each node's rows,
    taken in row order. Every step is elementwise or runs along one node's
    run, and the padding only follows a run, so each node's candidates get
    the bits a search of its rows alone would; the repeats tie their values
    and are never valid.

    Returns (node, i, feature, low, high), one entry per candidate whose
    gain ties its node's maximum, for the nodes whose maximum clears
    min_gain, ordered by node, then i, then feature: the order best_split
    draws from. Candidate (i, feature) sends the first i + 1 rows of
    slab[feature, node] left; low and high are the values at i and i + 1.
    Last comes the (k, m - 1, d) array of gains, -inf where invalid.
    """
    d, k, m = slab.shape
    rows = slab.transpose(1, 2, 0)
    xs = Xt.take(rows + np.arange(0, Xt.size, Xt.shape[1]))
    ys = y.take(rows[:, :-1])
    left_sum = ys.cumsum(axis=1)
    ys *= ys
    left_sq = ys.cumsum(axis=1)
    n_left = np.arange(1, m, dtype=np.float64)[:, None]
    n, total, total_sq = counts[:, None, None], total[:, None, None], total_sq[:, None, None]
    n_right = np.maximum(n - n_left, 1.0)  # n - n_left wherever a candidate is valid

    # sse = sum of squares - sum * sum / count, on each side of each candidate
    right_sum = np.subtract(total, left_sum, out=ys)  # into spent arrays: six slab-sized ones at most
    right_sq = total_sq - left_sq
    left_sum *= left_sum
    left_sum /= n_left
    left_sq -= left_sum
    right_sum *= right_sum
    right_sum /= n_right
    right_sq -= right_sum
    gain = np.subtract(total_sq - total * total / n, left_sq, out=left_sq)
    gain -= right_sq

    invalid = xs[:, :-1] == xs[:, 1:]
    if min_samples_leaf > 1:
        invalid |= (n_left < min_samples_leaf) | (n_right < min_samples_leaf)
    gain[invalid] = -np.inf

    best = np.maximum.reduce(gain, axis=(1, 2))
    floor = np.where(best > min_gain, best - RELATIVE_TIE_TOLERANCE * np.abs(best), np.inf)
    tie = (gain >= floor[:, None, None]).ravel().nonzero()[0]
    node, at = divmod(tie, (m - 1) * d)
    i, feature = divmod(at, d)
    cell = tie + node * d  # (node, i, feature) in xs
    return node, i, feature, xs.take(cell), xs.take(cell + d), gain


def _threshold(low, high):
    """The split point between consecutive distinct values low < high: their
    midpoint, or low where the midpoint rounds up to high or overflows. So
    x <= threshold holds exactly for the values up to low."""
    with np.errstate(over="ignore"):
        mid = (low + high) / 2.0
    return np.where((low <= mid) & (mid < high), mid, low)


def fit_cart(
    X: np.ndarray,
    y: np.ndarray,
    params: CartParams,
    rng: np.random.Generator,
) -> Tree:
    """Grow a tree by recursive best-split partitioning of (X, y).

    The root holds the mean of all targets; growth stops at max_depth,
    when a node has fewer than min_samples_split rows, or when best_split
    finds nothing. Node ids are assigned in preorder (left subtree first),
    so identical inputs and generator state reproduce the tree node by node.
    Raises ValueError naming the first row of X or y that holds NaN or ±inf.
    """
    X, y = _check_training(X, y)
    return _grow(y, _presort([X]), params, [lambda: rng])[0][0]


def _presort(Xs):
    """What growing one tree on each X of Xs at once starts from: their rows
    stacked and transposed, the roots' block (see _Grower) and each X's row
    count."""
    Xts = [np.ascontiguousarray(X.T) for X in Xs]
    counts = [X.shape[0] for X in Xs]
    blocks = [
        np.concatenate([Xt.argsort(axis=1, kind="stable"), np.arange(Xt.shape[1])[None]]) + offset
        for Xt, offset in zip(Xts, accumulate(counts, initial=0))
    ]
    return np.concatenate(Xts, axis=1), np.concatenate(blocks, axis=1), counts


def _grow(y, presorted, params: CartParams, rngs) -> tuple[list[Tree], np.ndarray]:
    """fit_cart on finite float arrays, given _presort(Xs) and y the Xs'
    targets stacked: the tree of each X, drawing from the generator that
    its callable of rngs returns, called at the tree's first draw.
    Also returns the value of the leaf each stacked row falls in, read off
    the grower's own partition of the rows."""
    Xt, block, counts = presorted
    grower = _Grower(Xt, y, params)
    grower.grow(block, np.array(counts), 0)
    return grower.walk(rngs), np.array(grower.value).take(grower.leaf)


_LEAF_CANDIDATE = np.zeros((3, 1))  # feature, low, high


class _Grower:
    """Trees grown level by level, then numbered by a preorder walk.

    Each tree is the one a depth-first recursion grows that calls best_split
    on each node's rows, draws as it goes and numbers nodes in preorder.
    The trees of independent fits grow together, one root per fit, their
    rows stacked: every node holds one fit's rows, so none sees another's.
    A level's nodes are runs of one block: for j < d, row j of the block
    lists each node's rows sorted by (X[:, j], row), as a stable argsort
    of the node's own rows orders them, and row d lists them in increasing
    order. Splitting a level keeps those orders (`_partition`), so nothing
    is sorted after the first level. Each node's sums of y and y * y are
    taken as one row of a (2, k, n) array of all the level's nodes of its
    size, which gives the node's own bits. Nodes of similar sizes are
    searched together, padded (`_runs`). A level's bookkeeping (first
    candidates, side marks, tied candidates, child links) is a fixed number
    of array calls, or a loop over its nodes if it has LOOP_NODES at most;
    only the walk's draws go node by node.

    The rngs wait for the walk, which visits the roots in turn and draws at
    each tied node, one with more than one candidate, from its root's rng,
    in the order the recursion would; a root's rng is only made at its
    first draw. `_check_ties` compares the row sets
    of a tied node's candidates. If they all split its rows into the same
    two sets, as a column and its exact or increasing copy do, the node's
    children grow with the level; the draw only picks the split and which
    child is left. If they split its rows differently, the node is held: it
    stays a leaf until the walk has drawn its split (`_grow_held`).

    Nodes are "records" here, numbered as they are grown. Per record, the
    walk reads `n_cand` candidates from `first` on, and the children `left`
    and `right` of the first candidate's split, -1 at a leaf or a held node.
    Candidates are numbered as found; `cands` keeps their features and the
    values `low` and `high` their thresholds lie between, a search at a
    time. `swap` flags, per candidate, one that swaps its node's children,
    and `held` holds what a held node's growth needs. `leaf` holds each
    row's record at the deepest level grown so far, so its leaf's once the
    trees are grown.
    """

    def __init__(self, Xt, y, params: CartParams):
        self.Xt = Xt
        self.yy = np.stack([y, y * y])  # y is yy[0]
        self.params = params
        self.side = np.empty(y.size, dtype=np.int8)  # per row: 0 left, 1 right, 2 stays
        self.leaf = np.empty(y.size, dtype=np.intp)
        self.value, self.n_samples, self.n_cand, self.first, self.left, self.right = [], [], [], [], [], []
        self.cands, self.n_stored = [], 0
        self.swap, self.held = bytearray(), {}

    def grow(self, block, counts, depth) -> int:
        """Grow the nodes that `block` lists, counts[q] rows for node q, at
        `depth`, and all their descendants; return the first one's record,
        which the others follow."""
        first = len(self.n_cand)
        while counts.size:
            block, counts = self._level(block, counts, depth)
            depth += 1
        return first

    def _level(self, block, counts, depth):
        """Record one level's nodes; return the next level's block and
        counts, or no counts after the last level."""
        params, side, d = self.params, self.side, block.shape[0] - 1
        size, base, c0 = counts.size, len(self.n_cand), self.n_stored
        starts = counts.cumsum() - counts
        self.leaf[block[d]] = np.arange(base, base + size).repeat(counts)
        yy = self.yy.take(block[d], axis=1)
        stats = np.empty((3, size))  # per node: rows, sum of y, sum of y * y
        stats[0] = counts
        order = counts.argsort(kind="stable")  # by size, then node
        starts_at, counts_at = starts.tolist(), counts.tolist()
        for n, nodes in groupby(order.tolist(), counts_at.__getitem__):  # summed as the rows of one (2, k, n) array
            if len(nodes := list(nodes)) == 1:
                stats[1:, nodes[0]] = np.add.reduce(yy[:, starts_at[nodes[0]]:starts_at[nodes[0]] + n], axis=1)
            else:
                stats[1:, nodes] = np.add.reduce(yy.take(starts.take(nodes)[:, None] + np.arange(n), axis=1), axis=2)
        self.value += (stats[1] / stats[0]).tolist()  # np.mean's sum and division
        self.n_samples += counts_at

        found = []  # per search: its candidates' nodes, i and features
        if depth < params.max_depth:
            live = np.maximum.reduceat(yy[0], starts) > np.minimum.reduceat(yy[0], starts)  # differing targets: 2 rows at least
            if params.min_samples_split > 2:
                live &= counts >= params.min_samples_split
            searched = order.compress(live.take(order))
            sizes = counts.take(searched).tolist()
            for j, k in _runs(sizes, d):
                nodes, width = searched[j:k], sizes[k - 1]
                if k - j == 1:
                    s = starts_at[nodes[0]]
                    slab = block[:d, s:s + width].reshape(d, 1, width)
                else:  # each node's run, then its last row repeated up to the width
                    pos = np.minimum(np.arange(width), counts.take(nodes)[:, None] - 1)
                    slab = block[:d].take(starts.take(nodes)[:, None] + pos, axis=1)
                node, i, f, low, high, _gain = _search(
                    self.Xt, self.yy[0], slab, *stats.take(nodes, axis=1), params.min_samples_leaf, params.min_gain
                )
                self.cands.append(np.array([f, low, high]))
                found.append(np.array([nodes.take(node), i, f]))
        q, i, f = found = np.concatenate(found, axis=1) if len(found) > 1 else found[0] if found else np.empty((3, 0), np.intp)
        self.n_stored += q.size
        self.swap += bytes(q.size)
        if not q.size:  # every node is a leaf
            n_cand, first, left, right, counts = [0] * size, [-1] * size, [-1] * size, [-1] * size, counts[:0]
        elif size <= LOOP_NODES:  # a few nodes: each per-node step is cheaper in Python
            n_cand, first, n_left, f_left = [0] * size, [-1] * size, [0] * size, [0] * size
            for c, (node, i_c, f_c) in enumerate(zip(*found.tolist()), start=c0):
                if not n_cand[node]:  # each node's first candidate: _search lists them node by node
                    first[node], n_left[node], f_left[node] = c, i_c + 1, f_c
                n_cand[node] += 1
            # Each split node's rows go right, but for its first candidate's left rows.
            side[block[d]] = 2
            for s, n, n_l, f_l in zip(starts_at, counts_at, n_left, f_left):
                if n_l:
                    side[block[d, s:s + n]] = 1
                    side[block[f_l, s:s + n_l]] = 0
            if tied := [node for node, m in enumerate(n_cand) if m > 1]:
                n_left = self._check_ties(block, starts, counts, tied, np.array(n_left), found, c0, base, depth).tolist()
            split = [node for node, n_l in enumerate(n_left) if n_l]
            left, right = [-1] * size, [-1] * size
            for at, node in enumerate(split, start=base + size):
                left[node], right[node] = at, at + len(split)
            lefts = [n_left[node] for node in split]
            counts = np.array(lefts + [counts_at[node] - n for node, n in zip(split, lefts)], dtype=np.intp)
        else:
            new = np.ones(q.size, dtype=bool)
            new[1:] = q[1:] != q[:-1]
            at = new.nonzero()[0]  # each node's first candidate: _search lists them node by node
            split = q.take(at)
            n_cand = np.bincount(q, minlength=size)
            n_left = np.zeros(size, dtype=np.intp)
            n_left[split] = lengths = i.take(at) + 1
            first = np.full(size, -1)
            first[split] = at + c0
            # Each split node's rows go right, but for its first candidate's left rows.
            side[block[d]] = (n_left == 0).repeat(counts) + 1
            side[_prefixes(block, f.take(at), starts.take(split), lengths)[0]] = 0
            tied = (n_cand > 1).nonzero()[0]
            if tied.size:
                n_left = self._check_ties(block, starts, counts, tied, n_left, found, c0, base, depth)
            split = n_left.nonzero()[0]
            links = np.full((2, size), -1)
            links[:, split] = np.arange(base + size, base + size + 2 * split.size).reshape(2, -1)
            lefts = n_left.take(split)
            n_cand, first, (left, right) = n_cand.tolist(), first.tolist(), links.tolist()
            counts = np.concatenate([lefts, counts.take(split) - lefts])
        for records, column in zip((self.n_cand, self.first, self.left, self.right), (n_cand, first, left, right)):
            records.extend(column)
        if not counts.size:  # no split, or every split was held
            return None, counts
        if depth + 1 == params.max_depth:
            block = block[d:]  # the children are leaves: only their sums are taken
        return _partition(block, side), counts

    def _check_ties(self, block, starts, counts, tied, n_left, found, c0, base, depth):
        """Sort out the level's `tied` nodes, given its candidates `found`
        (node, i, feature), numbered from c0, and each node's n_left. A
        candidate that sends the first candidate's left rows left only
        picks the split; one that sends its right rows left also swaps the
        children. If any sends a third set of rows left, the node is held:
        it leaves this level's split. Returns n_left, held nodes' set to 0."""
        q, i, f = found
        is_tied = np.zeros(counts.size, dtype=bool)
        is_tied[tied] = True
        c = is_tied.take(q).nonzero()[0]
        node, lengths, f = q.take(c), i.take(c) + 1, f.take(c)
        # The first candidate's left rows among each candidate's first i + 1.
        rows, offsets = _prefixes(block, f, starts.take(node), lengths)
        in_prefix = np.add.reduceat(self.side.take(rows) == 0, offsets, dtype=np.intp)
        n_l = n_left.take(node)
        swaps = (lengths == counts.take(node) - n_l) & (in_prefix == 0)
        agrees = swaps | ((lengths == n_l) & (in_prefix == n_l))
        for c_swap in (c.compress(swaps) + c0).tolist():
            self.swap[c_swap] = 1
        for q in set(node.compress(~agrees).tolist()):
            own, s, e = node == q, int(starts[q]), int(starts[q] + counts[q])
            self.side[block[-1, s:e]] = 2
            n_left[q] = 0
            self.held[base + q] = (depth, block[:, s:e].copy(), f.compress(own).tolist(), lengths.compress(own).tolist())
        return n_left

    def _grow_held(self, record, pick) -> int:
        """Grow held `record`'s children by its candidate `pick`; return the
        left one's record, which the right one follows."""
        depth, block, features, n_lefts = self.held.pop(record)
        n_left = n_lefts[pick]
        self.side[block[-1]] = 1
        self.side[block[features[pick], :n_left]] = 0
        return self.grow(_partition(block, self.side), np.array([n_left, block.shape[1] - n_left]), depth + 1)

    def walk(self, rngs) -> list[Tree]:
        """The trees of roots 0, 1, ..., each with its records numbered in
        preorder, left subtree first, drawing each tied node's split from
        its root's rng when the walk reaches it. rngs holds a callable per
        root that returns its rng."""
        left, right, first, n_cand = self.left, self.right, self.first, self.n_cand
        visit, chosen, ends = [], [], []
        for root, make_rng in enumerate(rngs):
            stack, rng = [root], None
            while stack:
                record = stack.pop()
                visit.append(record)
                m = n_cand[record]
                if not m:
                    chosen.append(-1)
                    continue
                c = first[record]
                if m > 1:
                    rng = rng or make_rng()
                    pick = int(rng.integers(m))
                    c += pick
                    if record in self.held:
                        left[record] = self._grow_held(record, pick)
                        right[record] = left[record] + 1
                    elif self.swap[c]:
                        left[record], right[record] = right[record], left[record]
                chosen.append(c)
                stack += (right[record], left[record])
            ends.append(len(visit))
        starts = [0, *ends[:-1]]
        visit, chosen = np.array(visit), np.array(chosen)
        ids = np.empty(len(n_cand), dtype=np.int64)
        ids[visit] = own = np.arange(visit.size) - np.repeat(starts, np.subtract(ends, starts))
        left, right = np.where(chosen < 0, own, ids.take(np.array([left, right]).take(visit, axis=1)))
        # A leaf's `chosen` of -1 picks an appended feature 0 and bounds 0.0, so threshold 0.0.
        feature, low, high = np.concatenate([*self.cands, _LEAF_CANDIDATE], axis=1).take(chosen, axis=1)
        value, n_samples = np.array(self.value).take(visit), np.array(self.n_samples).take(visit)
        fields = (feature.astype(np.int64), _threshold(low, high), left, right, value, n_samples)
        # Copies, not views: a view of one fit's tree would keep every fit's nodes alive.
        return [Tree(*(field[a:b].copy() for field in fields), n_features=self.Xt.shape[0]) for a, b in zip(starts, ends)]


def _runs(sizes, d):
    """Cut `sizes`, the sizes of the nodes to search in increasing order,
    into runs that one search takes, as (first, end) index pairs, each node
    padded to its run's largest. A run takes in another node while it pads
    at most PAD_CELLS cells per node beyond its first and holds at most
    SEARCH_CELLS cells."""
    j = 0
    while j < len(sizes):
        k, rows = j + 1, sizes[j]
        while k < len(sizes) and (n := sizes[k]) * (k - j + 1) <= min(
            SEARCH_CELLS // d, rows + n + PAD_CELLS * (k - j) // d
        ):
            rows += n
            k += 1
        yield j, k
        j = k


def _prefixes(block, feature, start, length):
    """The cells block[feature[c], start[c]:start[c] + length[c]] for each c,
    one run after another, and where each run begins."""
    offsets = length.cumsum() - length
    return block.take((feature * block.shape[1] + start - offsets).repeat(length) + np.arange(length.sum())), offsets


def _partition(block, side):
    """`block` with the rows of side 0 first, then those of side 1, each
    part in the order it had; rows of side 2 are dropped. So each node's
    left rows come first, node by node, then the right ones."""
    cells, sides = block.ravel(), side.take(block).ravel()
    halves = [cells.compress(sides == s).reshape(block.shape[0], -1) for s in (0, 1)]
    return np.concatenate(halves, axis=1)


def _check_training(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X and y as finite float arrays of shapes (n, d) and (n,), n, d >= 1."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) and y (n,) with matching n")
    if y.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError("need at least one sample and one feature")
    _check_finite(np.column_stack([X, y]))
    return X, y


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
    """Node ids from root to the leaf reached by x, in traversal order: a
    batch of one through the kernel, which refuses nodes that are not a tree."""
    x = _check_vector(tree, x)
    return [nodes[0, 0].item() for nodes in FlatForest.of([tree], 1.0)._levels(x[None])]


def tree_predict(tree: Tree, x) -> float:
    """Value of the leaf reached by routing x from the root."""
    return float(tree.value[decision_path(tree, x)[-1]])
