"""Stage-wise boosting of regression trees on squared-loss residuals.

The ensemble prediction is f0 + learning_rate * sum of tree outputs, with
f0 fixed to the training-target mean and the learning rate applied
uniformly to every tree (never to f0). Tree l draws its random state from
``np.random.default_rng([seed, l])`` with l counted from 1, also where fits
grow together (the studies do): the streams are per fit and unchanged. So
growing an ensemble never perturbs the trees already fit; stream [seed, 0]
is left free for callers (the experiment runners use it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import accumulate

import numpy as np

from .cart import CartParams, Tree, _check_matrix, _check_vector, _grow, _presort
from .data import DataError, Dataset
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

    `flat` holds every tree's nodes in the kernel's layout, the one that
    fit and load build and that traversal, importance and save read; its
    residues are scaled by its own learning rate, so the two rates must be
    equal. `params` is a provenance record for freshly fitted ensembles;
    models restored from disk carry None there (the file format stores only
    the predictive state).
    """

    f0: float
    learning_rate: float
    flat: FlatForest
    feature_names: tuple[str, ...]
    params: GbdtParams | None = None

    def __post_init__(self):
        if self.learning_rate != self.flat.learning_rate:
            raise ValueError(
                f"learning_rate {self.learning_rate!r} differs from the forest's {self.flat.learning_rate!r}"
            )

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @cached_property
    def trees(self) -> list[Tree]:
        """`flat` cut into one Tree per tree, on first use: views of its
        arrays, but for the child links, which are made local to the tree."""
        f = self.flat
        return [
            Tree(f.feature[a:b], f.threshold[a:b], f.left[a:b] - a, f.right[a:b] - a,
                 f.value[a:b], f.n_samples[a:b], root - a, self.n_features)
            for a, b, root in _tree_spans(f)
        ]

    @cached_property
    def regions(self) -> tuple[np.ndarray, np.ndarray]:
        """`flat.regions(n_features)`, the leaf-region table, built on first use."""
        return self.flat.regions(self.n_features)


def _tree_spans(flat: FlatForest):
    """Per tree of flat: its first node's id, the next tree's first and its root's."""
    bounds = np.append(flat.starts, flat.value.size).tolist()
    return zip(bounds, bounds[1:], flat.roots.tolist())


def fit_gbdt(ds: Dataset, params: GbdtParams) -> Ensemble:
    """Fit trees sequentially, each on the residuals of the running model.
    Every tree is grown as fit_cart grows it, from one sort of the columns;
    ds is already checked, so its rows are not checked again per tree. The
    running model takes each row's leaf value from the grower's partition
    of the rows, which is the one `x <= threshold` routing gives: no row is
    traversed. Raises DataError before a stage whose n * sum(r * r) over
    the residuals r is not finite, since its split sums could overflow."""
    return _fit_group([ds], params, [params.seed])[0]


def _fit_group(datasets: list[Dataset], params: GbdtParams, seeds) -> list[Ensemble]:
    """fit_gbdt(ds, params with seed s) for each ds of `datasets`, all with
    as many features, and s of `seeds`. Stage l of every fit is grown by one
    grower over the fits' stacked rows; each fit's tree still draws from its
    own stream [s, l], and each row's running value and residual are the
    bits its fit alone gives, so every model equals its separate fit."""
    with np.errstate(over="ignore", invalid="ignore"):
        f0 = [float(np.mean(ds.target)) for ds in datasets]
    presorted = _presort([ds.features for ds in datasets])
    target = np.concatenate([ds.target for ds in datasets])
    counts = np.array(presorted[2])
    starts = counts.cumsum() - counts
    running = np.repeat(f0, counts)
    stages: list[list[Tree]] = []
    for l in range(1, params.n_estimators + 1):
        # Every sum the split search forms is at most n * sum(r * r) over its
        # fit's rows, so a stage whose bound is finite cannot overflow there.
        with np.errstate(over="ignore", invalid="ignore"):
            residual = target - running
            bound = np.add.reduceat(residual * residual, starts) * counts
        if not np.isfinite(bound).all():
            raise DataError(
                f"targets too large to fit: n * (sum of squared residuals) overflows at stage {l}; scale them down"
            )
        rngs = [partial(np.random.default_rng, [seed, l]) for seed in seeds]  # made at a tree's first draw
        grown, leaf_value = _grow(residual, presorted, params.cart, rngs)
        # + 0.0 turns -0.0 into +0.0, as the kernel's leaf sum (a bincount from
        # +0.0) does, so the running model keeps the bits that update gave.
        running = running + params.learning_rate * (leaf_value + 0.0)
        stages.append(grown)
    fits = list(zip(*stages))
    del stages, grown  # so each fit's trees go once its forest holds their nodes
    return [
        Ensemble(f, params.learning_rate, FlatForest.of(fits.pop(0), params.learning_rate), ds.feature_names, replace(params, seed=seed))
        for f, ds, seed in zip(f0, datasets, seeds)
    ]


def gbdt_predict(ens: Ensemble, x) -> float:
    """f0 + learning_rate * sum of per-tree leaf values, in tree order."""
    return float(predict_batch(ens, _check_vector(ens, x)[None])[0])


def predict_batch(ens: Ensemble, X) -> np.ndarray:
    """gbdt_predict for every row of an (n, d) array, in one leaf walk of the kernel."""
    X = _check_matrix(ens, X)
    out = np.empty(X.shape[0], dtype=np.float64)
    for rows, leaves in ens.flat.leaves(X):
        out[rows] = ens.f0 + ens.learning_rate * ens.flat.leaf_sum(leaves)
    return out


def node_split_gain(tree: Tree | FlatForest) -> np.ndarray:
    """Per node of a Tree or FlatForest, the SSE reduction of its split; exactly 0.0 at a leaf.

    Uses the between-children identity
    n_l*(v_l - v)^2 + n_r*(v_r - v)^2, which depends only on serialized
    fields and therefore works identically for fitted and loaded models.
    The squares are libm's pow, as Python's ``**`` computes them: d * d
    differs from it in the last bit for about 0.1% of values.
    """
    n, v, left, right = tree.n_samples, tree.value, tree.left, tree.right
    return n[left] * np.float_power(v[left] - v, 2) + n[right] * np.float_power(v[right] - v, 2)


def feature_importance(ens: Ensemble) -> np.ndarray:
    """Per-feature split gains summed over all trees, normalized to 1.

    This is the global "which feature split the data best" measure, as
    opposed to the per-sample contributions in :mod:`boostcontrib.contrib`.
    Gains are added tree by tree in node order; a leaf adds +0.0 to
    feature 0, which changes no sum. Raises ValueError unless the total of
    the gains is finite and positive.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing total is refused below
        gains = np.bincount(ens.flat.feature, weights=node_split_gain(ens.flat), minlength=ens.n_features)
        total = gains.sum()
    if not np.isfinite(total):
        raise ValueError(f"split gains overflow (their total is {total}); importance undefined")
    if total <= 0.0:
        raise ValueError("no splits; importance undefined")
    return gains / total


NODE_KEYS = ("id", "value", "n_samples", "feature", "threshold", "left", "right")


# A node as json.dump(payload, fh, indent=2) writes it in a model file.
_NODE_TEXT = "        {\n" + ",\n".join(f'          "{key}": %s' for key in NODE_KEYS) + "\n        }"


def _tree_text(flat: FlatForest, a: int, b: int, root: int) -> str:
    """The tree of flat's nodes a to b, rooted at `root`, as json.dump(payload, fh, indent=2)
    writes it in a model file. That encoder is pure Python; each column here goes through json's C one."""
    ids, left, right = np.arange(b - a), flat.left[a:b] - a, flat.right[a:b] - a
    split = (np.where(left == ids, None, column) for column in (flat.feature[a:b], flat.threshold[a:b], left, right))
    columns = (ids, flat.value[a:b], flat.n_samples[a:b], *split)
    cells = (json.dumps(column.tolist())[1:-1].split(", ") for column in columns)
    nodes = ",\n".join(_NODE_TEXT % node for node in zip(*cells))
    return f'    {{\n      "root": {root - a},\n      "nodes": [\n{nodes}\n      ]\n    }}'


def save_model(ens: Ensemble, path) -> None:
    """Write the versioned JSON model file (full float round-trip precision),
    byte for byte as json.dump(payload, fh, indent=2) would. The text is
    written a tree at a time from `flat`, so no more than one tree's text is held."""
    names = json.dumps(list(ens.feature_names), indent=2).replace("\n", "\n  ")
    with open(path, "w") as fh:
        fh.write(
            f'{{\n  "format_version": {MODEL_FORMAT_VERSION},\n'
            f'  "f0": {json.dumps(ens.f0)},\n  "learning_rate": {json.dumps(ens.learning_rate)},\n'
            f'  "feature_names": {names},\n  "trees": ['
        )
        fh.writelines(f"{',' if a else ''}\n{_tree_text(ens.flat, a, b, root)}" for a, b, root in _tree_spans(ens.flat))
        fh.write("\n  ]\n}\n")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ModelFormatError(message)


def _trees_from_dicts(raw_trees: list, n_features: int, f0: float, learning_rate: float) -> FlatForest:
    """The model file's trees as one FlatForest. Each tree entry's shape is
    checked in Python; then each node field is built and checked once, over
    all trees' nodes, into the forest's arrays. Node ids name nodes within
    their tree, so each tree has its own id lookup, and errors name them.
    Values whose predictions or scaled residues could overflow are refused."""
    for obj in raw_trees:
        _require(isinstance(obj, dict), "tree entry must be an object")
        _require("root" in obj and "nodes" in obj, "tree entry needs 'root' and 'nodes'")
        raw_nodes = obj["nodes"]
        _require(isinstance(raw_nodes, list) and raw_nodes, "tree needs a non-empty node list")
    raw_nodes = [raw for obj in raw_trees for raw in obj["nodes"]]
    _require(set(map(type, raw_nodes)) == {dict}, "node entry must be an object")
    columns = {}
    for key in NODE_KEYS:
        try:
            columns[key] = [raw[key] for raw in raw_nodes]
        except KeyError:
            raise ModelFormatError(f"node entry missing {key!r}") from None
    starts = list(accumulate((len(obj["nodes"]) for obj in raw_trees), initial=0))

    ids = _numbers(columns.pop("id"), "node id", integer=True)
    id_list = ids.tolist()
    positions = []  # per tree, node id -> position among the tree's nodes
    for a, b in zip(starts, starts[1:]):
        position = dict(zip(id_list[a:b], range(b - a)))
        if len(position) < b - a:
            raise ModelFormatError(
                f"duplicate node id {next(i for p, i in enumerate(id_list[a:b]) if position[i] != p)}"
            )
        positions.append(position)

    value = _numbers(columns.pop("value"), "node value")
    n_samples = _numbers(columns.pop("n_samples"), "node n_samples", integer=True)
    if (n_samples < 1).any():
        raise ModelFormatError(
            f"node n_samples must be positive, got {n_samples[np.argmax(n_samples < 1)]}"
        )
    is_split = [v is not None for v in columns["feature"]]
    _require(
        all([v is not None for v in columns[key]] == is_split for key in ("threshold", "left", "right")),
        "internal node needs feature, threshold, left and right; a leaf has none",
    )
    feature, threshold, left, right = (
        [v for v in columns.pop(key) if v is not None] for key in ("feature", "threshold", "left", "right")
    )
    feature = _numbers(feature, "split feature", integer=True)
    out_of_range = (feature < 0) | (feature >= n_features)
    if out_of_range.any():
        raise ModelFormatError(f"split feature {feature[np.argmax(out_of_range)]} out of range")
    threshold = _numbers(threshold, "split threshold")
    at = np.flatnonzero(is_split)
    cuts = np.searchsorted(at, starts).tolist()  # tree t's internal nodes: at[cuts[t]:cuts[t + 1]]
    owners = [position for position, c, e in zip(positions, cuts, cuts[1:]) for _ in range(e - c)]
    left, right = _located(left, owners), _located(right, owners)
    roots = _located([obj["root"] for obj in raw_trees], positions)

    # Leaves keep Tree's convention; the split fields fill the internal
    # nodes, their child links made global.
    n = len(raw_nodes)
    split_fields = np.zeros(n, dtype=np.int64), np.zeros(n), np.arange(n), np.arange(n)
    offset = np.repeat(starts[:-1], np.diff(starts))[at]
    for array, column in zip(split_fields, (feature, threshold, offset + left, offset + right)):
        array[at] = column
    try:
        flat = FlatForest(*split_fields, value, n_samples, np.array(starts[:-1]), np.add(starts[:-1], roots), learning_rate, ids)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    left_n, right_n = n_samples[flat.left[at]], n_samples[flat.right[at]]
    wrong = np.flatnonzero(n_samples[at] != left_n + right_n)
    if wrong.size:
        i = wrong[0]
        raise ModelFormatError(
            f"node id {ids[at[i]]}: n_samples {n_samples[at[i]]} is not the sum of "
            f"its children's ({left_n[i]} + {right_n[i]})"
        )
    # A prediction is f0 plus the learning rate times one leaf value per
    # tree, so |f0| + learning_rate * (sum of each tree's largest |value|)
    # bounds it and every partial sum that makes it.
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        bound = abs(f0) + learning_rate * np.maximum.reduceat(np.abs(value), starts[:-1]).sum()
        overflows = ~np.isfinite(np.append(flat.residue, bound))
    if overflows.any():
        i = np.argmax(overflows)
        raise ModelFormatError(
            f"node id {ids[i]}: scaled residue learning_rate * (value - parent's value) overflows" if i < n
            else "predictions overflow: |f0| + learning_rate * (sum of each tree's largest |value|) is not finite"
        )
    return flat


def _located(raw_ids: list, lookups: list[dict]) -> list[int]:
    """The position each of the node ids `raw_ids` has in its tree, by the
    tree's id lookup in `lookups`."""
    found = [lookup.get(i, -1) if type(i) is int else -1 for i, lookup in zip(raw_ids, lookups)]
    if -1 in found:
        raise ModelFormatError(f"unknown node id {raw_ids[found.index(-1)]!r}")
    return found


def _numbers(column: list, what: str, integer: bool = False) -> np.ndarray:
    """column as a float64 or int64 array, each entry a JSON number (an
    integer if `integer`; never a bool or a string) that is finite and fits
    the dtype: an integer beyond that would overflow in arithmetic."""
    kinds, dtype = ({int}, np.int64) if integer else ({int, float}, np.float64)
    if not set(map(type, column)) <= kinds:
        wrong = next(v for v in column if type(v) not in kinds)
        kind = "an integer" if integer else "a number"
        raise ModelFormatError(f"{what} must be {kind}, got {wrong!r}")
    try:
        array = np.array(column, dtype=dtype)
        finite = np.isfinite(array)
    except OverflowError:  # an integer beyond the dtype's range
        info = np.iinfo(dtype) if integer else np.finfo(dtype)
        finite = np.array([int(info.min) <= v <= int(info.max) for v in column])
    if not finite.all():
        bound = " and fit in 64 bits" if integer else ""
        raise ModelFormatError(f"{what} must be finite{bound}, got {column[np.argmin(finite)]!r}")
    return array


def load_model(path) -> Ensemble:
    """Read a model file back; predictions are bit-identical to the saved model."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from None
    except (RecursionError, ValueError) as exc:  # ValueError covers JSONDecodeError and over-long integers
        raise ModelFormatError(f"{path}: malformed model file ({exc})") from None
    _require(isinstance(payload, dict), "top level must be an object")
    for key in ("format_version", "f0", "learning_rate", "feature_names", "trees"):
        _require(key in payload, f"missing top-level key {key!r}")
    version = payload["format_version"]
    if type(version) is not int or version != MODEL_FORMAT_VERSION:  # not True, 1.0 or "1"
        raise ModelFormatError(
            f"unknown format version {version!r}; "
            f"expected {MODEL_FORMAT_VERSION}"
        )
    names = payload["feature_names"]
    _require(
        isinstance(names, list) and all(isinstance(n, str) for n in names),
        "feature_names must be a list of strings",
    )
    _require(len(set(names)) == len(names), "feature_names must be unique")
    f0 = _numbers([payload["f0"]], "f0").item()
    learning_rate = _numbers([payload["learning_rate"]], "learning_rate").item()
    _require(
        0.0 < learning_rate <= 1.0, f"learning_rate must be in (0, 1], got {learning_rate!r}"
    )
    _require(
        isinstance(payload["trees"], list) and payload["trees"],
        "trees must be a non-empty list",
    )
    return Ensemble(
        f0=f0,
        learning_rate=learning_rate,
        flat=_trees_from_dicts(payload["trees"], len(names), f0, learning_rate),
        feature_names=tuple(names),
        params=None,
    )
