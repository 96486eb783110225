"""Decompose ensemble predictions into per-decision and per-feature parts.

Every path edge parent -> child contributes the residue
child.value - parent.value, attributed to the feature tested at the
PARENT (the decision that selected the child), and the edge into the leaf
is included. Each tree's root value is not caused by any decision, so it
is folded into the explanation bias together with f0. Under this
convention the additive identity

    prediction = bias + sum over features of contributions

holds exactly, because the residues along one path telescope to the leaf
value.

Summation order is fixed and part of the contract: trees in ensemble
order, edges in path order. The independent checker in
:mod:`boostcontrib.oracle` reproduces the same order so the two can be
compared for bit-level equality rather than with tolerances.

Everything here is read off one pass of the batch kernel in
:mod:`boostcontrib.kernel`; the single-row functions are batches of one.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .boosting import Ensemble
from .cart import _check_matrix, _check_vector
from .data import Dataset


@dataclass(frozen=True)
class DecisionRecord:
    """One traversed path edge.

    `feature`/`threshold`/`direction` describe the parent's split;
    `residue` is child value minus parent value, and `scaled_residue` the
    same times the learning rate (prediction units).
    """

    tree_index: int
    step: int
    feature: int
    threshold: float
    direction: str
    residue: float
    scaled_residue: float


@dataclass(frozen=True)
class Explanation:
    """Additive decomposition of one prediction.

    bias + sum(contributions.values()) equals `prediction` up to float
    associativity; features untouched by every traversed split map to
    exactly 0.0. The per-edge records behind it come from
    :func:`decision_contributions`.
    """

    bias: float
    contributions: dict[str, float]
    prediction: float


@dataclass(frozen=True)
class DecisionSpace:
    """Per-feature interval (lower, upper], intersected over all trees.

    Lower bounds are open and upper bounds closed, mirroring the
    equality-routes-left split convention. Unconstrained features report
    (-inf, +inf).
    """

    intervals: dict[str, tuple[float, float]]


def _features(ens: Ensemble, data) -> np.ndarray:
    return _check_matrix(ens, data.features if isinstance(data, Dataset) else data)


def _explain_arrays(ens: Ensemble, data) -> tuple[float, np.ndarray, np.ndarray]:
    """The bias, the (n, d) contributions in model feature order and the
    (n,) predictions of every row of a Dataset or (n, d) array."""
    X = _features(ens, data)
    flat = ens.flat
    bias = ens.f0
    for root_value in flat.value[flat.roots].tolist():
        bias += ens.learning_rate * root_value
    contributions = np.empty(X.shape)
    predictions = np.empty(X.shape[0])
    for rows, ids in flat.paths(X):
        predictions[rows] = ens.f0 + ens.learning_rate * flat.leaf_sum(ids[:, -1])
        contributions[rows] = flat.contributions(ids, ens.n_features)
    return bias, contributions, predictions


def batch_explain(ens: Ensemble, data) -> list[Explanation]:
    """feature_contributions for every row of a Dataset or (n, d) array."""
    bias, contributions, predictions = _explain_arrays(ens, data)
    return [
        Explanation(bias=bias, contributions=dict(zip(ens.feature_names, row)), prediction=p)
        for row, p in zip(contributions.tolist(), predictions.tolist())
    ]


def feature_contributions(ens: Ensemble, x) -> Explanation:
    """Aggregate scaled residues per feature name (tree-major, path-minor)."""
    return batch_explain(ens, _check_vector(ens, x)[None])[0]


def _edges_per_row(ens: Ensemble, X: np.ndarray, items) -> Iterator[list]:
    """Per row of X, the items of its edges in tree, then step order, sliced
    from items(child): a list of one item per edge of a block of rows."""
    for _rows, ids in ens.flat.paths(X):
        row, child = ens.flat.edges(ids)
        block = items(child)
        ends = np.cumsum(np.bincount(row, minlength=ids.shape[2])).tolist()
        for start, end in zip([0, *ends], ends):
            yield block[start:end]


def iter_decision_contributions(ens: Ensemble, data) -> Iterator[list[DecisionRecord]]:
    """decision_contributions for every row, yielded one row at a time."""

    def records(child):
        return list(map(DecisionRecord, *ens.flat.edge_fields(child)))

    yield from _edges_per_row(ens, _features(ens, data), records)


def decision_contributions(ens: Ensemble, x) -> list[DecisionRecord]:
    """All path-edge residues for x, ordered by (tree_index, step)."""
    return next(iter_decision_contributions(ens, _check_vector(ens, x)[None]))


def _decision_bounds(ens: Ensemble, data) -> tuple[np.ndarray, np.ndarray]:
    """(n, d) arrays lower and upper: row i's decision space along feature j
    is (lower[i, j], upper[i, j]]."""
    X = _features(ens, data)
    flat = ens.flat
    d = ens.n_features
    lower = np.full(X.shape, -np.inf)
    upper = np.full(X.shape, np.inf)
    for rows, ids in flat.paths(X):
        row, child = flat.edges(ids)
        parent = flat.parent[child]
        bins = flat.feature[parent] + (row + rows.start) * d
        went_left = child == flat.left[parent]
        np.minimum.at(upper.reshape(-1), bins[went_left], flat.threshold[parent[went_left]])
        np.maximum.at(lower.reshape(-1), bins[~went_left], flat.threshold[parent[~went_left]])
    return lower, upper


def iter_decision_spaces(ens: Ensemble, data) -> Iterator[DecisionSpace]:
    """decision_space for every row, yielded one row at a time."""
    lower, upper = _decision_bounds(ens, data)
    for lo, hi in zip(lower.tolist(), upper.tolist()):
        yield DecisionSpace(intervals=dict(zip(ens.feature_names, zip(lo, hi))))


def decision_space(ens: Ensemble, x) -> DecisionSpace:
    """Intersect the half-lines implied by every traversed decision.

    A left branch caps the feature's upper bound at the threshold; a
    right branch raises its lower bound. Intersection runs across all
    trees of the ensemble.
    """
    return next(iter_decision_spaces(ens, _check_vector(ens, x)[None]))
