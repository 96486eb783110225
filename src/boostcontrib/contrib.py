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

from .boosting import Ensemble, _check_matrix, _check_vector
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


def batch_explain(ens: Ensemble, data) -> list[Explanation]:
    """feature_contributions for every row of a Dataset or (n, d) array."""
    X = _features(ens, data)
    flat = ens.flat
    bias = ens.f0
    for tree in ens.trees:
        bias += ens.learning_rate * tree.nodes[tree.root].value
    explanations = []
    for _rows, ids in flat.paths(X):
        predictions = ens.f0 + ens.learning_rate * flat.leaf_sum(ids)
        contributions = flat.contributions(ids, ens.n_features)
        for row, prediction in zip(contributions.tolist(), predictions.tolist()):
            explanations.append(
                Explanation(
                    bias=bias,
                    contributions=dict(zip(ens.feature_names, row)),
                    prediction=prediction,
                )
            )
    return explanations


def feature_contributions(ens: Ensemble, x) -> Explanation:
    """Aggregate scaled residues per feature name (tree-major, path-minor)."""
    return batch_explain(ens, _check_vector(ens, x)[None])[0]


def iter_decision_contributions(ens: Ensemble, data) -> Iterator[list[DecisionRecord]]:
    """decision_contributions for every row, yielded one row at a time."""
    flat = ens.flat
    value, residue = flat.value.tolist(), flat.residue.tolist()
    feature, threshold, left = flat.feature.tolist(), flat.threshold.tolist(), flat.left.tolist()
    for _rows, ids in flat.paths(_features(ens, data)):
        for row in ids.transpose(2, 0, 1).tolist():
            records = []
            for tree_index, path in enumerate(row):
                for step, (parent, child) in enumerate(zip(path, path[1:])):
                    if parent == child:
                        break
                    records.append(
                        DecisionRecord(
                            tree_index=tree_index,
                            step=step,
                            feature=feature[parent],
                            threshold=threshold[parent],
                            direction="left" if child == left[parent] else "right",
                            residue=value[child] - value[parent],
                            scaled_residue=residue[child],
                        )
                    )
            yield records


def decision_contributions(ens: Ensemble, x) -> list[DecisionRecord]:
    """All path-edge residues for x, ordered by (tree_index, step)."""
    return next(iter_decision_contributions(ens, _check_vector(ens, x)[None]))


def iter_decision_spaces(ens: Ensemble, data) -> Iterator[DecisionSpace]:
    """decision_space for every row, yielded one row at a time."""
    flat = ens.flat
    d = ens.n_features
    for _rows, ids in flat.paths(_features(ens, data)):
        n = ids.shape[2]
        parent, child = ids[:, :-1], ids[:, 1:]
        bins = (flat.feature.take(parent) + np.arange(n) * d).ravel()
        parent, child = parent.ravel(), child.ravel()
        moved = parent != child
        went_left = moved & (child == flat.left[parent])
        went_right = moved & ~went_left
        lower = np.full(n * d, -np.inf)
        upper = np.full(n * d, np.inf)
        np.minimum.at(upper, bins[went_left], flat.threshold[parent[went_left]])
        np.maximum.at(lower, bins[went_right], flat.threshold[parent[went_right]])
        for lo, hi in zip(lower.reshape(n, d).tolist(), upper.reshape(n, d).tolist()):
            yield DecisionSpace(intervals=dict(zip(ens.feature_names, zip(lo, hi))))


def decision_space(ens: Ensemble, x) -> DecisionSpace:
    """Intersect the half-lines implied by every traversed decision.

    A left branch caps the feature's upper bound at the threshold; a
    right branch raises its lower bound. Intersection runs across all
    trees of the ensemble.
    """
    return next(iter_decision_spaces(ens, _check_vector(ens, x)[None]))
