"""Command-line interface: train, predict, explain, importance, verify,
and the three experiment protocols.

Exit codes: 0 success; 2 usage errors (argparse's own); 3 data or model
errors (bad CSV, unreadable model file, missing features); 4 verification
or --check failures.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import fields
from functools import cache, reduce

import numpy as np

from .boosting import (
    Ensemble,
    ModelFormatError,
    feature_importance,
    fit_gbdt,
    load_model,
    predict_batch,
    save_model,
)
from .contrib import _decision_bounds, _edges_per_row, _explain_arrays
from .data import DataError, Dataset, _output, _quoted, _write_table, load_csv, train_test_split
from .experiments import (
    CORRELATION_CONFIG,
    DEFAULT_NOISE_LEVELS,
    DEFAULT_SEEDS,
    NOISE_CONFIG,
    OUTLIER_CONFIG,
    ExperimentConfig,
    run_correlation_experiment,
    run_noise_experiment,
    run_outlier_experiment,
    write_report,
)
from .oracle import check_partition, enumerate_leaf_regions, naive_contributions_batch

# |prediction - (bias + sum of contributions)| must stay within this,
# relative to the size of the terms (see _misses).
RELATIVE_IDENTITY_TOLERANCE = 1e-9


RECORD_HEADER = [
    "sample_index",
    "tree_index",
    "step",
    "feature",
    "threshold",
    "direction",
    "residue",
    "scaled_residue",
]


def _write_decision_records(path, model: Ensemble, X: np.ndarray) -> None:
    """One line per traversed edge, in sample, tree, step order. What follows
    the sample index depends only on the edge's child node, so it is
    formatted once per node and reused by every row that takes the edge."""
    flat = model.flat
    names = list(map(_quoted, model.feature_names))
    child = np.flatnonzero(flat.parent != np.arange(flat.parent.size))  # roots end no edge
    tails = np.empty(flat.parent.size, dtype=object)
    tails[child] = [
        f"{t},{s},{names[f]},{th!r},{direction},{r!r},{sr!r}\n"
        for t, s, f, th, direction, r, sr in zip(*flat.edge_fields(child))
    ]
    with _output(path) as fh:
        csv.writer(fh, lineterminator="\n").writerow(RECORD_HEADER)
        for i, edges in enumerate(_edges_per_row(model, X, lambda child: tails[child].tolist())):
            if edges:
                prefix = f"{i},"
                fh.write(prefix + prefix.join(edges))


def _misses(residual, tolerance: float, *sizes) -> np.ndarray:
    """Where a residual is not finite or exceeds tolerance * max(1, *sizes), sizes of the terms it
    was added up from: rounding grows with them, however much they cancel."""
    return ~(np.isfinite(residual) & (np.abs(residual) <= tolerance * reduce(np.maximum, sizes, 1.0)))


@np.errstate(over="ignore", invalid="ignore")  # a NaN or inf residual fails the check
def _additivity_violation(bias: float, contributions, predictions) -> str | None:
    """The first sample whose bias + contributions misses its prediction by
    more than RELATIVE_IDENTITY_TOLERANCE * max(1, |prediction|, |bias| +
    sum of |contributions|), or by inf or NaN, or None. Each row is added up
    feature by feature from 0.0, then added to bias."""
    total = np.zeros(predictions.shape)
    for column in contributions.T:
        total += column
    total = bias + total
    terms = abs(bias) + np.abs(contributions).sum(axis=1)
    off = _misses(predictions - total, RELATIVE_IDENTITY_TOLERANCE, np.abs(predictions), terms)
    if not off.any():
        return None
    i = int(np.argmax(off))
    return f"sample {i}: prediction {predictions[i].item()!r} vs decomposition {total[i].item()!r}"


def _select_features(ds: Dataset, model: Ensemble) -> np.ndarray:
    """Columns the model was trained on, in model order, selected by name."""
    missing = [n for n in model.feature_names if n not in ds.feature_names]
    if missing:
        raise DataError(
            f"data lacks model feature(s): {', '.join(missing)} "
            f"(model expects {model.n_features} features: "
            f"{', '.join(model.feature_names)})"
        )
    cols = [ds.feature_index(n) for n in model.feature_names]
    return ds.features[:, cols]


def _mse(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean((pred - truth) ** 2))


def cmd_train(args) -> int:
    ds = load_csv(args.data, args.target)
    params = _experiment_config(args).gbdt_params(args.seed)
    if args.no_split:
        train, test = ds, None
    else:
        train, test = train_test_split(ds, args.test_fraction, args.seed)
    model = fit_gbdt(train, params)
    print(f"train_mse={_mse(predict_batch(model, train.features), train.target)!r}")
    if test is not None:
        print(f"test_mse={_mse(predict_batch(model, test.features), test.target)!r}")
    save_model(model, args.model_out)
    print(f"model written to {args.model_out}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    ds = load_csv(args.data, args.target)
    X = _select_features(ds, model)
    preds = predict_batch(model, X)
    _write_table(args.out, ["sample_index", "prediction"], [np.arange(preds.size), preds])
    return 0


def cmd_explain(args) -> int:
    model = load_model(args.model)
    ds = load_csv(args.data, args.target)
    X = _select_features(ds, model)
    bias, contributions, predictions = _explain_arrays(model, X)
    n, d = contributions.shape
    _write_table(
        args.out,
        ["sample_index", "bias", *model.feature_names, "prediction"],
        [np.arange(n), np.full(n, bias), *contributions.T, predictions],
    )
    if args.decision_records:
        _write_decision_records(args.decision_records, model, X)
    if args.decision_space:
        lower, upper = _decision_bounds(model, X)
        _write_table(
            args.decision_space,
            ["sample_index", "feature", "lower", "upper"],
            [np.arange(n).repeat(d), model.feature_names * n, lower.ravel(), upper.ravel()],
        )

    if args.check:
        violation = _additivity_violation(bias, contributions, predictions)
        if violation is not None:
            print(f"additivity violated at {violation}", file=sys.stderr)
            return 4
        print(f"additivity holds for all {predictions.size} samples", file=sys.stderr)
    return 0


def cmd_importance(args) -> int:
    model = load_model(args.model)
    _write_table(args.out, ["feature", "importance"], [model.feature_names, feature_importance(model)])
    return 0


@np.errstate(over="ignore", invalid="ignore")  # a NaN or inf residual fails the check
def _telescoping_violation(model: Ensemble, X: np.ndarray) -> str | None:
    """The first sample, then tree, whose root value plus the differences along its path misses its
    leaf value by more than 1e-12 relative to the largest |value| on the path, or by inf or NaN. Both
    are built per node, level by level from the roots, and read at each row's leaves."""
    flat = model.flat
    walked, largest = flat.value.copy(), np.abs(flat.value)
    level = flat.roots
    while level.size:
        level = level[flat.left[level] != level]
        for child in (flat.left[level], flat.right[level]):
            walked[child] = walked[level] + (flat.value[child] - flat.value[level])
            largest[child] = np.maximum(largest[level], largest[child])
        level = np.concatenate([flat.left[level], flat.right[level]])
    missed = _misses(walked - flat.value, 1e-12, largest)
    if not missed.any():  # the walk only picks which row and tree to report
        return None
    for rows, leaves in flat.leaves(X):
        failed = np.argwhere(missed[leaves].T)
        if failed.size:
            return f"sample {rows.start + failed[0, 0]}, tree {failed[0, 1]}"
    return None


@np.errstate(over="ignore", invalid="ignore")  # a NaN or inf residual fails the check
def _node_mean_violation(model: Ensemble) -> str | None:
    """The first internal node, by tree and id in it, whose value misses its children's weighted mean
    by more than 1e-9 * max(1, |value|, their weighted mean |value|), or by inf or NaN."""
    flat = model.flat
    n, v, left, right = flat.n_samples, flat.value, flat.left, flat.right
    merged = (n[left] * v[left] + n[right] * v[right]) / n
    terms = (n[left] * np.abs(v[left]) + n[right] * np.abs(v[right])) / n
    node_ids = np.flatnonzero(_misses(merged - v, 1e-9, np.abs(v), terms) & (left != np.arange(left.size)))
    if not node_ids.size:
        return None
    i, t = node_ids[0], flat.tree[node_ids[0]]
    return (
        f"tree {t} node {i - flat.starts[t]}: value {v[i].item()!r} is not the "
        f"weighted mean of its children ({merged[i].item()!r})"
    )


def _oracle_disagreement(model: Ensemble, X: np.ndarray, bias: float, contributions) -> str | None:
    """The first sample whose bias or contributions differ from the oracle's."""
    oracle_bias, oracle_contributions = naive_contributions_batch(model, X)
    differs = (oracle_contributions != contributions).any(axis=1) | (oracle_bias != bias)
    if differs.any():
        return f"sample {int(np.argmax(differs))} disagrees with recursive-descent recount"
    return None


@np.errstate(over="ignore")  # the next double above the largest is inf
def _partition_violation(model: Ensemble) -> str | None:
    """The first tree whose leaf regions, as oracle.enumerate_leaf_regions lists them, are not the
    partition the kernel routes by. One witness per non-empty region (its closed upper bound where
    finite, else the next double above its lower bound, else 0.0) must reach a leaf whose row of
    FlatForest.regions has the region's bits, and lie in no other region."""
    lowers, uppers = zip(*(enumerate_leaf_regions(tree)[:2] for tree in model.trees))
    owner = np.repeat(np.arange(len(lowers)), list(map(len, lowers)))
    lower, upper = np.concatenate(lowers), np.concatenate(uppers)
    held = (lower < upper).all(axis=1)  # an empty region holds no point, and breaks no partition
    owner, lower, upper = owner[held], lower[held], upper[held]
    witness = np.where(np.isfinite(upper), upper, np.where(np.isfinite(lower), np.nextafter(lower, np.inf), 0.0))
    reached = np.concatenate([leaves[owner[rows], np.arange(leaves.shape[1])] for rows, leaves in model.flat.leaves(witness)])
    kernel = np.hstack(model.regions)[reached]
    strays = (kernel.view(np.int64) != np.hstack([lower, upper]).view(np.int64)).any(axis=1)
    for t, (tree_lower, tree_upper) in enumerate(zip(lowers, uppers)):
        mine = owner == t
        if strays[mine].any() or not check_partition(tree_lower, tree_upper, witness[mine]):
            return f"tree {t}: leaf regions differ from the kernel's or overlap"
    return None


def cmd_verify(args) -> int:
    model = load_model(args.model)
    X = _select_features(load_csv(args.data, args.target), model)
    bias, contributions, predictions = _explain_arrays(model, X)
    checks = [
        ("additive_identity", _additivity_violation(bias, contributions, predictions)),
        ("telescoping", _telescoping_violation(model, X)),
        ("node_means", _node_mean_violation(model)),
        ("oracle_equivalence", _oracle_disagreement(model, X, bias, contributions)),
        ("leaf_partition", _partition_violation(model)),
    ]
    for name, detail in checks:
        print(f"{name}: ok" if detail is None else f"{name}: FAIL — {detail}")
    failed = [name for name, detail in checks if detail is not None]
    if failed:
        print(f"verification failed: {failed[0]}", file=sys.stderr)
        return 4
    print("all checks passed")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    return ExperimentConfig(**{field.name: getattr(args, field.name) for field in fields(ExperimentConfig)})


def cmd_experiment(args) -> int:
    """Run the study's runner, args.run, on the arguments its subcommand names in args.keywords."""
    study_args = {name: getattr(args, name) for name in args.keywords}
    report = args.run(load_csv(args.data, args.target), config=_experiment_config(args), **study_args)
    for path in write_report(report, args.out_dir):
        print(f"wrote {path}")
    return 0


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="input CSV with a header row")
    p.add_argument("--target", required=True, help="name of the target column")


def _add_hyper_flags(p: argparse.ArgumentParser, defaults: ExperimentConfig) -> None:
    p.add_argument("--n-estimators", type=_positive_int, default=defaults.n_estimators)
    p.add_argument("--max-depth", type=_positive_int, default=defaults.max_depth)
    p.add_argument("--learning-rate", type=_rate, default=defaults.learning_rate)
    p.add_argument("--min-samples-leaf", type=_positive_int, default=defaults.min_samples_leaf)
    p.add_argument("--test-fraction", type=_fraction, default=defaults.test_fraction)


def _ranged(convert, ok, requirement: str):
    """An argparse type that converts its text and refuses values outside
    the range, so they are a usage error (exit 2) like a malformed number."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value

    parse.__name__ = convert.__name__  # named in argparse's "invalid int value" message
    return parse


_positive_int = _ranged(int, lambda v: v >= 1, "at least 1")
_seed = _ranged(int, lambda v: v >= 0, "at least 0")
_rate = _ranged(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_fraction = _ranged(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_finite = _ranged(float, math.isfinite, "finite")


def _auto(text: str) -> str | None:
    """A feature name, or None for 'auto' (the runner then picks the most important feature)."""
    return None if text == "auto" else text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boostcontrib",
        description="Gradient-boosted regression trees with exact per-feature "
        "prediction decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write it to JSON")
    _add_data_flags(p)
    _add_hyper_flags(p, ExperimentConfig(n_estimators=100))
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--model-out", required=True, help="where to write the model JSON")
    p.add_argument(
        "--no-split",
        action="store_true",
        help="train on all rows instead of holding out a test fraction",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict every row of a CSV")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "explain", help="write per-sample bias + per-feature contributions"
    )
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 4) unless bias + contributions reproduce each prediction",
    )
    p.add_argument(
        "--decision-records",
        metavar="PATH",
        help="also write one CSV row per traversed tree edge",
    )
    p.add_argument(
        "--decision-space",
        metavar="PATH",
        help="also write per-feature intervals that leave every prediction unchanged",
    )
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("importance", help="global split-gain feature importance")
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("verify", help="run internal-consistency checks on a model against data")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.set_defaults(func=cmd_verify)

    exp = sub.add_parser("experiment", help="run one of the attribution studies")
    exp_sub = exp.add_subparsers(dest="experiment", required=True)

    p = exp_sub.add_parser(
        "correlation", help="add an affine copy of a feature and compare attributions"
    )
    _add_data_flags(p)
    _add_hyper_flags(p, CORRELATION_CONFIG)
    p.add_argument(
        "--base-feature",
        type=_auto,
        default="auto",
        help="feature to copy ('auto' picks the most important one)",
    )
    p.add_argument("--seeds", type=_seed, nargs="+", default=DEFAULT_SEEDS)
    p.add_argument("--factor", type=_finite, help="fix the copy's factor instead of drawing it")
    p.add_argument("--offset", type=_finite, help="fix the copy's offset instead of drawing it")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_experiment, run=run_correlation_experiment, keywords=("base_feature", "seeds", "factor", "offset"))

    p = exp_sub.add_parser(
        "noise", help="noise one training feature at several levels and re-attribute"
    )
    _add_data_flags(p)
    _add_hyper_flags(p, NOISE_CONFIG)
    p.add_argument(
        "--feature",
        type=_auto,
        default="auto",
        help="feature to noise ('auto' picks the most important one)",
    )
    p.add_argument(
        "--levels",
        type=_finite,
        nargs="+",
        default=DEFAULT_NOISE_LEVELS,
        help="noise variances as percent of the feature's variance",
    )
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_experiment, run=run_noise_experiment, keywords=("feature", "levels", "seed"))

    p = exp_sub.add_parser(
        "outlier", help="plant an extreme fake sample and explain it"
    )
    _add_data_flags(p)
    _add_hyper_flags(p, OUTLIER_CONFIG)
    p.add_argument(
        "--feature",
        help="feature to push past its max (default: first feature)",
    )
    p.add_argument("--seeds", type=_seed, nargs="+", default=DEFAULT_SEEDS)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_experiment, run=run_outlier_experiment, keywords=("feature", "seeds"))

    return parser


# Parsing leaves a parser unchanged, and every default in it is immutable
# (the list-valued ones are tuples), so one parser serves every call.
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, ModelFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
