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
from functools import cache

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
from .oracle import (
    check_partition,
    enumerate_leaf_regions,
    naive_contributions_batch,
    sample_probes,
)

# |prediction - (bias + sum of contributions)| must stay within this,
# relative to max(1, |prediction|).
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


@np.errstate(over="ignore", invalid="ignore")  # a NaN or inf residual fails the check
def _additivity_violation(bias: float, contributions, predictions) -> str | None:
    """The first sample whose bias + contributions misses its prediction by
    more than RELATIVE_IDENTITY_TOLERANCE * max(1, |prediction|), or by NaN,
    or None. Each row is added up feature by feature from 0.0, then added to
    bias."""
    total = np.zeros(predictions.shape)
    for column in contributions.T:
        total += column
    total = bias + total
    scale = np.maximum(1.0, np.abs(predictions))
    off = ~(np.abs(predictions - total) <= RELATIVE_IDENTITY_TOLERANCE * scale)
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
    """The first sample, then tree, whose root value plus the differences
    along its path misses its leaf value by more than 1e-12 relative, or by
    NaN."""
    for rows, ids in model.flat.paths(X):
        values = model.flat.value.take(ids)
        root, leaf = values[:, 0], values[:, -1]
        walked = root.copy()
        for step in range(1, values.shape[1]):
            walked += values[:, step] - values[:, step - 1]  # 0.0 once the row is at its leaf
        scale = np.maximum(1.0, np.maximum(np.abs(root), np.abs(leaf)))
        failed = np.argwhere(~(np.abs(walked - leaf) <= 1e-12 * scale).T)
        if failed.size:
            return f"sample {rows.start + failed[0, 0]}, tree {failed[0, 1]}"
    return None


@np.errstate(over="ignore", invalid="ignore")  # a NaN or inf residual fails the check
def _node_mean_violation(model: Ensemble) -> str | None:
    """The first internal node whose value is not its children's weighted
    mean, within 1e-9 relative, or whose residual is NaN."""
    for t, tree in enumerate(model.trees):
        n, v, left, right = tree.n_samples, tree.value, tree.left, tree.right
        merged = (n[left] * v[left] + n[right] * v[right]) / n
        off = ~(np.abs(merged - v) <= 1e-9 * np.maximum(1.0, np.abs(v)))
        node_ids = np.flatnonzero(off & ~tree.is_leaf)
        if node_ids.size:
            i = node_ids[0]
            return (
                f"tree {t} node {i}: value {v[i].item()!r} is not the "
                f"weighted mean of its children ({merged[i].item()!r})"
            )
    return None


def _oracle_disagreement(model: Ensemble, X: np.ndarray, bias: float, contributions) -> str | None:
    """The first sample whose bias or contributions differ from the oracle's."""
    oracle_bias, oracle_contributions = naive_contributions_batch(model, X)
    differs = (oracle_contributions != contributions).any(axis=1) | (oracle_bias != bias)
    if differs.any():
        return f"sample {int(np.argmax(differs))} disagrees with recursive-descent recount"
    return None


def _partition_violation(model: Ensemble, probes: np.ndarray) -> str | None:
    """The first tree whose leaf regions do not hold every probe exactly once."""
    for t, tree in enumerate(model.trees):
        lower, upper, _value = enumerate_leaf_regions(tree)
        if not check_partition(lower, upper, probes):
            return f"tree {t}: some probe hit != 1 leaf region"
    return None


def cmd_verify(args) -> int:
    model = load_model(args.model)
    X = _select_features(load_csv(args.data, args.target), model)
    bias, contributions, predictions = _explain_arrays(model, X)
    probes = sample_probes(X, args.probes, args.probe_seed)
    checks = [
        ("additive_identity", _additivity_violation(bias, contributions, predictions)),
        ("telescoping", _telescoping_violation(model, X)),
        ("node_means", _node_mean_violation(model)),
        ("oracle_equivalence", _oracle_disagreement(model, X, bias, contributions)),
        ("leaf_partition", _partition_violation(model, probes)),
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


def _finish_experiment(report, out_dir) -> int:
    csv_path, meta_path = write_report(report, out_dir)
    print(f"wrote {csv_path}")
    print(f"wrote {meta_path}")
    return 0


def cmd_experiment_correlation(args) -> int:
    ds = load_csv(args.data, args.target)
    base = None if args.base_feature == "auto" else args.base_feature
    report = run_correlation_experiment(
        ds,
        base_feature=base,
        seeds=args.seeds,
        factor=args.factor,
        offset=args.offset,
        config=_experiment_config(args),
    )
    return _finish_experiment(report, args.out_dir)


def cmd_experiment_noise(args) -> int:
    ds = load_csv(args.data, args.target)
    feature = None if args.feature == "auto" else args.feature
    report = run_noise_experiment(
        ds,
        feature=feature,
        levels=args.levels,
        seed=args.seed,
        config=_experiment_config(args),
    )
    return _finish_experiment(report, args.out_dir)


def cmd_experiment_outlier(args) -> int:
    ds = load_csv(args.data, args.target)
    report = run_outlier_experiment(
        ds,
        feature=args.feature,
        seeds=args.seeds,
        config=_experiment_config(args),
    )
    return _finish_experiment(report, args.out_dir)


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

    p = sub.add_parser(
        "verify", help="run internal-consistency checks on a model against data"
    )
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.add_argument("--probes", type=_positive_int, default=1000, help="probes per tree for the leaf-partition check")
    p.add_argument("--probe-seed", type=_seed, default=0)
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
        default="auto",
        help="feature to copy ('auto' picks the most important one)",
    )
    p.add_argument("--seeds", type=_seed, nargs="+", default=DEFAULT_SEEDS)
    p.add_argument("--factor", type=_finite, help="fix the copy's factor instead of drawing it")
    p.add_argument("--offset", type=_finite, help="fix the copy's offset instead of drawing it")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_experiment_correlation)

    p = exp_sub.add_parser(
        "noise", help="noise one training feature at several levels and re-attribute"
    )
    _add_data_flags(p)
    _add_hyper_flags(p, NOISE_CONFIG)
    p.add_argument(
        "--feature",
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
    p.set_defaults(func=cmd_experiment_noise)

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
    p.set_defaults(func=cmd_experiment_outlier)

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
