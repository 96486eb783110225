"""Command-line interface: train, predict, explain, importance, verify,
and the three experiment protocols.

Exit codes: 0 success; 2 usage errors (argparse's own); 3 data or model
errors (bad CSV, unreadable model file, missing features); 4 verification
or --check failures.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .boosting import (
    Ensemble,
    GbdtParams,
    ModelFormatError,
    feature_importance,
    fit_gbdt,
    load_model,
    predict_batch,
    save_model,
)
from .cart import CartParams, decision_path
from .contrib import batch_explain, iter_decision_contributions, iter_decision_spaces
from .data import DataError, Dataset, load_csv, train_test_split
from .experiments import (
    DEFAULT_NOISE_LEVELS,
    DEFAULT_SEEDS,
    ExperimentConfig,
    format_cell,
    run_correlation_experiment,
    run_noise_experiment,
    run_outlier_experiment,
    write_report,
)
from .oracle import (
    check_partition,
    enumerate_leaf_regions,
    naive_contributions,
    sample_probes,
)

# |prediction - (bias + sum of contributions)| must stay within this,
# relative to max(1, |prediction|).
RELATIVE_IDENTITY_TOLERANCE = 1e-9


def _write_csv(path, header, rows) -> None:
    def dump(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(v) for v in row])

    if path is None:
        dump(sys.stdout)
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            dump(fh)


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
    params = GbdtParams(
        n_estimators=args.n_estimators,
        learning_rate=args.learning_rate,
        cart=CartParams(
            max_depth=args.max_depth, min_samples_leaf=args.min_samples_leaf
        ),
        seed=args.seed,
    )
    if args.no_split:
        train, test = ds, None
    else:
        train, test = train_test_split(ds, args.test_fraction, args.seed)
    model = fit_gbdt(train, params)
    print(f"train_mse={format_cell(_mse(predict_batch(model, train.features), train.target))}")
    if test is not None:
        print(f"test_mse={format_cell(_mse(predict_batch(model, test.features), test.target))}")
    save_model(model, args.model_out)
    print(f"model written to {args.model_out}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    ds = load_csv(args.data, args.target)
    X = _select_features(ds, model)
    preds = predict_batch(model, X)
    _write_csv(
        args.out,
        ["sample_index", "prediction"],
        ([i, float(p)] for i, p in enumerate(preds)),
    )
    return 0


def cmd_explain(args) -> int:
    model = load_model(args.model)
    ds = load_csv(args.data, args.target)
    X = _select_features(ds, model)
    explanations = batch_explain(model, X)

    _write_csv(
        args.out,
        ["sample_index", "bias", *model.feature_names, "prediction"],
        (
            [i, e.bias, *(e.contributions[n] for n in model.feature_names), e.prediction]
            for i, e in enumerate(explanations)
        ),
    )

    if args.decision_records:
        _write_csv(
            args.decision_records,
            [
                "sample_index",
                "tree_index",
                "step",
                "feature",
                "threshold",
                "direction",
                "residue",
                "scaled_residue",
            ],
            (
                [
                    i,
                    r.tree_index,
                    r.step,
                    model.feature_names[r.feature],
                    r.threshold,
                    r.direction,
                    r.residue,
                    r.scaled_residue,
                ]
                for i, records in enumerate(iter_decision_contributions(model, X))
                for r in records
            ),
        )

    if args.decision_space:
        _write_csv(
            args.decision_space,
            ["sample_index", "feature", "lower", "upper"],
            (
                [i, name, *space.intervals[name]]
                for i, space in enumerate(iter_decision_spaces(model, X))
                for name in model.feature_names
            ),
        )

    if args.check:
        for i, e in enumerate(explanations):
            total = e.bias + sum(e.contributions[n] for n in model.feature_names)
            if abs(e.prediction - total) > RELATIVE_IDENTITY_TOLERANCE * max(
                1.0, abs(e.prediction)
            ):
                print(
                    f"additivity violated at sample {i}: "
                    f"prediction {e.prediction!r} vs decomposition {total!r}",
                    file=sys.stderr,
                )
                return 4
        print(f"additivity holds for all {len(explanations)} samples", file=sys.stderr)
    return 0


def cmd_importance(args) -> int:
    model = load_model(args.model)
    imp = feature_importance(model)
    _write_csv(
        args.out,
        ["feature", "importance"],
        ([n, float(v)] for n, v in zip(model.feature_names, imp)),
    )
    return 0


def cmd_verify(args) -> int:
    model = load_model(args.model)
    ds = load_csv(args.data, args.target)
    X = _select_features(ds, model)

    failures: list[str] = []

    def report(name: str, ok: bool, detail: str = "") -> None:
        print(f"{name}: ok" if ok else f"{name}: FAIL{' — ' + detail if detail else ''}")
        if not ok:
            failures.append(name)

    additive_ok, additive_detail = True, ""
    oracle_ok, oracle_detail = True, ""
    telescoping_ok, telescoping_detail = True, ""
    for i, (x, e) in enumerate(zip(X, batch_explain(model, X))):
        total = e.bias + sum(e.contributions[n] for n in model.feature_names)
        if additive_ok and abs(e.prediction - total) > RELATIVE_IDENTITY_TOLERANCE * max(
            1.0, abs(e.prediction)
        ):
            additive_ok = False
            additive_detail = f"sample {i}: {e.prediction!r} != {total!r}"
        naive_bias, naive_contrib = naive_contributions(model, x)
        ours = np.array([e.contributions[n] for n in model.feature_names])
        if oracle_ok and not (
            naive_bias == e.bias and np.array_equal(naive_contrib, ours)
        ):
            oracle_ok = False
            oracle_detail = f"sample {i} disagrees with recursive-descent recount"
        for t, tree in enumerate(model.trees):
            path = decision_path(tree, x)
            root_v = tree.nodes[path[0]].value
            leaf_v = tree.nodes[path[-1]].value
            walked = root_v
            for a, b in zip(path, path[1:]):
                walked += tree.nodes[b].value - tree.nodes[a].value
            if telescoping_ok and abs(walked - leaf_v) > 1e-12 * max(
                1.0, abs(root_v), abs(leaf_v)
            ):
                telescoping_ok = False
                telescoping_detail = f"sample {i}, tree {t}"

    node_means_ok, node_means_detail = True, ""
    for t, tree in enumerate(model.trees):
        for node_id, node in enumerate(tree.nodes):
            if node.split is None:
                continue
            left, right = tree.nodes[node.left], tree.nodes[node.right]
            if node.n_samples != left.n_samples + right.n_samples:
                node_means_ok = False
                node_means_detail = f"tree {t} node {node_id}: sample counts do not add up"
                break
            merged = (
                left.n_samples * left.value + right.n_samples * right.value
            ) / node.n_samples
            if abs(merged - node.value) > 1e-9 * max(1.0, abs(node.value)):
                node_means_ok = False
                node_means_detail = (
                    f"tree {t} node {node_id}: value {node.value!r} is not the "
                    f"weighted mean of its children ({merged!r})"
                )
                break
        if not node_means_ok:
            break

    probes = sample_probes(X, args.probes, args.probe_seed)
    partition_ok, partition_detail = True, ""
    for t, tree in enumerate(model.trees):
        if not check_partition(enumerate_leaf_regions(tree), probes):
            partition_ok = False
            partition_detail = f"tree {t}: some probe hit != 1 leaf region"
            break

    report("additive_identity", additive_ok, additive_detail)
    report("telescoping", telescoping_ok, telescoping_detail)
    report("node_means", node_means_ok, node_means_detail)
    report("oracle_equivalence", oracle_ok, oracle_detail)
    report("leaf_partition", partition_ok, partition_detail)

    if failures:
        print(f"verification failed: {failures[0]}", file=sys.stderr)
        return 4
    print("all checks passed")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    return ExperimentConfig(
        n_estimators=args.n_estimators,
        max_depth=args.max_depth,
        learning_rate=args.learning_rate,
        min_samples_leaf=args.min_samples_leaf,
        test_fraction=args.test_fraction,
    )


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


def _add_hyper_flags(p: argparse.ArgumentParser, *, n_estimators: int, max_depth: int) -> None:
    p.add_argument("--n-estimators", type=int, default=n_estimators)
    p.add_argument("--max-depth", type=int, default=max_depth)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--min-samples-leaf", type=int, default=1)
    p.add_argument("--test-fraction", type=float, default=0.1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boostcontrib",
        description="Gradient-boosted regression trees with exact per-feature "
        "prediction decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write it to JSON")
    _add_data_flags(p)
    _add_hyper_flags(p, n_estimators=100, max_depth=3)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--probes", type=int, default=1000, help="probes per tree for the leaf-partition check")
    p.add_argument("--probe-seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    exp = sub.add_parser("experiment", help="run one of the attribution studies")
    exp_sub = exp.add_subparsers(dest="experiment", required=True)

    p = exp_sub.add_parser(
        "correlation", help="add an affine copy of a feature and compare attributions"
    )
    _add_data_flags(p)
    _add_hyper_flags(p, n_estimators=10, max_depth=3)
    p.add_argument(
        "--base-feature",
        default="auto",
        help="feature to copy ('auto' picks the most important one)",
    )
    p.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    p.add_argument("--factor", type=float, help="fix the copy's factor instead of drawing it")
    p.add_argument("--offset", type=float, help="fix the copy's offset instead of drawing it")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_experiment_correlation)

    p = exp_sub.add_parser(
        "noise", help="noise one training feature at several levels and re-attribute"
    )
    _add_data_flags(p)
    _add_hyper_flags(p, n_estimators=10, max_depth=2)
    p.add_argument(
        "--feature",
        default="auto",
        help="feature to noise ('auto' picks the most important one)",
    )
    p.add_argument(
        "--levels",
        type=float,
        nargs="+",
        default=list(DEFAULT_NOISE_LEVELS),
        help="noise variances as percent of the feature's variance",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_experiment_noise)

    p = exp_sub.add_parser(
        "outlier", help="plant an extreme fake sample and explain it"
    )
    _add_data_flags(p)
    _add_hyper_flags(p, n_estimators=10, max_depth=15)
    p.add_argument(
        "--feature",
        help="feature to push past its max (default: first feature)",
    )
    p.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_experiment_outlier)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, ModelFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
