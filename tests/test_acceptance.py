"""Acceptance gate: ten numbered checks with pinned tolerances.

Each test prints one `PASS criterion N: ...` line on success (visible with
`pytest tests/test_acceptance.py -v -s`); a failure shows up as an ordinary
pytest failure naming the criterion. Criteria 1-3 and 9 share one sweep of
200 randomly-drawn datasets and hyperparameter settings, built once per
module; its wall-clock budget belongs to criterion 1.
"""

import dataclasses
import time

import numpy as np
import pytest

from boostcontrib import (
    CartParams,
    Dataset,
    Ensemble,
    GbdtParams,
    add_correlated_feature,
    batch_explain,
    decision_contributions,
    feature_contributions,
    fit_cart,
    fit_gbdt,
    gbdt_predict,
    load_model,
    predict_batch,
    save_model,
    train_test_split,
    tree_predict,
)
from boostcontrib.experiments import (
    CORRELATION_CONFIG,
    NOISE_CONFIG,
    OUTLIER_CONFIG,
    ExperimentConfig,
    run_correlation_experiment,
    run_noise_experiment,
    run_outlier_experiment,
    write_report,
)
from boostcontrib.oracle import (
    check_partition,
    enumerate_leaf_regions,
    naive_contributions,
    sample_probes,
)
from conftest import D0_X, D0_Y, build_synthetic

SWEEP_SIZE = 200
MASTER_SEED = 20260817


@dataclasses.dataclass
class SweepRun:
    ds: Dataset
    ens: object
    x_test: np.ndarray  # (10, d)


@pytest.fixture(scope="module")
def sweep():
    """200 random datasets x random hyperparameters, plus 10 probe points
    each, with the build time recorded for criterion 1's runtime budget."""
    rng = np.random.default_rng(MASTER_SEED)
    start = time.perf_counter()
    runs = []
    for _ in range(SWEEP_SIZE):
        n = int(rng.integers(20, 501))
        d = int(rng.integers(2, 11))
        X = rng.normal(size=(n, d))
        w = rng.normal(size=d)
        y = X @ w + 0.5 * rng.normal(size=n)
        ds = Dataset(X, y, tuple(f"x{j}" for j in range(d)))
        params = GbdtParams(
            n_estimators=int(rng.integers(1, 51)),
            learning_rate=float(rng.choice([0.05, 0.1, 0.5, 1.0])),
            cart=CartParams(max_depth=int(rng.integers(1, 9))),
            seed=int(rng.integers(0, 2**31)),
        )
        ens = fit_gbdt(ds, params)
        lo, hi = X.min(axis=0), X.max(axis=0)
        span = hi - lo
        x_test = rng.uniform(lo - span, hi + span, size=(10, d))
        runs.append(SweepRun(ds=ds, ens=ens, x_test=x_test))
    build_seconds = time.perf_counter() - start
    return {"runs": runs, "build_seconds": build_seconds}


@pytest.fixture(scope="module")
def synthetic():
    return build_synthetic(n=500, d=8, seed=0)


def test_criterion_01_local_accuracy(sweep):
    start = time.perf_counter()
    checked = 0
    for run in sweep["runs"]:
        for x in run.x_test:
            e = feature_contributions(run.ens, x)
            total = e.bias + sum(e.contributions[n] for n in run.ens.feature_names)
            assert abs(e.prediction - total) <= 1e-9 * max(1.0, abs(e.prediction))
            checked += 1
    elapsed = sweep["build_seconds"] + (time.perf_counter() - start)
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s, budget is 60s"
    print(
        f"PASS criterion 1: bias + contributions reproduced the prediction at "
        f"{checked} points over {SWEEP_SIZE} random models (tol 1e-9 rel, {elapsed:.1f}s < 60s)"
    )


def test_criterion_02_telescoping(sweep):
    paths = 0
    for run in sweep["runs"]:
        for x in run.x_test:
            records = decision_contributions(run.ens, x)
            for t, tree in enumerate(run.ens.trees):
                walked = tree.value[tree.root]
                for r in records:
                    if r.tree_index == t:
                        walked += r.residue
                assert abs(walked - tree_predict(tree, x)) <= 1e-12
                paths += 1
    print(
        f"PASS criterion 2: root value + residues reached the leaf value on "
        f"{paths} traversed paths (tol 1e-12 abs)"
    )


def test_criterion_03_oracle_equivalence(sweep):
    points = 0
    for run in sweep["runs"]:
        for x in run.x_test:
            e = feature_contributions(run.ens, x)
            bias, contrib = naive_contributions(run.ens, x)
            ours = np.array([e.contributions[n] for n in run.ens.feature_names])
            assert bias == e.bias, "bias differs from recursive-descent recount"
            assert np.array_equal(contrib, ours), "contribution vector differs bitwise"
            points += 1

    trees = 0
    for i, run in enumerate(sweep["runs"]):
        probes = sample_probes(run.ds.features, 1000, seed=MASTER_SEED + i)
        for tree in run.ens.trees:
            lower, upper, _value = enumerate_leaf_regions(tree)
            assert check_partition(lower, upper, probes)
            trees += 1
    print(
        f"PASS criterion 3: bit-exact oracle match at {points} points; leaf "
        f"regions partition the space for {trees} trees x 1000 probes"
    )


def test_criterion_04_hand_traced_fixture():
    ds = Dataset(D0_X, D0_Y, ("f0", "f1"))

    # the tree shape, fitted on raw targets
    tree = fit_cart(D0_X, D0_Y, CartParams(max_depth=2), np.random.default_rng(0))
    assert tree.feature[0] == 0 and tree.threshold[0] == 0.5
    assert tree.value[0] == 7.5 and tree.n_samples[0] == 4
    assert tree.value[tree.left[0]] == 0.0
    right = tree.right[0]
    assert tree.feature[right] == 1 and tree.value[right] == 15.0
    assert tree.value[tree.left[right]] == 10.0 and tree.value[tree.right[right]] == 20.0

    one = fit_gbdt(ds, GbdtParams(n_estimators=1, learning_rate=1.0, cart=CartParams(max_depth=2), seed=0))
    assert gbdt_predict(one, np.array([1.0, 1.0])) == 20.0
    e1 = feature_contributions(one, np.array([1.0, 1.0]))
    assert (e1.bias, e1.contributions["f0"], e1.contributions["f1"]) == (7.5, 7.5, 5.0)

    two = fit_gbdt(ds, GbdtParams(n_estimators=2, learning_rate=0.5, cart=CartParams(max_depth=2), seed=0))
    e2 = feature_contributions(two, np.array([1.0, 1.0]))
    assert (e2.bias, e2.contributions["f0"], e2.contributions["f1"]) == (7.5, 5.625, 3.75)
    assert e2.prediction == 16.875
    print(
        "PASS criterion 4: hand-traced fixture reproduced exactly "
        "(tree shape; prediction 20; one-tree 7.5/7.5/5; two-tree 7.5/5.625/3.75 -> 16.875)"
    )


def test_criterion_05_duplicate_feature_consistency(synthetic):
    seeds = (0, 1, 2, 3, 4)
    config = CORRELATION_CONFIG
    shares = []
    samples = 0
    for seed in seeds:
        augmented = add_correlated_feature(synthetic, "x0", 1.0, 0.0, "x0_dup")
        train_o, test_o = train_test_split(synthetic, config.test_fraction, seed)
        train_a, test_a = train_test_split(augmented, config.test_fraction, seed)
        model_o = fit_gbdt(train_o, config.gbdt_params(seed))
        model_a = fit_gbdt(train_a, config.gbdt_params(seed))
        base_total = dup_total = 0.0
        for eo, ea in zip(batch_explain(model_o, test_o), batch_explain(model_a, test_a)):
            pair = ea.contributions["x0"] + ea.contributions["x0_dup"]
            assert abs(pair - eo.contributions["x0"]) <= 1e-8
            base_total += abs(ea.contributions["x0"])
            dup_total += abs(ea.contributions["x0_dup"])
            samples += 1
        shares.append(dup_total / (base_total + dup_total))
    assert len({round(s, 6) for s in shares}) >= 2, (
        f"attribution split identical across seeds: {shares}"
    )
    print(
        f"PASS criterion 5: duplicate pair summed to the original contribution "
        f"at {samples} samples (tol 1e-8); pair shares varied across seeds "
        f"({min(shares):.3f}..{max(shares):.3f})"
    )


def test_criterion_06_noise_degradation(synthetic):
    seeds = (0, 1, 2, 3, 4)
    degraded = 0
    for seed in seeds:
        report = run_noise_experiment(
            synthetic, feature="x0", levels=(0.0, 100.0, 200.0, 300.0, 400.0),
            seed=seed, config=NOISE_CONFIG,
        )
        abs_at = {
            row[1]: row[4] for row in report.rows if row[2] == "x0"
        }
        if abs_at[400.0] < abs_at[0.0]:
            degraded += 1
    assert degraded >= 4, f"|contribution| dropped at 400% in only {degraded}/5 seeds"
    print(
        f"PASS criterion 6: noised feature's mean |contribution| fell from "
        f"level 0 to level 400 in {degraded}/5 seeds (needed >= 4)"
    )


def test_criterion_07_outlier_attribution(synthetic):
    seeds = (0, 1, 2, 3, 4)
    report = run_outlier_experiment(synthetic, seeds=seeds, config=OUTLIER_CONFIG)
    ranks = [row[-1] for row in report.rows]
    top = sum(1 for r in ranks if r == 1)
    assert top >= 4, f"manipulated feature ranked first in only {top}/5 seeds (ranks {ranks})"

    # features absent from every traversed path must report exactly 0
    from boostcontrib.data import make_outlier

    zero_checked = 0
    for seed in seeds:
        train, _ = train_test_split(synthetic, OUTLIER_CONFIG.test_fraction, seed)
        sample = make_outlier(train, "x0")
        poisoned = Dataset(
            np.vstack([train.features, sample.x_fake]),
            np.append(train.target, sample.y_fake),
            train.feature_names,
        )
        model = fit_gbdt(poisoned, OUTLIER_CONFIG.gbdt_params(seed))
        e = feature_contributions(model, sample.x_fake)
        touched = {
            model.feature_names[r.feature]
            for r in decision_contributions(model, sample.x_fake)
        }
        for name in model.feature_names:
            if name not in touched:
                assert e.contributions[name] == 0.0
                zero_checked += 1
    print(
        f"PASS criterion 7: manipulated feature had the largest |contribution| "
        f"in {top}/5 seeds; {zero_checked} untouched features reported exactly 0"
    )


def test_criterion_08_determinism_and_persistence(synthetic, tmp_path):
    params = GbdtParams(n_estimators=10, cart=CartParams(max_depth=3), seed=0)
    train, test = train_test_split(synthetic, 0.1, 0)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_model(fit_gbdt(train, params), p1)
    save_model(fit_gbdt(train, params), p2)
    assert p1.read_bytes() == p2.read_bytes(), "identical fits serialized differently"

    model = load_model(p1)
    original = fit_gbdt(train, params)
    for x in test.features[:50]:
        assert gbdt_predict(model, x) == gbdt_predict(original, x), (
            "round-trip changed a prediction bit"
        )

    config = ExperimentConfig(n_estimators=5, max_depth=2)
    r1 = run_correlation_experiment(synthetic, seeds=(0, 1), config=config)
    r2 = run_correlation_experiment(synthetic, seeds=(0, 1), config=config)
    c1, m1 = write_report(r1, tmp_path / "a")
    c2, m2 = write_report(r2, tmp_path / "b")
    assert c1.read_bytes() == c2.read_bytes(), "experiment CSV bytes differ"
    assert m1.read_bytes() == m2.read_bytes(), "experiment metadata bytes differ"
    print(
        "PASS criterion 8: identical invocations gave byte-identical model and "
        "experiment files; model round-trip kept predictions bit-exact"
    )


def test_criterion_09_training_mse_non_increasing(sweep):
    transitions = 0
    for run in sweep["runs"]:
        X, y = run.ds.features, run.ds.target
        running = np.full(run.ds.n_samples, run.ens.f0)
        last = float(np.mean((y - running) ** 2))
        for tree in run.ens.trees:
            # Each row's leaf value as 0.0 + 1.0 * leaf, all rows in one call.
            stage = predict_batch(Ensemble(0.0, 1.0, [tree], run.ens.feature_names), X)
            running = running + run.ens.learning_rate * stage
            mse = float(np.mean((y - running) ** 2))
            assert mse <= last + 1e-9 * max(1.0, last), (
                f"stage MSE rose from {last} to {mse}"
            )
            last = mse
            transitions += 1
    print(
        f"PASS criterion 9: training MSE never increased across {transitions} "
        f"boosting stages (tol 1e-9)"
    )


def test_criterion_10_desk_scale_performance(tmp_path):
    ds = build_synthetic(n=442, d=10, seed=7)
    start = time.perf_counter()
    train, test = train_test_split(ds, 0.1, 0)
    model = fit_gbdt(train, GbdtParams(n_estimators=10, cart=CartParams(max_depth=2), seed=0))
    batch_explain(model, test)
    write_report(run_correlation_experiment(ds, config=CORRELATION_CONFIG), tmp_path)
    write_report(run_noise_experiment(ds, config=NOISE_CONFIG), tmp_path)
    write_report(run_outlier_experiment(ds, config=OUTLIER_CONFIG), tmp_path)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"442x10 pipeline took {elapsed:.1f}s, budget is 10s"
    print(
        f"PASS criterion 10: train + explain + all three studies on 442x10 "
        f"finished in {elapsed:.1f}s (< 10s)"
    )
