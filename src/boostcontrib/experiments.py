"""Experiment protocols probing how contributions behave under data changes.

Three reusable runners, each returning an :class:`ExperimentReport`:

* correlation — re-train with an extra feature that is an affine copy of an
  existing one and compare how the pair shares the original's attribution;
* noise — re-train with increasing Gaussian noise injected into one
  training feature and watch its mean |contribution| on a fixed clean
  test set;
* outlier — append a fabricated extreme sample to the training set, fit
  deep trees, and check which feature the fake sample's prediction is
  attributed to.

Runners are pure with respect to the filesystem; ``write_report`` turns a
report into a tidy CSV plus a JSON metadata sidecar with deterministic
bytes (fixed row order, ``repr`` float formatting, sorted JSON keys).

Randomness bookkeeping: each seed's model uses generator streams
``[seed, 1..n_estimators]`` (see :mod:`boostcontrib.boosting`), so the
stream ``[seed, 0]`` is free for experiment-level draws — the correlated
feature's factor/offset and the per-level noise seeds come from there.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .boosting import GbdtParams, _fit_group, feature_importance, fit_gbdt
from .cart import CartParams
from .contrib import _explain_arrays, feature_contributions
from .data import (
    Dataset,
    _check_affine,
    _check_noise_level,
    _write_table,
    add_correlated_feature,
    add_gaussian_noise,
    make_outlier,
    train_test_split,
)

DEFAULT_SEEDS = (0, 1, 2, 3, 4)
DEFAULT_NOISE_LEVELS = (0.0, 100.0, 200.0, 300.0, 400.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Model/split hyperparameters shared by the experiment protocols."""

    n_estimators: int = 10
    max_depth: int = 3
    learning_rate: float = 0.1
    min_samples_leaf: int = 1
    test_fraction: float = 0.1

    def gbdt_params(self, seed: int) -> GbdtParams:
        return GbdtParams(
            n_estimators=self.n_estimators,
            learning_rate=self.learning_rate,
            cart=CartParams(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
            ),
            seed=seed,
        )


# Protocol defaults: ten shallow trees for the consistency studies (the
# outlier study instead wants trees deep enough to isolate single samples).
CORRELATION_CONFIG = ExperimentConfig()
NOISE_CONFIG = ExperimentConfig(max_depth=2)
OUTLIER_CONFIG = ExperimentConfig(max_depth=15)


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict


def dataset_fingerprint(ds: Dataset) -> str:
    """sha256 over feature names and raw array bytes; split/seed agnostic."""
    h = hashlib.sha256()
    h.update(",".join(ds.feature_names).encode("utf-8"))
    h.update(np.ascontiguousarray(ds.features).tobytes())
    h.update(np.ascontiguousarray(ds.target).tobytes())
    return h.hexdigest()


def _mean_rows(prefix: tuple, names, matrix: np.ndarray) -> list[tuple]:
    return [
        (
            *prefix,
            name,
            float(matrix[:, j].mean()),
            float(np.abs(matrix[:, j]).mean()),
        )
        for j, name in enumerate(names)
    ]


def _seeds(seeds) -> tuple[int, ...]:
    """The seeds as ints, or ValueError unless they are a non-empty iterable of non-negative integers
    (Python or numpy; neither a bool nor a string is one)."""
    try:
        seeds = tuple(seeds)
    except TypeError:
        raise ValueError(f"seeds must be an iterable of integers, got {seeds!r}") from None
    if not seeds:
        raise ValueError("need at least one seed")
    for seed in seeds:
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"a seed must be a non-negative integer, got {seed!r}")
    return tuple(map(int, seeds))


def _report(name: str, ds: Dataset, config: ExperimentConfig, columns: tuple, rows, **metadata) -> ExperimentReport:
    """The study's report. Its metadata leads with the study, its config and its dataset's fingerprint."""
    metadata = {"experiment": name, "config": asdict(config), "dataset_sha256": dataset_fingerprint(ds), **metadata}
    return ExperimentReport(name, columns, tuple(rows), metadata)


def run_correlation_experiment(
    ds: Dataset,
    *,
    base_feature: str | None = None,
    seeds=DEFAULT_SEEDS,
    factor: float | None = None,
    offset: float | None = None,
    config: ExperimentConfig = CORRELATION_CONFIG,
) -> ExperimentReport:
    """Compare attributions before/after adding an affine copy of a feature.

    Per seed: draw factor ~ U[0.5, 2] and offset ~ U[-1, 1] (unless
    overridden), append ``factor * base + offset`` as a new column, fit one
    model on the original and one on the augmented training split, and
    average contributions over the shared test rows. The augmented model
    additionally gets a ``base+copy`` row holding the per-sample sum of the
    pair's contributions, which is the quantity comparable to the original
    model's base-feature row.

    The original models do not depend on the base feature, so they grow
    first, as one group; the automatic base is the most important feature
    of seeds[0]'s. The augmented models, a column wider, grow as another.
    Explicit arguments are checked before any model is fitted.
    """
    seeds = _seeds(seeds)
    if base_feature is not None:
        ds.feature_index(base_feature)
    runs_meta = []
    for seed in seeds:
        rng = np.random.default_rng([seed, 0])
        factor_draw = float(rng.uniform(0.5, 2.0))
        offset_draw = float(rng.uniform(-1.0, 1.0))
        f = factor_draw if factor is None else float(factor)
        o = offset_draw if offset is None else float(offset)
        _check_affine(f, o)
        runs_meta.append({"seed": seed, "factor": f, "offset": o})

    splits_orig = [train_test_split(ds, config.test_fraction, seed) for seed in seeds]
    models_orig = _fit_group([train for train, _ in splits_orig], config.gbdt_params(0), seeds)
    base = base_feature
    if base is None:
        base = ds.feature_names[int(np.argmax(feature_importance(models_orig[0])))]
    new_name = f"{base}_corr"
    while new_name in ds.feature_names:
        new_name += "_"
    # Same n and seed => identical row permutation, so both variants share
    # train/test rows.
    splits_aug = [
        train_test_split(add_correlated_feature(ds, base, run["factor"], run["offset"], new_name), config.test_fraction, run["seed"])
        for run in runs_meta
    ]
    models_aug = _fit_group([train for train, _ in splits_aug], config.gbdt_params(0), seeds)

    rows: list[tuple] = []
    for seed, (_, test_orig), (train_aug, test_aug), model_orig, model_aug in zip(
        seeds, splits_orig, splits_aug, models_orig, models_aug
    ):
        mat_orig = _explain_arrays(model_orig, test_orig)[1]
        mat_aug = _explain_arrays(model_aug, test_aug)[1]

        rows.extend(_mean_rows((seed, "original"), ds.feature_names, mat_orig))
        rows.extend(_mean_rows((seed, "augmented"), train_aug.feature_names, mat_aug))
        pair = mat_aug[:, train_aug.feature_index(base)] + mat_aug[:, train_aug.feature_index(new_name)]
        rows.extend(_mean_rows((seed, "augmented"), [f"{base}+{new_name}"], pair[:, None]))

    return _report(
        "correlation", ds, config, ("seed", "model", "feature", "mean_contribution", "mean_abs_contribution"), rows,
        base_feature=base, correlated_feature=new_name, runs=runs_meta,
    )


def run_noise_experiment(
    ds: Dataset,
    *,
    feature: str | None = None,
    levels=DEFAULT_NOISE_LEVELS,
    seed: int = 0,
    config: ExperimentConfig = NOISE_CONFIG,
) -> ExperimentReport:
    """Degrade one training feature with Gaussian noise and re-attribute.

    The split is made once; every level re-trains on the noised training
    set and explains the same clean test rows. Level 0 adds no noise and
    consumes no random draws, so its rows reproduce the baseline exactly,
    and it reuses the baseline model when one was fitted to pick the feature.
    The seed and levels are checked before any model is fitted.
    """
    seed = _seeds([seed])[0]
    levels = tuple(float(lv) for lv in levels)
    if not levels:
        raise ValueError("need at least one noise level")
    for level in levels:
        _check_noise_level(level)
    train, test = train_test_split(ds, config.test_fraction, seed)
    baseline = None
    if feature is None:
        baseline = fit_gbdt(train, config.gbdt_params(seed))
        feature = ds.feature_names[int(np.argmax(feature_importance(baseline)))]
    else:
        ds.feature_index(feature)
    noise_seeds = np.random.default_rng([seed, 0]).integers(2**63, size=len(levels))

    reused = [level == 0.0 and baseline is not None for level in levels]
    noised = [add_gaussian_noise(train, feature, lv, int(s)) for lv, s, r in zip(levels, noise_seeds, reused) if not r]
    fitted = iter(_fit_group(noised, config.gbdt_params(seed), [seed] * len(noised)) if noised else [])
    rows: list[tuple] = []
    for level, r in zip(levels, reused):
        matrix = _explain_arrays(baseline if r else next(fitted), test)[1]
        rows.extend(_mean_rows((seed, level), ds.feature_names, matrix))

    return _report(
        "noise", ds, config, ("seed", "level", "feature", "mean_contribution", "mean_abs_contribution"), rows,
        noised_feature=feature, seed=seed, levels=list(levels), noise_seeds=[int(s) for s in noise_seeds],
    )


def run_outlier_experiment(
    ds: Dataset,
    *,
    feature: str | None = None,
    seeds=DEFAULT_SEEDS,
    config: ExperimentConfig = OUTLIER_CONFIG,
) -> ExperimentReport:
    """Plant one extreme fake sample and see which feature gets the credit.

    Per seed: take the training split, fabricate a sample sitting at the
    feature means except for ``feature`` (pushed past its max), append it
    with an equally extreme target, fit deep trees, and explain the fake
    sample. ``manipulated_rank`` is the 1-based rank of the manipulated
    feature when features are sorted by |contribution| descending (ties
    share the better rank).
    """
    seeds = _seeds(seeds)
    feat = ds.feature_names[0] if feature is None else feature
    ds.feature_index(feat)

    trains = [train_test_split(ds, config.test_fraction, seed)[0] for seed in seeds]
    samples = [make_outlier(train, feat) for train in trains]
    poisoned = [
        Dataset(np.vstack([train.features, sample.x_fake]), np.append(train.target, sample.y_fake), train.feature_names)
        for train, sample in zip(trains, samples)
    ]
    models = _fit_group(poisoned, config.gbdt_params(0), seeds)
    rows: list[tuple] = []
    for seed, sample in zip(seeds, samples):
        # Each model goes once explained, with the kernel arrays it caches.
        expl = feature_contributions(models.pop(0), sample.x_fake)
        magnitudes = np.array(
            [abs(expl.contributions[name]) for name in ds.feature_names]
        )
        rank = 1 + int(np.sum(magnitudes > abs(expl.contributions[feat])))
        rows.append(
            (
                seed,
                expl.bias,
                *(expl.contributions[name] for name in ds.feature_names),
                expl.prediction,
                sample.y_fake,
                feat,
                rank,
            )
        )

    columns = ("seed", "bias", *ds.feature_names, "prediction", "y_fake", "manipulated_feature", "manipulated_rank")
    return _report("outlier", ds, config, columns, rows, manipulated_feature=feat, seeds=list(seeds))


def write_report(report: ExperimentReport, out_dir) -> tuple[Path, Path]:
    """Write <name>.csv and <name>_metadata.json; returns both paths.

    Output bytes are a pure function of the report: fixed row order,
    ``\\n`` line endings, JSON keys sorted. A column of floats, Python or
    numpy, is written as float64 via ``repr``; any other column via ``str``,
    quoted as csv quotes it.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{report.name}.csv"
    columns = list(zip(*report.rows)) or [()] * len(report.columns)  # no rows: the header alone
    _write_table(csv_path, report.columns, [
        np.array(column, dtype=np.float64)
        if all(isinstance(v, (float, np.floating)) for v in column)
        else list(map(str, column))
        for column in columns
    ])
    meta_path = out / f"{report.name}_metadata.json"
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(report.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, meta_path
