import hashlib
import csv
import io
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from boostcontrib import (
    Ensemble,
    add_correlated_feature,
    batch_explain,
    feature_importance,
    fit_gbdt,
    make_outlier,
    train_test_split,
)
from boostcontrib import DataError, boosting, cart, experiments
from boostcontrib.experiments import (
    ExperimentConfig,
    ExperimentReport,
    dataset_fingerprint,
    run_correlation_experiment,
    run_noise_experiment,
    run_outlier_experiment,
    write_report,
)
from conftest import build_synthetic

CFG = ExperimentConfig(n_estimators=5, max_depth=2)


@pytest.fixture(scope="module")
def small():
    return build_synthetic(n=120, d=4, seed=2)


def contribution_means(model, test):
    mats = batch_explain(model, test)
    out = {}
    for name in model.feature_names:
        vals = np.array([e.contributions[name] for e in mats])
        out[name] = (float(vals.mean()), float(np.abs(vals).mean()))
    return out


class TestCorrelation:
    def test_report_shape_and_metadata(self, small):
        report = run_correlation_experiment(small, seeds=(0, 1), config=CFG)
        assert report.name == "correlation"
        assert report.columns == (
            "seed", "model", "feature", "mean_contribution", "mean_abs_contribution",
        )
        # per seed: 4 original rows + 5 augmented rows + 1 pair-sum row
        assert len(report.rows) == 2 * (4 + 5 + 1)
        meta = report.metadata
        assert meta["base_feature"] == "x0"  # dominant by construction
        assert meta["correlated_feature"] == "x0_corr"
        assert meta["dataset_sha256"] == dataset_fingerprint(small)
        for run in meta["runs"]:
            assert 0.5 <= run["factor"] <= 2.0
            assert -1.0 <= run["offset"] <= 1.0

    def test_auto_base_is_argmax_importance(self, small):
        report = run_correlation_experiment(small, seeds=(3,), config=CFG)
        train, _ = train_test_split(small, CFG.test_fraction, 3)
        model = fit_gbdt(train, CFG.gbdt_params(3))
        best = small.feature_names[int(np.argmax(feature_importance(model)))]
        assert report.metadata["base_feature"] == best

    def test_explicit_base_feature(self, small):
        report = run_correlation_experiment(small, base_feature="x2", seeds=(0,), config=CFG)
        assert report.metadata["base_feature"] == "x2"
        assert report.metadata["correlated_feature"] == "x2_corr"

    def test_forced_duplicate_preserves_pair_sum_per_sample(self, small):
        # factor=1, offset=0 adds a byte-identical column; the pair's summed
        # contribution must match the original model sample by sample
        seed = 1
        augmented = add_correlated_feature(small, "x0", 1.0, 0.0, "x0_corr")
        train_o, test_o = train_test_split(small, CFG.test_fraction, seed)
        train_a, test_a = train_test_split(augmented, CFG.test_fraction, seed)
        model_o = fit_gbdt(train_o, CFG.gbdt_params(seed))
        model_a = fit_gbdt(train_a, CFG.gbdt_params(seed))
        explained_o = batch_explain(model_o, test_o)
        explained_a = batch_explain(model_a, test_a)
        for eo, ea in zip(explained_o, explained_a):
            pair = ea.contributions["x0"] + ea.contributions["x0_corr"]
            assert pair == pytest.approx(eo.contributions["x0"], abs=1e-8)
            assert ea.prediction == pytest.approx(eo.prediction, abs=1e-8)

    def test_pair_sum_row_matches_recomputation(self, small):
        seed = 0
        report = run_correlation_experiment(
            small, seeds=(seed,), factor=1.0, offset=0.0, config=CFG
        )
        pair_rows = [r for r in report.rows if r[2] == "x0+x0_corr"]
        assert len(pair_rows) == 1
        augmented = add_correlated_feature(small, "x0", 1.0, 0.0, "x0_corr")
        train_a, test_a = train_test_split(augmented, CFG.test_fraction, seed)
        model_a = fit_gbdt(train_a, CFG.gbdt_params(seed))
        sums = np.array(
            [
                e.contributions["x0"] + e.contributions["x0_corr"]
                for e in batch_explain(model_a, test_a)
            ]
        )
        assert pair_rows[0][3] == float(sums.mean())
        assert pair_rows[0][4] == float(np.abs(sums).mean())

    def test_overrides_recorded_in_metadata(self, small):
        report = run_correlation_experiment(
            small, seeds=(0, 1), factor=1.0, offset=0.0, config=CFG
        )
        assert all(r["factor"] == 1.0 and r["offset"] == 0.0 for r in report.metadata["runs"])

    def test_deterministic(self, small):
        a = run_correlation_experiment(small, seeds=(0, 1), config=CFG)
        b = run_correlation_experiment(small, seeds=(0, 1), config=CFG)
        assert a.rows == b.rows
        assert a.metadata == b.metadata


class TestNoise:
    def test_level_zero_equals_baseline_exactly(self, small):
        report = run_noise_experiment(
            small, feature="x0", levels=(0.0, 100.0), seed=3, config=CFG
        )
        train, test = train_test_split(small, CFG.test_fraction, 3)
        baseline = contribution_means(fit_gbdt(train, CFG.gbdt_params(3)), test)
        zero_rows = {r[2]: (r[3], r[4]) for r in report.rows if r[1] == 0.0}
        assert zero_rows == baseline

    def test_every_feature_has_a_row_per_level(self, small):
        levels = (0.0, 50.0, 100.0)
        report = run_noise_experiment(small, levels=levels, seed=0, config=CFG)
        assert len(report.rows) == len(levels) * small.n_features
        for level in levels:
            features = [r[2] for r in report.rows if r[1] == level]
            assert features == list(small.feature_names)

    def test_auto_picks_most_important(self, small):
        report = run_noise_experiment(small, seed=0, levels=(0.0,), config=CFG)
        assert report.metadata["noised_feature"] == "x0"

    def test_explicit_feature(self, small):
        report = run_noise_experiment(small, feature="x3", seed=0, levels=(0.0,), config=CFG)
        assert report.metadata["noised_feature"] == "x3"

    def test_noise_seeds_recorded(self, small):
        report = run_noise_experiment(small, levels=(0.0, 100.0), seed=5, config=CFG)
        assert len(report.metadata["noise_seeds"]) == 2
        expected = np.random.default_rng([5, 0]).integers(2**63, size=2)
        assert report.metadata["noise_seeds"] == [int(s) for s in expected]

    def test_deterministic(self, small):
        a = run_noise_experiment(small, seed=1, config=CFG)
        b = run_noise_experiment(small, seed=1, config=CFG)
        assert a.rows == b.rows


class TestOutlier:
    def test_one_row_per_seed_with_rank(self, small):
        report = run_outlier_experiment(small, seeds=(0, 1, 2), config=CFG)
        assert len(report.rows) == 3
        assert report.columns == (
            "seed", "bias", "x0", "x1", "x2", "x3",
            "prediction", "y_fake", "manipulated_feature", "manipulated_rank",
        )
        for row in report.rows:
            assert row[8] == "x0"  # defaults to the first feature
            contribs = dict(zip(("x0", "x1", "x2", "x3"), row[2:6]))
            better = sum(
                1 for v in contribs.values() if abs(v) > abs(contribs["x0"])
            )
            assert row[9] == 1 + better

    def test_row_is_additive(self, small):
        report = run_outlier_experiment(small, seeds=(0,), config=CFG)
        row = report.rows[0]
        bias, contribs, prediction = row[1], row[2:6], row[6]
        assert bias + sum(contribs) == pytest.approx(prediction, rel=1e-12, abs=1e-12)

    def test_y_fake_matches_the_training_split(self, small):
        report = run_outlier_experiment(small, seeds=(4,), config=CFG)
        train, _ = train_test_split(small, CFG.test_fraction, 4)
        assert report.rows[0][7] == make_outlier(train, "x0").y_fake

    def test_explicit_feature(self, small):
        report = run_outlier_experiment(small, feature="x2", seeds=(0,), config=CFG)
        assert report.rows[0][8] == "x2"
        assert report.metadata["manipulated_feature"] == "x2"


class TestWriteReport:
    def test_files_and_byte_determinism(self, small, tmp_path):
        report = run_noise_experiment(small, levels=(0.0, 100.0), seed=0, config=CFG)
        c1, m1 = write_report(report, tmp_path / "a")
        c2, m2 = write_report(report, tmp_path / "b")
        assert c1.name == "noise.csv" and m1.name == "noise_metadata.json"
        assert c1.read_bytes() == c2.read_bytes()
        assert m1.read_bytes() == m2.read_bytes()

    def test_csv_floats_round_trip(self, small, tmp_path):
        report = run_outlier_experiment(small, seeds=(0,), config=CFG)
        csv_path, _ = write_report(report, tmp_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(report.columns)
        parsed_bias = float(rows[1][1])
        assert parsed_bias == report.rows[0][1]

    def test_metadata_is_sorted_json(self, small, tmp_path):
        report = run_noise_experiment(small, levels=(0.0,), seed=0, config=CFG)
        _, meta_path = write_report(report, tmp_path)
        text = meta_path.read_text()
        assert json.loads(text)["experiment"] == "noise"
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_cells_of_every_kind(self, tmp_path):
        # A seed beyond int64, numpy integers and floats of both widths, NaN,
        # and a name that csv must quote.
        name = 'a,b"c\nd'
        rows = (
            (2**64, np.int64(-3), np.float64(0.1), np.float32(0.1), float("nan"), name),
            (0, np.int64(7), np.float64(-2.5), np.float32(1e-3), 1.5, "x0"),
        )
        report = ExperimentReport("hand", ("seed", "count", "f64", "f32", "nan", "name"), rows, {})
        csv_path, _ = write_report(report, tmp_path)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(report.columns)
        writer.writerows(
            [str(int(seed)), str(int(count)), repr(float(f64)), repr(float(f32)), repr(float(nan)), text]
            for seed, count, f64, f32, nan, text in rows
        )
        assert csv_path.read_bytes() == expected.getvalue().encode()
        assert '18446744073709551616,-3,0.1,0.10000000149011612,nan,"a,b""c\nd"\n' in expected.getvalue()

    def test_no_rows_writes_the_header_alone(self, tmp_path):
        report = ExperimentReport("empty", ("seed", "a,b", "mean"), (), {})
        csv_path, _ = write_report(report, tmp_path)
        assert csv_path.read_bytes() == b'seed,"a,b",mean\n'

    def test_an_empty_cell_alone_on_its_line_is_quoted(self, tmp_path):
        report = ExperimentReport("one", ("name",), (("",), ("x",)), {})
        csv_path, _ = write_report(report, tmp_path)
        assert csv_path.read_bytes() == b'name\n""\nx\n'


class TestInputsUntouched:
    def test_runners_do_not_mutate_the_dataset(self, small):
        before = small.features.copy()
        run_correlation_experiment(small, seeds=(0,), config=CFG)
        run_noise_experiment(small, levels=(0.0, 100.0), seed=0, config=CFG)
        run_outlier_experiment(small, seeds=(0,), config=CFG)
        assert np.array_equal(small.features, before)


class TestPinnedReports:
    """Report bytes of each study at its defaults, pinned before the
    level-wise grower and before the studies reused their duplicate fits."""

    @pytest.mark.parametrize(
        "runner, want",
        [
            (run_correlation_experiment, "98a57a5120bec6bc56a0312a4f2058f11ab00abf595ad9893eeb6cf79ae6d860"),
            (run_noise_experiment, "961ebc673b99ddcae40faf66a257930255290431ce7393cebd4fb2e382bd665c"),
            (run_outlier_experiment, "41b625b8e721019882f1cc334580079f23e5b73d34ff1122641d3fa2d0a8b1c9"),
        ],
        ids=["correlation", "noise", "outlier"],
    )
    def test_default_report_bytes(self, runner, want, tmp_path):
        paths = write_report(runner(build_synthetic(n=250, d=8, seed=3)), tmp_path)
        digest = hashlib.sha256(b"".join(path.read_bytes() for path in paths))
        assert digest.hexdigest() == want

    # Non-default arguments, pinned before the studies grew their fits in
    # lockstep: the reports must not depend on which fits grow together.
    NON_DEFAULT = {
        "correlation-base-x3": lambda ds: run_correlation_experiment(ds, base_feature="x3"),
        "noise-x1-with-level-0": lambda ds: run_noise_experiment(ds, feature="x1"),
        "correlation-seeds-0-0": lambda ds: run_correlation_experiment(ds, seeds=(0, 0)),
        "outlier-seeds-0-0": lambda ds: run_outlier_experiment(ds, seeds=(0, 0)),
        "correlation-one-seed": lambda ds: run_correlation_experiment(ds, seeds=(4,)),
        "outlier-one-seed": lambda ds: run_outlier_experiment(ds, seeds=(4,)),
        "outlier-second-dataset": lambda ds: run_outlier_experiment(build_synthetic(n=180, d=5, seed=11), feature="x2"),
    }

    @pytest.mark.parametrize(
        "case, want",
        [
            ("correlation-base-x3", "81464f62b1fa07da1b8020e576ec42af36763e7ae0d28334663954c035b999ba"),
            ("noise-x1-with-level-0", "402b22a062cc02967b7389ec669c637ed1b8ce33eb237658d0d2026413017307"),
            ("correlation-seeds-0-0", "25fdcaeb8a242984bb7e90e363c7ca1e9afe2fc1895663566d81b04605346317"),
            ("outlier-seeds-0-0", "cf833f6bfba8d1108eb674e2fb05725afe729476654dd3455f7ca767774f4f35"),
            ("correlation-one-seed", "3fba5d587ce4c8519e751181b5cbce257bfae26a8ea7184851e498141a033b5c"),
            ("outlier-one-seed", "ba0d5f06b9b1974e27d3a30b809677c69ba78da12e867d74f7ec540ab79c9e78"),
            ("outlier-second-dataset", "fecafd0778659d36807dcf3f97480cb0fe484c2dc4c7ab8e2f1c785167af2daf"),
        ],
    )
    def test_non_default_report_bytes(self, case, want, tmp_path):
        paths = write_report(self.NON_DEFAULT[case](build_synthetic(n=250, d=8, seed=3)), tmp_path)
        digest = hashlib.sha256(b"".join(path.read_bytes() for path in paths))
        assert digest.hexdigest() == want


class TestFitsEachModelOnce:
    """The automatic feature choice fits a model the study needs anyway."""

    @staticmethod
    def fitted_models(run):
        """How many models `run()` fits: the fits construct one Ensemble each."""
        with mock.patch("boostcontrib.boosting.Ensemble", wraps=Ensemble) as ensemble:
            run()
        return ensemble.call_count

    @pytest.mark.parametrize("base_feature, fits", [(None, 4), ("x1", 4)])
    def test_correlation(self, small, base_feature, fits):
        # Per seed an original and an augmented model; the automatic base
        # feature is read off the first seed's original model.
        run = lambda: run_correlation_experiment(small, base_feature=base_feature, seeds=(0, 1), config=CFG)
        assert self.fitted_models(run) == fits

    def test_correlation_grows_two_groups_and_no_lone_fit(self, small):
        # Every fit, fit_gbdt's too, goes through _fit_group: with the
        # automatic base, the originals still grow as one group, then the
        # augmented models as another.
        real, sizes = boosting._fit_group, []

        def spy(datasets, *rest):
            sizes.append(len(datasets))
            return real(datasets, *rest)

        with mock.patch.object(boosting, "_fit_group", spy), mock.patch.object(experiments, "_fit_group", spy):
            run_correlation_experiment(small, seeds=(0, 1, 2), config=CFG)
        assert sizes == [3, 3]

    @pytest.mark.parametrize("feature, fits", [(None, 2), ("x1", 2)])
    def test_noise(self, small, feature, fits):
        # Level 0 leaves the data as it is, so it is the baseline model.
        run = lambda: run_noise_experiment(small, feature=feature, levels=(0.0, 100.0), seed=0, config=CFG)
        assert self.fitted_models(run) == fits

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"factor": float("nan")}, "factor must be finite, got nan"),
            ({"factor": 0.0}, "factor must be nonzero"),
            ({"offset": float("inf")}, "offset must be finite, got inf"),
            ({"levels": (float("inf"),)}, "variance_pct must be finite and nonnegative, got inf"),
            ({"levels": (-1.0,)}, "variance_pct must be finite and nonnegative, got -1.0"),
            ({"levels": (0.0, float("nan"))}, "variance_pct must be finite and nonnegative, got nan"),
        ],
        ids=["factor-nan", "factor-zero", "offset-inf", "level-inf", "level-negative", "level-nan-after-0"],
    )
    def test_bad_parameter_is_refused_before_any_fit(self, small, kwargs, message):
        # With the automatic base or feature, which a fit picks.
        runner = run_noise_experiment if "levels" in kwargs else run_correlation_experiment
        with mock.patch("boostcontrib.boosting.Ensemble", wraps=Ensemble) as ensemble:
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                runner(small, config=CFG, **kwargs)
        assert ensemble.call_count == 0

    @pytest.mark.parametrize(
        "runner, kwargs",
        [
            (run_outlier_experiment, {"seeds": [1.7]}),
            (run_outlier_experiment, {"seeds": "12"}),
            (run_outlier_experiment, {"seeds": 5}),
            (run_correlation_experiment, {"seeds": [0, True]}),
            (run_correlation_experiment, {"seeds": [-1]}),
            (run_correlation_experiment, {"seeds": ()}),
            (run_noise_experiment, {"seed": 1.5}),
            (run_noise_experiment, {"seed": "3"}),
            (run_noise_experiment, {"seed": np.True_}),
        ],
        ids=["float", "string", "int", "bool", "negative", "empty", "noise-float", "noise-string", "noise-numpy-bool"],
    )
    def test_bad_seeds_are_refused_before_any_fit(self, small, runner, kwargs):
        with mock.patch("boostcontrib.boosting.Ensemble", wraps=Ensemble) as ensemble:
            with pytest.raises(ValueError, match="seed"):
                runner(small, config=CFG, **kwargs)
        assert ensemble.call_count == 0

    def test_numpy_integer_seeds_are_recorded_as_ints(self, small):
        assert run_outlier_experiment(small, seeds=np.array([4, 0]), config=CFG).metadata["seeds"] == [4, 0]
        report = run_noise_experiment(small, levels=(0.0,), seed=np.uint8(3), config=CFG)
        assert report == run_noise_experiment(small, levels=(0.0,), seed=3, config=CFG)
        assert type(report.metadata["seed"]) is int


class TestLockstepMemory:
    """Growing a study's fits together holds all their models at once, but
    its searches stay bounded and no model outlives its explanation."""

    def test_outlier_study_peak(self):
        # Traced peak: 1.57 MB with one fit at a time, 2.16-2.30 MB in
        # lockstep; 3.0 MB when every explained model kept its kernel
        # arrays, 4.0 MB without the search bound.
        ds = build_synthetic(n=250, d=8, seed=3)
        tracemalloc.start()
        try:
            run_outlier_experiment(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.6e6

    def test_searches_stay_within_the_cell_bound(self):
        real, shapes = cart._search, []

        def spy(Xt, y, slab, *rest):
            shapes.append(slab.shape)
            return real(Xt, y, slab, *rest)

        with mock.patch.object(cart, "_search", spy):
            run_outlier_experiment(build_synthetic(n=250, d=8, seed=3))
            run_correlation_experiment(build_synthetic(n=400, d=30, seed=1), seeds=(0, 1, 2))
        cells = [d * k * m for d, k, m in shapes if k > 1]
        assert max(cells) <= cart.SEARCH_CELLS < max(cells) * 2  # the bound binds
        assert any(d * m > cart.SEARCH_CELLS for d, k, m in shapes if k == 1)  # a lone node may exceed it
