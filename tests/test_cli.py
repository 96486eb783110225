import csv
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boostcontrib import (
    Ensemble,
    ModelFormatError,
    batch_explain,
    cli,
    decision_contributions,
    feature_importance,
    kernel,
    load_csv,
    load_model,
    predict_batch,
)
from boostcontrib.contrib import _explain_arrays
from boostcontrib.experiments import CORRELATION_CONFIG, NOISE_CONFIG, OUTLIER_CONFIG
from boostcontrib.kernel import FlatForest
from conftest import build_synthetic, json_leaf, json_split, tree_of


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    ds = build_synthetic(n=150, d=3, seed=9)
    path = tmp_path_factory.mktemp("data") / "data.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*ds.feature_names, "y"])
        for x, y in zip(ds.features, ds.target):
            writer.writerow([repr(float(v)) for v in x] + [repr(float(y))])
    return path


@pytest.fixture(scope="module")
def model_json(tmp_path_factory, data_csv):
    path = tmp_path_factory.mktemp("model") / "model.json"
    code = cli.main([
        "train", "--data", str(data_csv), "--target", "y",
        "--n-estimators", "5", "--max-depth", "3", "--seed", "0",
        "--model-out", str(path),
    ])
    assert code == 0
    return path


# Feature names the csv module must quote: a comma, a quote, a line break.
QUOTED_NAMES = ["a,b", 'q"t', "line\nbreak"]


@pytest.fixture(scope="module")
def quoted_files(tmp_path_factory):
    """A CSV whose feature names need quoting, and a model trained on it."""
    ds = build_synthetic(n=80, d=3, seed=5)
    folder = tmp_path_factory.mktemp("quoted")
    data, model = folder / "data.csv", folder / "model.json"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*QUOTED_NAMES, "y"])
        for x, y in zip(ds.features, ds.target):
            writer.writerow([repr(float(v)) for v in x] + [repr(float(y))])
    assert cli.main([
        "train", "--data", str(data), "--target", "y", "--no-split",
        "--n-estimators", "4", "--max-depth", "3", "--model-out", str(model),
    ]) == 0
    return data, model


def csv_bytes(header, rows) -> bytes:
    """The csv module's text for a header and rows of ready-made cells."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestTrain:
    def test_prints_both_mse_lines(self, data_csv, tmp_path, capsys):
        code = cli.main([
            "train", "--data", str(data_csv), "--target", "y",
            "--n-estimators", "3", "--model-out", str(tmp_path / "m.json"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "train_mse=" in out and "test_mse=" in out

    def test_no_split_trains_on_everything(self, data_csv, tmp_path, capsys):
        code = cli.main([
            "train", "--data", str(data_csv), "--target", "y", "--no-split",
            "--n-estimators", "3", "--model-out", str(tmp_path / "m.json"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "train_mse=" in out and "test_mse=" not in out

    def test_identical_invocations_identical_bytes(self, data_csv, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        base = ["train", "--data", str(data_csv), "--target", "y", "--n-estimators", "4"]
        assert cli.main([*base, "--model-out", str(p1)]) == 0
        assert cli.main([*base, "--model-out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_target_flag_is_a_usage_error(self, data_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["train", "--data", str(data_csv), "--model-out", str(tmp_path / "m.json")])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_unknown_target_column(self, data_csv, tmp_path, capsys):
        code = cli.main([
            "train", "--data", str(data_csv), "--target", "zzz",
            "--model-out", str(tmp_path / "m.json"),
        ])
        assert code == 3
        assert "not found" in capsys.readouterr().err

    def test_target_only_file_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "y.csv"
        data.write_text("y\n1\n2\n3\n")
        code = cli.main([
            "train", "--data", str(data), "--target", "y", "--model-out", str(tmp_path / "m.json"),
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {data}: dataset must contain at least one feature column\n"
        )

    def test_missing_data_file(self, tmp_path, capsys):
        code = cli.main([
            "train", "--data", str(tmp_path / "nope.csv"), "--target", "y",
            "--model-out", str(tmp_path / "m.json"),
        ])
        assert code == 3
        capsys.readouterr()


    def test_targets_whose_residual_sums_overflow_are_refused(self, tmp_path, capsys):
        # Targets 1.5**i, i < 1100, reach 1e193, whose squares overflow. The
        # fit is refused, where a one-leaf model with train_mse=inf was written.
        data, model = tmp_path / "d.csv", tmp_path / "m.json"
        data.write_text("x,y\n" + "".join(f"{i},{1.5 ** i!r}\n" for i in range(1100)))
        code = cli.main([
            "train", "--data", str(data), "--target", "y", "--max-depth", "2000",
            "--model-out", str(model),
        ])
        assert code == 3
        assert not model.exists()
        assert capsys.readouterr().err.startswith("error: targets too large to fit")

    @pytest.mark.parametrize(
        "low, high, rows, split",
        [
            ("1.0000000000000002", "1.0000000000000004", 2, ["--no-split"]),
            ("1e308", "1.7e308", 4, []),
            ("-1.7e308", "-1e308", 4, []),
        ],
        ids=["adjacent", "overflow", "negative-overflow"],
    )
    def test_split_between_extreme_values_trains_and_verifies(self, low, high, rows, split, tmp_path, capsys):
        # Their midpoint rounds up to the higher value or overflows; the
        # threshold is then the lower value, which still separates them.
        data, model = tmp_path / "d.csv", tmp_path / "m.json"
        data.write_text("x,y\n" + f"{low},0\n{high},1\n" * (rows // 2))
        assert cli.main([
            "train", "--data", str(data), "--target", "y", "--n-estimators", "2", *split,
            "--model-out", str(model),
        ]) == 0
        assert load_model(model).trees[0].threshold[0] == float(low)
        assert cli.main(["verify", "--model", str(model), "--data", str(data), "--target", "y"]) == 0
        assert capsys.readouterr().out.endswith("all checks passed\n")


class TestUsageErrors:
    """Out-of-range values are usage errors (exit 2), like malformed ones."""

    COMMANDS = {
        "train": ["train", "--model-out", "m.json"],
        "correlation": ["experiment", "correlation", "--out-dir", "out"],
        "noise": ["experiment", "noise", "--out-dir", "out"],
        "outlier": ["experiment", "outlier", "--out-dir", "out"],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-depth", "0", "must be at least 1, got 0"),
            ("--n-estimators", "0", "must be at least 1, got 0"),
            ("--min-samples-leaf", "0", "must be at least 1, got 0"),
            ("--learning-rate", "1.5", "must be in (0, 1], got 1.5"),
            ("--learning-rate", "0", "must be in (0, 1], got 0.0"),
            ("--test-fraction", "1.5", "must be in (0, 1), got 1.5"),
            ("--test-fraction", "0", "must be in (0, 1), got 0.0"),
        ],
    )
    def test_hyperparameter_out_of_range(self, command, flag, value, message, data_csv, capsys):
        argv = [*self.COMMANDS[command], "--data", str(data_csv), "--target", "y", flag, value]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [("train", "--seed"), ("noise", "--seed"), ("correlation", "--seeds"), ("outlier", "--seeds")],
    )
    def test_negative_seed(self, command, flag, data_csv, capsys):
        argv = [*self.COMMANDS[command], "--data", str(data_csv), "--target", "y", flag, "-1"]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert f"argument {flag}: must be at least 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("noise", "--levels", "nan"),
            ("noise", "--levels", "inf"),
            ("correlation", "--factor", "nan"),
            ("correlation", "--factor", "inf"),
            ("correlation", "--offset", "inf"),
            ("correlation", "--offset", "-inf"),
        ],
    )
    def test_non_finite_study_parameter(self, command, flag, value, data_csv, capsys):
        # Refused before the study fits anything, not blamed on the data.
        argv = [*self.COMMANDS[command], "--data", str(data_csv), "--target", "y", f"{flag}={value}"]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert f"argument {flag}: must be finite, got {float(value)}" in capsys.readouterr().err

    def test_overflowing_copy_is_named(self, data_csv, tmp_path, capsys):
        argv = [*self.COMMANDS["correlation"], "--data", str(data_csv), "--target", "y", "--factor", "1e308", "--offset", "0"]
        assert cli.main([*argv, "--base-feature", "x0", "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err == "error: the copy x0_corr = 1e+308 * x0 + 0.0 overflows\n"


class TestDefaults:
    @pytest.mark.parametrize(
        "study, config", [("correlation", CORRELATION_CONFIG), ("noise", NOISE_CONFIG), ("outlier", OUTLIER_CONFIG)]
    )
    def test_each_study_defaults_to_its_protocol(self, study, config):
        args = cli.build_parser().parse_args([*TestUsageErrors.COMMANDS[study], "--data", "d.csv", "--target", "y"])
        assert cli._experiment_config(args) == config

    def test_train_defaults(self):
        args = cli.build_parser().parse_args([*TestUsageErrors.COMMANDS["train"], "--data", "d.csv", "--target", "y"])
        hyper = (args.n_estimators, args.max_depth, args.learning_rate, args.min_samples_leaf, args.test_fraction)
        assert (*hyper, args.seed, args.no_split) == (100, 3, 0.1, 1, 0.1, 0, False)


class TestPredict:
    def test_matches_library_predictions(self, data_csv, model_json, tmp_path):
        out = tmp_path / "preds.csv"
        assert cli.main([
            "predict", "--model", str(model_json), "--data", str(data_csv),
            "--target", "y", "--out", str(out),
        ]) == 0
        rows = read_csv(out)
        assert rows[0] == ["sample_index", "prediction"]
        model = load_model(model_json)
        ds = load_csv(data_csv, "y")
        expected = predict_batch(model, ds.features)
        got = np.array([float(r[1]) for r in rows[1:]])
        assert np.array_equal(got, expected)

    def test_bytes_are_the_csv_modules_with_repr_floats(self, quoted_files, tmp_path):
        data, model = quoted_files
        out = tmp_path / "preds.csv"
        assert cli.main([
            "predict", "--model", str(model), "--data", str(data), "--target", "y", "--out", str(out),
        ]) == 0
        preds = predict_batch(load_model(model), load_csv(data, "y").features)
        assert out.read_bytes() == csv_bytes(
            ["sample_index", "prediction"], ([i, repr(p)] for i, p in enumerate(preds.tolist()))
        )

    def test_stdout_mode(self, data_csv, model_json, capsys):
        assert cli.main([
            "predict", "--model", str(model_json), "--data", str(data_csv), "--target", "y",
        ]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "sample_index,prediction"


class TestExplain:
    def test_rows_decompose_predictions(self, data_csv, model_json, tmp_path, capsys):
        out = tmp_path / "expl.csv"
        code = cli.main([
            "explain", "--model", str(model_json), "--data", str(data_csv),
            "--target", "y", "--out", str(out), "--check",
        ])
        assert code == 0
        assert "additivity holds" in capsys.readouterr().err
        rows = read_csv(out)
        assert rows[0] == ["sample_index", "bias", "x0", "x1", "x2", "prediction"]
        for row in rows[1:]:
            bias, *contribs, prediction = map(float, row[1:])
            assert bias + sum(contribs) == pytest.approx(prediction, rel=1e-12, abs=1e-12)

    def test_decision_records_dump(self, data_csv, model_json, tmp_path):
        records_path = tmp_path / "records.csv"
        assert cli.main([
            "explain", "--model", str(model_json), "--data", str(data_csv),
            "--target", "y", "--out", str(tmp_path / "e.csv"),
            "--decision-records", str(records_path),
        ]) == 0
        rows = read_csv(records_path)
        assert rows[0] == [
            "sample_index", "tree_index", "step", "feature",
            "threshold", "direction", "residue", "scaled_residue",
        ]
        model = load_model(model_json)
        expected = [
            [str(i), str(r.tree_index), str(r.step), model.feature_names[r.feature],
             repr(r.threshold), r.direction, repr(r.residue), repr(r.scaled_residue)]
            for i, x in enumerate(load_csv(data_csv, "y").features)
            for r in decision_contributions(model, x)
        ]
        assert rows[1:] == expected

    def test_decision_space_dump(self, data_csv, model_json, tmp_path):
        space_path = tmp_path / "space.csv"
        assert cli.main([
            "explain", "--model", str(model_json), "--data", str(data_csv),
            "--target", "y", "--out", str(tmp_path / "e.csv"),
            "--decision-space", str(space_path),
        ]) == 0
        rows = read_csv(space_path)
        assert rows[0] == ["sample_index", "feature", "lower", "upper"]
        for _, _, lower, upper in rows[1:]:
            assert float(lower) < float(upper)

    def test_names_with_line_breaks_stay_in_their_cell(self, quoted_files, tmp_path):
        data, model_path = quoted_files
        records, space = tmp_path / "records.csv", tmp_path / "space.csv"
        assert cli.main([
            "explain", "--model", str(model_path), "--data", str(data), "--target", "y",
            "--out", str(tmp_path / "e.csv"),
            "--decision-records", str(records), "--decision-space", str(space),
        ]) == 0
        model = load_model(model_path)
        X = load_csv(data, "y").features
        assert [row[3] for row in read_csv(records)[1:]] == [
            QUOTED_NAMES[r.feature] for x in X for r in decision_contributions(model, x)
        ]
        assert [row[1] for row in read_csv(space)[1:]] == QUOTED_NAMES * len(X)

    def test_output_bytes_are_pinned(self, tmp_path):
        # Feature names that need CSV quoting; pins recorded before the
        # explain writers were reworked.
        ds = build_synthetic(n=60, d=3, seed=4)
        data = tmp_path / "data.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["a,b", 'q"t', "z", "y"])
            for x, y in zip(ds.features, ds.target):
                writer.writerow([repr(float(v)) for v in x] + [repr(float(y))])
        model = tmp_path / "model.json"
        assert cli.main([
            "train", "--data", str(data), "--target", "y", "--no-split",
            "--n-estimators", "6", "--max-depth", "3", "--model-out", str(model),
        ]) == 0
        outputs = {flag: tmp_path / f"{flag[2:]}.csv"
                   for flag in ("--out", "--decision-records", "--decision-space")}
        assert cli.main([
            "explain", "--model", str(model), "--data", str(data), "--target", "y",
            *(arg for flag, path in outputs.items() for arg in (flag, str(path))),
        ]) == 0
        assert {flag: hashlib.sha256(path.read_bytes()).hexdigest()
                for flag, path in outputs.items()} == {
            "--out": "7fa18d9f8d5e586060f16e1a58ec1020d4855e31f48608167e2651e203aa168d",
            "--decision-records": "cbb7d8a88bc274a1362d9797444501e8c7d4b52848b9327262d7d866afc96fad",
            "--decision-space": "360eb8cd97904b63b86d5514a3ea7cd705790f3f84d9a2a5e6dcb51d7ee1cd1b",
        }

    def test_single_leaf_model_writes_float_zeros(self, tmp_path):
        # Every tree is a single leaf, so no row takes an edge: the
        # contributions are 0.0, a float, as for any untouched feature.
        const = tmp_path / "const.csv"
        const.write_text("a,y\n1.0,5.0\n2.0,5.0\n")
        model, out, records = tmp_path / "m.json", tmp_path / "e.csv", tmp_path / "r.csv"
        assert cli.main([
            "train", "--data", str(const), "--target", "y", "--no-split",
            "--n-estimators", "2", "--model-out", str(model),
        ]) == 0
        assert cli.main([
            "explain", "--model", str(model), "--data", str(const), "--target", "y",
            "--out", str(out), "--decision-records", str(records),
        ]) == 0
        assert out.read_text() == "sample_index,bias,a,prediction\n0,5.0,0.0,5.0\n1,5.0,0.0,5.0\n"
        assert records.read_text() == ",".join(cli.RECORD_HEADER) + "\n"
        explanation = batch_explain(load_model(model), np.array([[1.0]]))[0]
        assert type(explanation.contributions["a"]) is float

    def test_identity_total_adds_features_in_order(self):
        # With nine features numpy's pairwise C.sum(axis=1) adds in another
        # order than bias + (((0.0 + c0) + c1) + ...), and gets another total.
        contributions = np.array([[1.0] + [1e-16] * 8])
        sequential = 0.0
        for c in contributions[0].tolist():
            sequential += c
        assert contributions.sum(axis=1)[0] != sequential
        detail = cli._additivity_violation(0.5, contributions, np.array([3.0]))
        assert detail == f"sample 0: prediction 3.0 vs decomposition {0.5 + sequential!r}"

    def test_cancelling_terms_hold_the_identity(self, tmp_path, capsys):
        # bias 1e27 plus the contribution 1.0 - 1e27 adds up to 0.0, where the
        # prediction is 1.0: a miss of 1 on terms of 1e27 is rounding.
        model, data = tmp_path / "model.json", tmp_path / "data.csv"
        model.write_text(json.dumps({
            "format_version": 1, "f0": 0.0, "learning_rate": 1.0, "feature_names": ["a"],
            "trees": [{"root": 0, "nodes": [json_split(0, 1e27, 2, 0, 0.5, 1, 2), json_leaf(1, 1.0, 1), json_leaf(2, -1.0, 1)]}],
        }))
        data.write_text("a,y\n0.0,1.0\n")
        code = cli.main(["explain", "--model", str(model), "--data", str(data), "--target", "y", "--check"])
        assert (code, *capsys.readouterr()) == (0, "sample_index,bias,a,prediction\n0,1e+27,-1e+27,1.0\n", "additivity holds for all 1 samples\n")

    def test_missing_feature_column_is_a_data_error(self, model_json, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,y\n1.0,2.0\n")
        code = cli.main([
            "explain", "--model", str(model_json), "--data", str(bad), "--target", "y",
        ])
        assert code == 3
        assert "lacks model feature" in capsys.readouterr().err


class TestImportance:
    def test_matches_library(self, model_json, tmp_path):
        out = tmp_path / "imp.csv"
        assert cli.main(["importance", "--model", str(model_json), "--out", str(out)]) == 0
        rows = read_csv(out)
        model = load_model(model_json)
        expected = feature_importance(model)
        assert [r[0] for r in rows[1:]] == list(model.feature_names)
        assert [float(r[1]) for r in rows[1:]] == expected.tolist()

    def test_bytes_are_the_csv_modules_with_repr_floats(self, quoted_files, tmp_path):
        _data, model = quoted_files
        out = tmp_path / "imp.csv"
        assert cli.main(["importance", "--model", str(model), "--out", str(out)]) == 0
        importance = feature_importance(load_model(model)).tolist()
        assert out.read_bytes() == csv_bytes(
            ["feature", "importance"], ([n, repr(v)] for n, v in zip(QUOTED_NAMES, importance))
        )

    def test_cyclic_model_file_is_rejected(self, model_json, data_csv, tmp_path, capsys):
        payload = json.loads(model_json.read_text())
        payload["trees"][0]["nodes"][0]["left"] = payload["trees"][0]["root"]
        bad = tmp_path / "cyclic.json"
        bad.write_text(json.dumps(payload))
        code = cli.main(["predict", "--model", str(bad), "--data", str(data_csv), "--target", "y"])
        assert code == 3
        assert "reached twice" in capsys.readouterr().err

    def test_list_valued_node_id_is_rejected(self, model_json, data_csv, tmp_path, capsys):
        payload = json.loads(model_json.read_text())
        payload["trees"][0]["nodes"][0]["id"] = [0]
        bad = tmp_path / "list_id.json"
        bad.write_text(json.dumps(payload))
        code = cli.main(["predict", "--model", str(bad), "--data", str(data_csv), "--target", "y"])
        assert code == 3
        assert "node id must be an integer" in capsys.readouterr().err

    def test_list_valued_node_value_is_rejected(self, model_json, tmp_path, capsys):
        payload = json.loads(model_json.read_text())
        payload["trees"][0]["nodes"][1]["value"] = [1]
        bad = tmp_path / "list_value.json"
        bad.write_text(json.dumps(payload))
        assert cli.main(["importance", "--model", str(bad)]) == 3
        assert "node value must be a number" in capsys.readouterr().err

    def test_node_counts_that_do_not_add_up_are_rejected(
        self, model_json, data_csv, tmp_path, capsys
    ):
        payload = json.loads(model_json.read_text())
        payload["trees"][0]["nodes"][0]["n_samples"] += 1
        bad = tmp_path / "counts.json"
        bad.write_text(json.dumps(payload))
        code = cli.main(["verify", "--model", str(bad), "--data", str(data_csv), "--target", "y"])
        assert code == 3
        assert "is not the sum of its children's" in capsys.readouterr().err

    @pytest.mark.parametrize("version", ["true", "1.0", '"1"', "2"])
    def test_format_version_other_than_integer_1_is_refused(
        self, model_json, data_csv, tmp_path, capsys, version
    ):
        payload = model_json.read_text().replace('"format_version": 1,', f'"format_version": {version},')
        assert payload != model_json.read_text()
        bad = tmp_path / "version.json"
        bad.write_text(payload)
        code = cli.main(["predict", "--model", str(bad), "--data", str(data_csv), "--target", "y"])
        assert code == 3
        assert "unknown format version" in capsys.readouterr().err

    def test_corrupt_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert cli.main(["importance", "--model", str(bad)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("undecodable", ["deep-nesting", "long-integer"])
    def test_a_file_json_cannot_decode_is_malformed(self, model_json, data_csv, tmp_path, capsys, undecodable):
        if undecodable == "deep-nesting":  # json's decoder recurses once per array
            text = "[" * 100_000
        else:  # Python refuses to parse an integer of more than 4300 digits
            payload = json.loads(model_json.read_text())
            payload["trees"][0]["nodes"][0]["n_samples"] = "digits"
            text = json.dumps(payload).replace('"digits"', "9" * 5000)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(ModelFormatError, match="malformed model file"):
            load_model(bad)
        for command in (["importance"], ["verify", "--data", str(data_csv), "--target", "y"]):
            assert cli.main([*command, "--model", str(bad)]) == 3
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: {bad}: malformed model file (") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")  # no numpy warning leaks
    def test_gains_that_overflow_are_refused(self, tmp_path, capsys):
        # Values and residues of ±1e308 load; their squares do not add up.
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "format_version": 1, "f0": 0.0, "learning_rate": 1.0, "feature_names": ["a"],
            "trees": NAN_RESIDUAL_MODELS["node_means"],
        }))
        with pytest.raises(ValueError, match="split gains overflow"):
            feature_importance(load_model(model))
        assert cli.main(["importance", "--model", str(model)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: split gains overflow (their total is inf); importance undefined\n"


# Two trees whose node counts add up and whose residues are finite. Tree 1
# lists its root third; row 2 walks its chain of values alternating about
# ±0.85e308, whose residues credit b with more than the largest float, so
# b's contribution overflows to -inf: the identity and the node means fail
# there, while the oracle recount, which adds the same residues in the same
# order, and the leaf regions still agree. Row 3's residues of ±0.425e308
# cancel, which is rounding within the size of the terms and passes.
OVERFLOWING_MODEL = {
    "format_version": 1, "f0": 0.5, "learning_rate": 0.5, "feature_names": ["a", "b"],
    "trees": [
        {"root": 0, "nodes": [json_split(0, 0.5, 4, 1, 0.5, 1, 2), json_leaf(1, 0.0, 2), json_leaf(2, 1.0, 2)]},
        {"root": 0, "nodes": [
            json_leaf(1, 0.0, 2), json_leaf(4, 3.0, 1), json_split(0, 0.0, 8, 0, 0.5, 1, 2),
            json_split(2, 0.85e308, 6, 1, 0.5, 3, 4), json_split(3, -0.85e308, 5, 0, 1.5, 5, 6), json_leaf(6, 0.0, 1),
            json_split(5, 0.5e308, 4, 1, 0.5, 7, 8), json_leaf(8, 0.0, 1), json_split(7, -0.85e308, 3, 0, 1.5, 9, 10),
            json_leaf(10, 0.0, 1), json_split(9, 0.5e308, 2, 1, 0.5, 11, 12), json_leaf(12, 0.0, 1),
            json_leaf(11, -0.85e308, 1),
        ]},
    ],
}


# Models whose numbers are all finite but whose checks meet a NaN residual,
# which a test of `residual > tolerance` lets pass. Each reads the row a=0, b=0.
NAN_RESIDUAL_MODELS = {
    # The row walks 0 -> 0.85e308 -> -0.85e308 -> 0.85e308 -> -0.85e308,
    # splitting on a, b, a, b: a is credited 0.85e308 + 1.7e308, which is
    # inf, and b -1.7e308 - 1.7e308, which is -inf, so the decomposition is
    # NaN, though every residue and the prediction are finite.
    "additive_identity": [
        {"root": 0, "nodes": [
            json_split(0, 0.0, 5, 0, 0.5, 1, 2), json_leaf(2, 0.0, 1), json_split(1, 0.85e308, 4, 1, 0.5, 3, 4),
            json_leaf(4, 0.0, 1), json_split(3, -0.85e308, 3, 0, 0.5, 5, 6), json_leaf(6, 0.0, 1),
            json_split(5, 0.85e308, 2, 1, 0.5, 7, 8), json_leaf(8, 0.0, 1), json_leaf(7, -0.85e308, 1),
        ]},
    ],
    # The path 1.5e308 -> -1.5e308 -> 1.5e308 steps by -inf, then +inf.
    "telescoping": [
        {"root": 0, "nodes": [json_split(0, 1.5e308, 4, 0, 0.5, 1, 2), json_split(1, -1.5e308, 2, 0, 0.25, 3, 4),
                              json_leaf(2, 0.0, 2), json_leaf(3, 1.5e308, 1), json_leaf(4, 0.0, 1)]},
    ],
    # 2 * 1e308 + 2 * -1e308 is inf + -inf.
    "node_means": [
        {"root": 0, "nodes": [json_split(0, 7.0, 4, 0, 0.5, 1, 2), json_leaf(1, 1e308, 2), json_leaf(2, -1e308, 2)]},
    ],
}


# Model files whose values are finite but whose sums overflow, and the one
# line loading refuses each with. Both trees of the first send the row a=0
# to 1.5e308, so its prediction is inf; the second steps from 1.5e308 to
# -1.5e308, a residue of -inf.
OVERFLOWING_FILES = {
    "prediction": (
        [{"root": 0, "nodes": [json_split(0, 0.0, 2, 0, 0.5, 1, 2), json_leaf(1, 1.5e308, 1), json_leaf(2, -1.5e308, 1)]}] * 2,
        "error: predictions overflow: |f0| + learning_rate * (sum of each tree's largest |value|) is not finite\n",
    ),
    "residue": (
        NAN_RESIDUAL_MODELS["telescoping"],
        "error: node id 1: scaled residue learning_rate * (value - parent's value) overflows\n",
    ),
}


class TestOverflowingModels:
    @pytest.mark.parametrize("command", ["predict", "explain", "verify", "importance"])
    @pytest.mark.parametrize("case", OVERFLOWING_FILES)
    @pytest.mark.filterwarnings("error")  # the error line is the only report: no numpy warning leaks
    def test_loading_refuses_a_model_whose_sums_overflow(self, case, command, tmp_path, capsys):
        trees, message = OVERFLOWING_FILES[case]
        model, data = tmp_path / "model.json", tmp_path / "data.csv"
        model.write_text(json.dumps({
            "format_version": 1, "f0": 0.0, "learning_rate": 1.0, "feature_names": ["a"], "trees": trees,
        }))
        data.write_text("a,y\n0.0,0.0\n")
        argv = [command, "--model", str(model)]
        if command != "importance":
            argv += ["--data", str(data), "--target", "y"]
        assert cli.main(argv) == 3
        assert capsys.readouterr() == ("", message)


class TestVerify:
    # Exit code, stdout and stderr recorded before verify's checks were
    # rebuilt on the traversal kernel.
    def test_output_is_pinned_on_a_fitted_model(self, data_csv, model_json, capsys):
        code = cli.main([
            "verify", "--model", str(model_json), "--data", str(data_csv),
            "--target", "y",
        ])
        assert (code, *capsys.readouterr()) == (
            0,
            "additive_identity: ok\ntelescoping: ok\nnode_means: ok\n"
            "oracle_equivalence: ok\nleaf_partition: ok\nall checks passed\n",
            "",
        )

    @pytest.mark.parametrize("block_node_ids", [kernel.BLOCK_NODE_IDS, 1])
    def test_output_is_pinned_on_failing_checks(
        self, tmp_path, capsys, monkeypatch, block_node_ids
    ):
        # One row per kernel block when block_node_ids is 1, so the first
        # failing row, row 2, is found in the third block.
        monkeypatch.setattr(kernel, "BLOCK_NODE_IDS", block_node_ids)
        model, data = tmp_path / "model.json", tmp_path / "data.csv"
        model.write_text(json.dumps(OVERFLOWING_MODEL))
        data.write_text("a,b,y\n0.0,0.0,0.0\n0.25,1.0,1.0\n1.0,0.0,2.0\n2.0,1.0,3.0\n")
        code = cli.main([
            "verify", "--model", str(model), "--data", str(data), "--target", "y",
        ])
        assert (code, *capsys.readouterr()) == (
            4,
            "additive_identity: FAIL — sample 2: prediction -4.25e+307 vs decomposition -inf\n"
            "telescoping: ok\n"
            "node_means: FAIL — tree 1 node 2: value 0.0 is not the weighted mean "
            "of its children (inf)\n"
            "oracle_equivalence: ok\n"
            "leaf_partition: ok\n",
            "verification failed: additive_identity\n",
        )

    @pytest.mark.parametrize("check", NAN_RESIDUAL_MODELS)
    @pytest.mark.filterwarnings("error")  # the FAIL line is the only report: no numpy warning leaks
    def test_a_nan_residual_fails_the_check(self, check, tmp_path, capsys, monkeypatch):
        model, data = tmp_path / "model.json", tmp_path / "data.csv"
        model.write_text(json.dumps({
            "format_version": 1, "f0": 0.0, "learning_rate": 1.0, "feature_names": ["a", "b"],
            "trees": NAN_RESIDUAL_MODELS[check],
        }))
        data.write_text("a,b,y\n0.0,0.0,0.0\n")
        code = cli.main(["verify", "--model", str(model), "--data", str(data), "--target", "y"])
        out, err = capsys.readouterr()
        if check == "telescoping":
            # A sum along a path meets NaN only after an inf residue, and
            # loading refuses such a model, so the check is run on the model
            # built in memory, one row per kernel block, failing in the second.
            assert (code, out) == (3, "") and err.startswith("error: node id 1: scaled residue")
            tree = tree_of([(1.5e308, 4, 0, 0.5, 1, 2), (-1.5e308, 2, 0, 0.25, 3, 4), (0.0, 2), (1.5e308, 1), (0.0, 1)])
            monkeypatch.setattr(kernel, "BLOCK_NODE_IDS", 1)
            in_memory = Ensemble(0.0, 1.0, FlatForest.of([tree], 1.0), ("a",))
            assert cli._telescoping_violation(in_memory, np.array([[1.0], [0.0]])) == "sample 1, tree 0"
            return
        assert code == 4
        assert f"{check}: FAIL" in out and "all checks passed" not in out
        if check == "additive_identity":
            code = cli.main(["explain", "--model", str(model), "--data", str(data), "--target", "y", "--check"])
            assert code == 4
            assert capsys.readouterr().err == "additivity violated at sample 0: prediction -8.5e+307 vs decomposition nan\n"

    @pytest.mark.parametrize("scale", [1e7, 1e8, 1e9, 1e10])
    def test_fitted_models_of_large_targets_verify(self, scale, tmp_path, capsys):
        # A residual tree's root holds a mean near 0.0 while its children
        # hold about ±scale, so the node mean's rounding is the children's.
        data, model = tmp_path / "data.csv", tmp_path / "model.json"
        for seed in range(10):
            ds = build_synthetic(seed=seed)
            with open(data, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow([*ds.feature_names, "y"])
                writer.writerows([*map(repr, x), repr(y)] for x, y in zip(ds.features.tolist(), (ds.target * scale).tolist()))
            assert cli.main(["train", "--data", str(data), "--target", "y", "--model-out", str(model)]) == 0
            code = cli.main(["verify", "--model", str(model), "--data", str(data), "--target", "y"])
            assert (seed, code) == (seed, 0), capsys.readouterr().out

    def test_each_check_fails_a_mutant_of_ordinary_magnitude(self):
        # Terms of about 1 and a miss of 1e-6: far beyond rounding, and within
        # each check's old bound as well as its new one.
        tree = tree_of([(1.0 + 1e-6, 2, 0, 0.5, 1, 2), (0.0, 1), (2.0, 1)])
        model = Ensemble(0.0, 1.0, FlatForest.of([tree], 1.0), ("a",))
        assert cli._node_mean_violation(model) == (
            "tree 0 node 0: value 1.000001 is not the weighted mean of its children (1.0)"
        )
        assert cli._additivity_violation(0.5, np.array([[0.25, 0.25]]), np.array([1.000001])) == (
            "sample 0: prediction 1.000001 vs decomposition 1.0"
        )
        # A path telescopes to its leaf but for rounding, so the mutant is a
        # model that keeps its values in single precision: 0.3 -> 1.7 -> 0.2
        # walks to 0.20000005.
        tree = tree_of([(0.3, 3, 0, 0.5, 1, 4), (1.7, 2, 0, 0.25, 2, 3), (0.2, 1), (0.0, 1), (0.0, 1)])
        model = Ensemble(0.0, 1.0, FlatForest.of([tree], 1.0), ("a",))
        model.flat.value = model.flat.value.astype(np.float32)
        assert cli._telescoping_violation(model, np.array([[0.0]])) == "sample 0, tree 0"

    def test_a_chain_deeper_than_the_recursion_limit_verifies(self, tmp_path, capsys):
        # Internal node k (k < 3000) tests a <= -k; its left child is node
        # k + 1 and its right child leaf 3001 + k. Node 3000 is the deepest
        # leaf. Each internal value is its children's weighted mean, as the
        # check computes it, so every check holds.
        depth = 3000
        value = {3000: 2.0, **{depth + 1 + k: float(k % 5) for k in range(depth)}}
        nodes = [json_leaf(node, v, 1) for node, v in value.items()]
        for k in reversed(range(depth)):
            n_left = depth - k
            value[k] = (n_left * value[k + 1] + 1 * value[depth + 1 + k]) / (n_left + 1)
            nodes.append(json_split(k, value[k], n_left + 1, 0, float(-k), k + 1, depth + 1 + k))
        model, data = tmp_path / "model.json", tmp_path / "data.csv"
        model.write_text(json.dumps({
            "format_version": 1, "f0": 0.5, "learning_rate": 0.1, "feature_names": ["a"],
            "trees": [{"root": 0, "nodes": nodes}],
        }))
        data.write_text("a,y\n" + "".join(f"{-157 * i - 0.5},0\n" for i in range(19)) + "-5000,0\n")
        code = cli.main(["verify", "--model", str(model), "--data", str(data), "--target", "y"])
        assert (code, capsys.readouterr().out.splitlines()[-1]) == (0, "all checks passed")

    def test_fresh_model_passes_all_checks(self, data_csv, model_json, capsys):
        code = cli.main([
            "verify", "--model", str(model_json), "--data", str(data_csv),
            "--target", "y",
        ])
        out = capsys.readouterr().out
        assert code == 0
        for check in (
            "additive_identity", "telescoping", "node_means",
            "oracle_equivalence", "leaf_partition",
        ):
            assert f"{check}: ok" in out
        assert "all checks passed" in out

    @pytest.fixture(scope="class")
    def wide_model(self, tmp_path_factory):
        """A 400x8 CSV and a 50-tree depth-3 model trained on it."""
        ds = build_synthetic(n=400, d=8, seed=3)
        folder = tmp_path_factory.mktemp("wide")
        data, model = folder / "data.csv", folder / "model.json"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([*ds.feature_names, "y"])
            writer.writerows([*map(repr, x), repr(y)] for x, y in zip(ds.features.tolist(), ds.target.tolist()))
        assert cli.main([
            "train", "--data", str(data), "--target", "y", "--n-estimators", "50", "--max-depth", "3",
            "--model-out", str(model),
        ]) == 0
        return ["--model", str(model), "--data", str(data), "--target", "y"]

    def test_leaf_partition_fails_a_kernel_that_routes_ties_right(self, wide_model, monkeypatch, capsys):
        # x < threshold holds exactly when nextafter(x, inf) <= threshold, so
        # this walk sends a row equal to a threshold right. No row of the data
        # sits on a threshold, so only the leaf regions' witnesses see it.
        levels = kernel.FlatForest._levels
        monkeypatch.setattr(kernel.FlatForest, "_levels", lambda self, x, steps=None: levels(self, np.nextafter(x, np.inf), steps))
        assert cli.main(["verify", *wide_model]) == 4
        assert capsys.readouterr() == (
            "additive_identity: ok\ntelescoping: ok\nnode_means: ok\noracle_equivalence: ok\n"
            "leaf_partition: FAIL — tree 0: leaf regions differ from the kernel's or overlap\n",
            "verification failed: leaf_partition\n",
        )

    def test_leaf_partition_fails_an_oracle_that_drops_a_right_side_bound(self, wide_model, monkeypatch, capsys):
        # In tree 3 only, the first region with a lower bound loses it.
        calls, enumerate_leaf_regions = [], cli.enumerate_leaf_regions

        def mutant(tree):
            lower, upper, value = enumerate_leaf_regions(tree)
            if len(calls) == 3:
                region, feature = np.argwhere(lower > -np.inf)[0]
                lower[region, feature] = -np.inf
            calls.append(tree)
            return lower, upper, value

        monkeypatch.setattr(cli, "enumerate_leaf_regions", mutant)
        assert cli.main(["verify", *wide_model]) == 4
        out = capsys.readouterr().out
        assert "leaf_partition: FAIL — tree 3: leaf regions differ from the kernel's or overlap\n" in out
        assert out.count("FAIL") == 1

    def test_a_threshold_at_the_float_maximum_verifies(self, tmp_path, capsys):
        # The right leaf's region is a > 1.7976931348623157e308, whose witness,
        # the next double above its lower bound, is inf.
        model, data = tmp_path / "model.json", tmp_path / "data.csv"
        model.write_text(json.dumps({
            "format_version": 1, "f0": 0.0, "learning_rate": 1.0, "feature_names": ["a"],
            "trees": [{"root": 0, "nodes": [
                json_split(0, 1.0, 2, 0, 1.7976931348623157e308, 1, 2), json_leaf(1, 0.5, 1), json_leaf(2, 1.5, 1),
            ]}],
        }))
        data.write_text("a,y\n0.0,0.0\n1e308,1.0\n")
        assert cli.main(["verify", "--model", str(model), "--data", str(data), "--target", "y"]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == ["leaf_partition: ok", "all checks passed"]

    def test_corrupted_node_value_fails(self, data_csv, model_json, tmp_path, capsys):
        payload = json.loads(model_json.read_text())
        payload["trees"][0]["nodes"][0]["value"] += 5.0
        bad = tmp_path / "corrupt.json"
        bad.write_text(json.dumps(payload))
        code = cli.main([
            "verify", "--model", str(bad), "--data", str(data_csv),
            "--target", "y",
        ])
        captured = capsys.readouterr()
        assert code == 4
        assert "node_means: FAIL" in captured.out
        assert "verification failed: node_means" in captured.err

    def test_single_leaf_model_passes_vacuously(self, tmp_path, capsys):
        const = tmp_path / "const.csv"
        const.write_text("a,y\n1.0,5.0\n2.0,5.0\n3.0,5.0\n")
        model_path = tmp_path / "m.json"
        assert cli.main([
            "train", "--data", str(const), "--target", "y", "--no-split",
            "--n-estimators", "2", "--model-out", str(model_path),
        ]) == 0
        code = cli.main([
            "verify", "--model", str(model_path), "--data", str(const),
            "--target", "y",
        ])
        assert code == 0
        capsys.readouterr()


def _json_paths(obj, prefix=()):
    """The key path of every value nested in obj, containers included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield (*prefix, key)
        yield from _json_paths(value, (*prefix, key))


DELETE = object()
MUTATIONS = [
    DELETE, None, True, False, "1", [1], {}, float("nan"), float("inf"),
    1e300, 10**400, -1, -0.5, 0, 99,
]


class TestModelFuzz:
    @pytest.fixture(scope="class")
    def fuzz_files(self, tmp_path_factory, data_csv):
        tmp = tmp_path_factory.mktemp("fuzz")
        model = tmp / "model.json"
        assert cli.main([
            "train", "--data", str(data_csv), "--target", "y", "--no-split",
            "--n-estimators", "2", "--max-depth", "2", "--model-out", str(model),
        ]) == 0
        return json.loads(model.read_text()), data_csv, tmp / "mutant.json"

    @given(draw=st.data())
    @settings(max_examples=150, deadline=2000)
    def test_one_mutated_field_is_refused_or_verified(self, fuzz_files, draw):
        # One field deleted or replaced: loading refuses the file with
        # ModelFormatError, or the model predicts and explains finite
        # values and verify runs to a verdict. Anything else, such as a
        # stray TypeError, exit code 3 or a run past the deadline, is a
        # defect.
        self.refused_or_verified(fuzz_files, draw, fields=1)

    @given(draw=st.data())
    @settings(max_examples=150, deadline=2000)
    def test_two_or_three_mutated_fields_are_refused_or_verified(self, fuzz_files, draw):
        self.refused_or_verified(fuzz_files, draw, fields=draw.draw(st.sampled_from([2, 3])))

    @staticmethod
    def refused_or_verified(fuzz_files, draw, fields: int):
        payload, data, mutant = fuzz_files
        payload = json.loads(json.dumps(payload))
        paths = draw.draw(
            st.lists(st.sampled_from(list(_json_paths(payload))), min_size=fields,
                     max_size=fields, unique=True)
        )
        # Deepest and last first, so no mutation moves or removes the field
        # a later one changes.
        for *parents, key in sorted(paths, reverse=True):
            mutation = draw.draw(st.sampled_from(MUTATIONS))
            owner = payload
            for parent in parents:
                owner = owner[parent]
            if mutation is DELETE:
                del owner[key]
            else:
                # A feature renamed to another string is a data mismatch, exit 3.
                assume(not (isinstance(mutation, str) and isinstance(owner[key], str)))
                owner[key] = mutation
        TestModelFuzz.refused_or_sound(payload, data, mutant)

    def test_a_model_whose_predictions_overflow_is_refused(self, fuzz_files):
        payload, data, mutant = fuzz_files
        trees, _message = OVERFLOWING_FILES["prediction"]
        TestModelFuzz.refused_or_sound({**payload, "learning_rate": 1.0, "trees": trees}, data, mutant)

    @staticmethod
    def refused_or_sound(payload, data, mutant):
        """The model file `payload` is refused with ModelFormatError, or it
        predicts and explains the data finitely and verify runs to a verdict."""
        mutant.write_text(json.dumps(payload))
        try:
            model = load_model(mutant)
        except ModelFormatError:
            return
        bias, _contributions, predictions = _explain_arrays(model, cli._select_features(load_csv(data, "y"), model))
        assert np.isfinite(bias) and np.isfinite(predictions).all()
        code = cli.main([
            "verify", "--model", str(mutant), "--data", str(data), "--target", "y",
        ])
        assert code in (0, 4)


class TestExperimentCommands:
    def test_correlation(self, data_csv, tmp_path, capsys):
        out_dir = tmp_path / "corr"
        code = cli.main([
            "experiment", "correlation", "--data", str(data_csv), "--target", "y",
            "--n-estimators", "3", "--seeds", "0", "1", "--out-dir", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "correlation.csv").exists()
        assert (out_dir / "correlation_metadata.json").exists()
        capsys.readouterr()

    def test_noise(self, data_csv, tmp_path, capsys):
        out_dir = tmp_path / "noise"
        code = cli.main([
            "experiment", "noise", "--data", str(data_csv), "--target", "y",
            "--n-estimators", "3", "--levels", "0", "100", "--out-dir", str(out_dir),
        ])
        assert code == 0
        rows = read_csv(out_dir / "noise.csv")
        assert rows[0] == ["seed", "level", "feature", "mean_contribution", "mean_abs_contribution"]
        capsys.readouterr()

    def test_outlier(self, data_csv, tmp_path, capsys):
        out_dir = tmp_path / "outlier"
        code = cli.main([
            "experiment", "outlier", "--data", str(data_csv), "--target", "y",
            "--n-estimators", "3", "--max-depth", "6", "--seeds", "0", "1",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        rows = read_csv(out_dir / "outlier.csv")
        assert len(rows) == 3  # header + one row per seed
        capsys.readouterr()

    @pytest.mark.parametrize("study", ["correlation", "noise", "outlier"])
    def test_a_study_run_twice_on_its_defaults_writes_the_same_report(self, study, data_csv, tmp_path, capsys):
        # main parses every call with one parser, so its defaults are shared.
        reports = []
        for run in ("first", "second"):
            out_dir = tmp_path / run
            argv = ["experiment", study, "--data", str(data_csv), "--target", "y", "--out-dir", str(out_dir)]
            assert cli.main(argv) == 0
            reports.append({path.name: path.read_bytes() for path in out_dir.iterdir()})
        assert len(reports[0]) == 2 and reports[0] == reports[1]
        capsys.readouterr()

    def test_missing_experiment_name_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["experiment"])
        assert excinfo.value.code == 2
        capsys.readouterr()


def test_entrypoint_raises_system_exit(data_csv, capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["boostcontrib", "predict", "--model", "missing.json",
                                     "--data", str(data_csv), "--target", "y"])
    with pytest.raises(SystemExit) as excinfo:
        cli.entrypoint()
    assert excinfo.value.code == 3
    capsys.readouterr()
