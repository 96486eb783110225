import csv
import json

import numpy as np
import pytest

from boostcontrib import cli, feature_importance, load_model, predict_batch
from conftest import build_synthetic


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

    def test_missing_data_file(self, tmp_path, capsys):
        code = cli.main([
            "train", "--data", str(tmp_path / "nope.csv"), "--target", "y",
            "--model-out", str(tmp_path / "m.json"),
        ])
        assert code == 3
        capsys.readouterr()


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
        from boostcontrib import load_csv

        ds = load_csv(data_csv, "y")
        expected = predict_batch(model, ds.features)
        got = np.array([float(r[1]) for r in rows[1:]])
        assert np.array_equal(got, expected)

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
        assert all(r[5] in ("left", "right") for r in rows[1:])
        assert {r[3] for r in rows[1:]} <= {"x0", "x1", "x2"}

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

    def test_corrupt_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert cli.main(["importance", "--model", str(bad)]) == 3
        capsys.readouterr()


class TestVerify:
    def test_fresh_model_passes_all_checks(self, data_csv, model_json, capsys):
        code = cli.main([
            "verify", "--model", str(model_json), "--data", str(data_csv),
            "--target", "y", "--probes", "200",
        ])
        out = capsys.readouterr().out
        assert code == 0
        for check in (
            "additive_identity", "telescoping", "node_means",
            "oracle_equivalence", "leaf_partition",
        ):
            assert f"{check}: ok" in out
        assert "all checks passed" in out

    def test_corrupted_node_value_fails(self, data_csv, model_json, tmp_path, capsys):
        payload = json.loads(model_json.read_text())
        payload["trees"][0]["nodes"][0]["value"] += 5.0
        bad = tmp_path / "corrupt.json"
        bad.write_text(json.dumps(payload))
        code = cli.main([
            "verify", "--model", str(bad), "--data", str(data_csv),
            "--target", "y", "--probes", "50",
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
            "--target", "y", "--probes", "20",
        ])
        assert code == 0
        capsys.readouterr()


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
