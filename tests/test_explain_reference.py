"""explain --out, parsed back, against bench/reference.py.

The reference recomputes bias, contributions and prediction by recursive
descent over the saved model's JSON, without boostcontrib or numpy. Every
cell explain writes must parse back with float to the reference's value,
bit for bit.
"""

import csv
import importlib.util
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostcontrib import CartParams, Dataset, GbdtParams, cli, fit_gbdt, kernel, save_model
from conftest import json_leaf, json_split

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.py"


def load_reference():
    spec = importlib.util.spec_from_file_location("bench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Reference


Reference = load_reference()


def awkward_data(seed: int, rows: int) -> Dataset:
    """Columns with ties, a duplicate of another column, and values one ulp
    apart, with a target that depends on each."""
    rng = np.random.default_rng(seed)
    tied = rng.integers(0, 4, rows) * 0.25
    smooth = rng.normal(size=rows)
    anchor = rng.choice([-1.5, 0.0, 2.0], rows)
    up = rng.random(rows) < 0.5
    adjacent = np.where(up, np.nextafter(anchor, np.inf), anchor)
    target = tied + smooth + up + 0.1 * rng.normal(size=rows)
    return Dataset(
        features=np.column_stack([tied, smooth, smooth, adjacent]),
        target=target,
        feature_names=("tied", "smooth", "copy", "adjacent"),
    )


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def write_csv(path: Path, names, X, y) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*names, "y"])
        writer.writerows(map(repr, row) for row in np.column_stack([X, y]).tolist())


def explain_against_reference(folder: Path, X) -> None:
    """Run explain on folder's model.json and data.csv, whose rows are X,
    and check every cell it writes against the reference."""
    data, model, out = (folder / name for name in ("data.csv", "model.json", "out.csv"))
    assert cli.main([
        "explain", "--model", str(model), "--data", str(data), "--target", "y", "--out", str(out),
    ]) == 0
    reference = Reference.load(model)
    with open(out, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["sample_index", "bias", *reference.feature_names, "prediction"]
    assert [int(cells[0]) for cells in table[1:]] == list(range(len(X)))
    for cells, x in zip(table[1:], X):
        bias, contributions, prediction = reference.explain(x)
        assert bits(map(float, cells[1:])) == bits([bias, *contributions, prediction])


@pytest.mark.parametrize("block_node_ids", [kernel.BLOCK_NODE_IDS, 1])
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 40), depth=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_explain_out_parses_back_to_the_reference(block_node_ids, seed, rows, depth):
    ds = awkward_data(seed, rows)
    params = GbdtParams(n_estimators=5, learning_rate=0.3, cart=CartParams(max_depth=depth), seed=seed)
    with tempfile.TemporaryDirectory() as folder, \
            mock.patch.object(kernel, "BLOCK_NODE_IDS", block_node_ids):
        write_csv(Path(folder) / "data.csv", ds.feature_names, ds.features, ds.target)
        save_model(fit_gbdt(ds, params), Path(folder) / "model.json")
        explain_against_reference(Path(folder), ds.features.tolist())


# Model files that fitting does not write. In the first, thresholds, values
# and f0 are zeros of both signs, and rows sit on them: a sum that starts at
# +0.0 stays +0.0 when -0.0 is added, and the reference's does the same. In
# the second every tree is a single leaf, so no row takes a step.
HAND_WRITTEN = {
    "signed-zeros": (
        {"format_version": 1, "f0": -0.0, "learning_rate": 0.5, "feature_names": ["a", "b"], "trees": [
            {"root": 0, "nodes": [json_split(0, -0.0, 2, 0, -0.0, 1, 2), json_leaf(1, 0.0, 1), json_leaf(2, -0.0, 1)]},
            {"root": 0, "nodes": [
                json_split(0, 0.0, 3, 1, 0.0, 1, 2), json_split(1, -0.0, 2, 0, 0.0, 3, 4), json_leaf(2, -0.0, 1),
                json_leaf(3, -0.0, 1), json_leaf(4, 0.25, 1),
            ]},
        ]},
        [[-0.0, -0.0], [0.0, 0.0], [-0.0, 1.0], [1.0, -0.0], [0.0, -0.0]],
    ),
    "all-leaves": (
        {"format_version": 1, "f0": 0.1, "learning_rate": 0.3, "feature_names": ["a", "b"], "trees": [
            {"root": 0, "nodes": [json_leaf(0, 1.25, 3)]}, {"root": 5, "nodes": [json_leaf(5, -0.5, 3)]},
        ]},
        [[0.0, 1.0], [-2.0, 0.5], [3.0, -1.0]],
    ),
}


@pytest.mark.parametrize("block_node_ids", [kernel.BLOCK_NODE_IDS, 1])
@pytest.mark.parametrize("name", HAND_WRITTEN)
def test_hand_written_models_parse_back_to_the_reference(name, block_node_ids, tmp_path, monkeypatch):
    payload, X = HAND_WRITTEN[name]
    monkeypatch.setattr(kernel, "BLOCK_NODE_IDS", block_node_ids)
    (tmp_path / "model.json").write_text(json.dumps(payload))
    write_csv(tmp_path / "data.csv", payload["feature_names"], X, np.zeros(len(X)))
    explain_against_reference(tmp_path, X)
