"""explain --out, parsed back, against bench/reference.py.

The reference recomputes bias, contributions and prediction by recursive
descent over the saved model's JSON, without boostcontrib or numpy. Every
cell explain writes must parse back with float to the reference's value,
bit for bit.
"""

import csv
import importlib.util
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostcontrib import CartParams, Dataset, GbdtParams, cli, fit_gbdt, kernel, save_model

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


@pytest.mark.parametrize("block_node_ids", [kernel.BLOCK_NODE_IDS, 1])
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 40), depth=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_explain_out_parses_back_to_the_reference(block_node_ids, seed, rows, depth):
    ds = awkward_data(seed, rows)
    params = GbdtParams(n_estimators=5, learning_rate=0.3, cart=CartParams(max_depth=depth), seed=seed)
    with tempfile.TemporaryDirectory() as folder, \
            mock.patch.object(kernel, "BLOCK_NODE_IDS", block_node_ids):
        data, model, out = (Path(folder) / name for name in ("data.csv", "model.json", "out.csv"))
        with open(data, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([*ds.feature_names, "y"])
            writer.writerows(map(repr, row) for row in np.column_stack([ds.features, ds.target]).tolist())
        save_model(fit_gbdt(ds, params), model)
        assert cli.main([
            "explain", "--model", str(model), "--data", str(data), "--target", "y", "--out", str(out),
        ]) == 0
        reference = Reference.load(model)
        with open(out, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
    assert table[0] == ["sample_index", "bias", *ds.feature_names, "prediction"]
    assert [int(cells[0]) for cells in table[1:]] == list(range(rows))
    for cells, x in zip(table[1:], ds.features.tolist()):
        bias, contributions, prediction = reference.explain(x)
        assert bits(map(float, cells[1:])) == bits([bias, *contributions, prediction])
