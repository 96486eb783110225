"""explain's output files against the library's per-row objects.

The CLI writes its files from the kernel's arrays. The reference here writes
the same files the plain way: the csv module over batch_explain,
iter_decision_contributions and iter_decision_spaces, one object per row.
Their numbers are Python ints and floats, which csv writes via str and repr.
"""

import csv
import io
import json

import pytest

from boostcontrib import (
    batch_explain,
    cli,
    iter_decision_contributions,
    iter_decision_spaces,
    kernel,
    load_csv,
    load_model,
)
from conftest import json_leaf, json_split


# Roots sit at list positions 1, 0 and 3, and children are listed before
# their parents, so a tree index or step read off a node's position, or off
# its id, is wrong. Tree 1 is a single leaf: no row takes an edge in it.
MODEL = {
    "format_version": 1, "f0": 0.1, "learning_rate": 0.3, "feature_names": ["a,b", 'q"t', "z"],
    "trees": [
        {"root": 9, "nodes": [
            json_leaf(5, 0.1, 2), json_split(9, 0.3, 5, 1, 0.5, 5, 7),
            json_split(7, 0.4, 3, 0, 1.0, 3, 4), json_leaf(3, 0.2, 1), json_leaf(4, 0.55, 2),
        ]},
        {"root": 2, "nodes": [json_leaf(2, -0.7, 5)]},
        {"root": 4, "nodes": [
            json_leaf(2, 1 / 3, 1), json_leaf(1, -2.5, 2), json_leaf(6, -0.0, 1),
            json_split(4, 0.125, 4, 0, 0.5, 8, 1), json_split(8, 0.7, 2, 2, -0.25, 2, 6),
        ]},
    ],
}

# Several rows sit exactly on a threshold, where equality routes left.
DATA = (
    '"a,b","q""t",z,y\n'
    "0.5,0.5,-0.25,0\n1.0,2.0,0.0,0\n1.5,0.25,-1.0,0\n"
    "-3.0,0.7,5.0,0\n0.75,0.5,-0.25,0\n2.0,3.0,1.0,0\n"
)


def csv_text(header, rows) -> str:
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return fh.getvalue()


def reference_files(model, X) -> dict[str, str]:
    """Each explain file as the csv module writes the library's per-row objects."""
    names = model.feature_names
    return {
        "--out": csv_text(
            ["sample_index", "bias", *names, "prediction"],
            ([i, e.bias, *(e.contributions[n] for n in names), e.prediction]
             for i, e in enumerate(batch_explain(model, X))),
        ),
        "--decision-records": csv_text(
            cli.RECORD_HEADER,
            ([i, r.tree_index, r.step, names[r.feature], r.threshold, r.direction, r.residue,
              r.scaled_residue]
             for i, records in enumerate(iter_decision_contributions(model, X))
             for r in records),
        ),
        "--decision-space": csv_text(
            ["sample_index", "feature", "lower", "upper"],
            ([i, n, *space.intervals[n]]
             for i, space in enumerate(iter_decision_spaces(model, X)) for n in names),
        ),
    }


@pytest.fixture
def files(tmp_path):
    model, data = tmp_path / "model.json", tmp_path / "data.csv"
    model.write_text(json.dumps(MODEL))
    data.write_text(DATA)
    return model, data


@pytest.mark.parametrize("block_node_ids", [kernel.BLOCK_NODE_IDS, 1])
def test_files_equal_the_reference(files, tmp_path, monkeypatch, block_node_ids):
    # With block_node_ids 1 every row is routed in a block of its own.
    monkeypatch.setattr(kernel, "BLOCK_NODE_IDS", block_node_ids)
    model_path, data = files
    outputs = {flag: tmp_path / f"{flag[2:]}.csv"
               for flag in ("--out", "--decision-records", "--decision-space")}
    assert cli.main([
        "explain", "--model", str(model_path), "--data", str(data), "--target", "y",
        *(arg for flag, path in outputs.items() for arg in (flag, str(path))),
    ]) == 0
    model = load_model(model_path)
    assert [tree.root for tree in model.trees] == [1, 0, 3]
    expected = reference_files(model, load_csv(data, "y").features)
    assert {flag: path.read_bytes().decode() for flag, path in outputs.items()} == expected
    # Hand-traced: row 0 goes left at q"t <= 0.5 in tree 0, and at a,b <= 0.5,
    # then z <= -0.25, in tree 2.
    records = expected["--decision-records"].splitlines()
    assert records[1:4] == [
        f'0,0,0,"q""t",0.5,left,{0.1 - 0.3!r},{0.3 * (0.1 - 0.3)!r}',
        f'0,2,0,"a,b",0.5,left,{0.7 - 0.125!r},{0.3 * (0.7 - 0.125)!r}',
        f"0,2,1,z,-0.25,left,{1 / 3 - 0.7!r},{0.3 * (1 / 3 - 0.7)!r}",
    ]


def test_explanations_without_out_go_to_stdout(files, capsys):
    model_path, data = files
    assert cli.main([
        "explain", "--model", str(model_path), "--data", str(data), "--target", "y",
    ]) == 0
    model = load_model(model_path)
    expected = reference_files(model, load_csv(data, "y").features)["--out"]
    assert capsys.readouterr().out == expected
