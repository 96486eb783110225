"""The reference checker on the hand-traced two-tree model.

Four points (0,0)->0, (0,1)->0, (1,0)->10, (1,1)->20, two depth-2 trees at
learning rate 0.5. f0 = 7.5; both roots hold mean residual 0. Tree 1 splits
f0 <= 0.5 into -7.5 and 7.5, then f1 <= 0.5 into 2.5 and 12.5; tree 2 does
the same on the halved residuals: -3.75 | 3.75 -> 1.25, 6.25. For x = (1, 1):
f0 gets 0.5*7.5 + 0.5*3.75 = 5.625, f1 gets 0.5*5 + 0.5*2.5 = 3.75, and the
prediction is 7.5 + 0.5*(12.5 + 6.25) = 16.875. All values are dyadic, so
equality is exact.

Run: python3 -m pytest bench/test_reference.py -q
"""

import json

from reference import Reference


def _leaf(node_id, value, n):
    return {"id": node_id, "value": value, "n_samples": n, "feature": None,
            "threshold": None, "left": None, "right": None}


def _split(node_id, value, n, feature, left, right):
    return {"id": node_id, "value": value, "n_samples": n, "feature": feature,
            "threshold": 0.5, "left": left, "right": right}


def _tree(left_leaf, right_value, low, high):
    return {"root": 0, "nodes": [
        _split(0, 0.0, 4, 0, 1, 2),
        _leaf(1, left_leaf, 2),
        _split(2, right_value, 2, 1, 3, 4),
        _leaf(3, low, 1),
        _leaf(4, high, 1),
    ]}


TWO_TREES = {
    "format_version": 1,
    "f0": 7.5,
    "learning_rate": 0.5,
    "feature_names": ["f0", "f1"],
    "trees": [_tree(-7.5, 7.5, 2.5, 12.5), _tree(-3.75, 3.75, 1.25, 6.25)],
}


def test_hand_traced_two_trees(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(TWO_TREES))
    bias, contributions, prediction = Reference.load(path).explain([1.0, 1.0])
    assert bias == 7.5
    assert contributions == [5.625, 3.75]
    assert prediction == 16.875


def test_left_branch_and_equality_routes_left():
    ref = Reference(TWO_TREES)
    bias, contributions, prediction = ref.explain([0.5, 1.0])
    assert (bias, contributions, prediction) == (7.5, [-5.625, 0.0], 1.875)
    assert bias + sum(contributions) == prediction
