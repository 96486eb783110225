"""Independent reference for the additive explanation of a saved model.

Reads the model JSON that boostcontrib writes using only :mod:`json` and
recomputes, by recursive descent in tree-major, path-minor order,

    bias          = f0 + sum over trees of lr * root value
    contributions = sum over path edges of lr * (child value - parent value),
                    credited to the feature the parent splits on
    prediction    = f0 + lr * sum over trees of leaf value

Every sum runs in the order the package is documented to use, so the
benchmark can require bit-equal results rather than a tolerance. Nothing
here imports boostcontrib or numpy.
"""

from __future__ import annotations

import json


class Reference:
    """A saved model, indexed for recursive descent."""

    def __init__(self, payload: dict):
        self.f0 = payload["f0"]
        self.learning_rate = payload["learning_rate"]
        self.feature_names = list(payload["feature_names"])
        self.trees = [
            ({node["id"]: node for node in tree["nodes"]}, tree["root"])
            for tree in payload["trees"]
        ]

    @classmethod
    def load(cls, path) -> "Reference":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def explain(self, x) -> tuple[float, list[float], float]:
        """(bias, per-feature contributions, prediction) for one row."""
        lr = self.learning_rate
        bias = self.f0
        contributions = [0.0] * len(self.feature_names)
        leaves = 0.0
        for nodes, root in self.trees:
            bias += lr * nodes[root]["value"]
            leaves += self._descend(nodes, nodes[root], x, contributions)
        return bias, contributions, self.f0 + lr * leaves

    def _descend(self, nodes, node, x, contributions) -> float:
        if node["feature"] is None:
            return node["value"]
        feature = node["feature"]
        child = nodes[node["left"] if x[feature] <= node["threshold"] else node["right"]]
        contributions[feature] += self.learning_rate * (child["value"] - node["value"])
        return self._descend(nodes, child, x, contributions)
