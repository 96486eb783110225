import numpy as np
import pytest

from boostcontrib import CartParams, Dataset, GbdtParams, Tree, fit_gbdt
from boostcontrib.oracle import enumerate_leaf_regions

# Hand-checked four-point fixture. With a depth-2 tree the first split is
# f0 <= 0.5 (gain 225 vs 25 for f1); the right child splits on f1 <= 0.5.
# Node means: root 7.5, left leaf 0 (n=2), right 15 -> leaves 10 and 20.
D0_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
D0_Y = np.array([0.0, 0.0, 10.0, 20.0])


@pytest.fixture
def d0_dataset() -> Dataset:
    return Dataset(D0_X, D0_Y, ("f0", "f1"))


@pytest.fixture
def d0_one_tree(d0_dataset):
    """Single depth-2 tree, learning rate 1: reproduces the leaf means."""
    params = GbdtParams(
        n_estimators=1, learning_rate=1.0, cart=CartParams(max_depth=2), seed=0
    )
    return fit_gbdt(d0_dataset, params)


@pytest.fixture
def d0_two_trees(d0_dataset):
    """Two depth-2 trees at learning rate 0.5; all values stay dyadic, so
    the expected numbers in tests are exact floats, not approximations."""
    params = GbdtParams(
        n_estimators=2, learning_rate=0.5, cart=CartParams(max_depth=2), seed=0
    )
    return fit_gbdt(d0_dataset, params)


def build_synthetic(n: int = 500, d: int = 8, seed: int = 0, noise: float = 0.5) -> Dataset:
    """Linear-ish regression data whose first feature dominates the target,
    giving 'auto' feature selection an unambiguous answer."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = rng.uniform(0.2, 1.0, size=d)
    w[0] = 5.0
    y = X @ w + noise * rng.normal(size=n)
    return Dataset(X, y, tuple(f"x{j}" for j in range(d)))


@pytest.fixture(scope="session")
def synthetic_500x8() -> Dataset:
    return build_synthetic()


def random_ensemble(rng: np.random.Generator, *, max_n: int = 80, max_trees: int = 8):
    """Small random dataset + fitted model, for property tests."""
    n = int(rng.integers(5, max_n))
    d = int(rng.integers(1, 6))
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    ds = Dataset(X, y, tuple(f"x{j}" for j in range(d)))
    params = GbdtParams(
        n_estimators=int(rng.integers(1, max_trees + 1)),
        learning_rate=float(rng.choice([0.1, 0.5, 1.0])),
        cart=CartParams(max_depth=int(rng.integers(1, 5))),
        seed=int(rng.integers(0, 1000)),
    )
    return ds, fit_gbdt(ds, params)


def tree_of(nodes, root: int = 0, n_features: int = 1) -> Tree:
    """A Tree from node tuples listed by node id: (value, n_samples) for a
    leaf, (value, n_samples, feature, threshold, left, right) for a split."""
    splits = [node[2:] if len(node) == 6 else (0, 0.0, i, i) for i, node in enumerate(nodes)]
    feature, threshold, left, right = zip(*splits)
    value, n_samples = zip(*(node[:2] for node in nodes))
    return Tree(
        np.array(feature), np.array(threshold, dtype=float), np.array(left), np.array(right),
        np.array(value, dtype=float), np.array(n_samples), root=root, n_features=n_features,
    )


def sample_probes(X, n_probes: int, seed: int) -> np.ndarray:
    """Uniform probes over the data bounding box inflated by one range-width
    per side, so unbounded intervals get exercised too. The box is clipped
    to half the float range per side, so its width stays finite for data
    near the float maximum."""
    X = np.asarray(X, dtype=np.float64)
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    limit = np.finfo(np.float64).max / 2
    with np.errstate(over="ignore"):
        span = hi - lo
        low, high = np.clip(lo - span, -limit, limit), np.clip(hi + span, -limit, limit)
    return np.random.default_rng(seed).uniform(low, high, size=(n_probes, X.shape[1]))


def region_index(lower, upper, X) -> np.ndarray:
    """Per row of X, the index of the one region (lower, upper), as
    enumerate_leaf_regions gives them, with lower < x <= upper."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    inside = ((lower[:, None] < X) & (X <= upper[:, None])).all(axis=2)
    assert (inside.sum(axis=0) == 1).all(), "a row is not in exactly one leaf region"
    return inside.argmax(axis=0)


def region_leaf_values(tree: Tree, X) -> np.ndarray:
    """Per row of X, the value of the leaf whose oracle region holds it: the
    routing reference that follows no child link."""
    lower, upper, value = enumerate_leaf_regions(tree)
    return value[region_index(lower, upper, X)]


def json_leaf(node_id, value, n_samples) -> dict:
    """A leaf's entry in a model file's node list."""
    return {"id": node_id, "value": value, "n_samples": n_samples,
            "feature": None, "threshold": None, "left": None, "right": None}


def json_split(node_id, value, n_samples, feature, threshold, left, right) -> dict:
    """A split node's entry in a model file's node list."""
    return {"id": node_id, "value": value, "n_samples": n_samples,
            "feature": feature, "threshold": threshold, "left": left, "right": right}
