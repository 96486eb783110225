"""The benchmark's three workloads and the checks on their outputs.

Each workload class does its set-up in __init__ (timed as set-up), lists
its operation mix in ``operations`` (each timed alone) and checks each
operation's output in ``check`` (untimed). Outputs are checked against
properties the method must have and against reference.py, never against
a stored copy of an earlier run's output.
"""

import contextlib
import io
from pathlib import Path

import numpy as np

import boostcontrib as bc
from boostcontrib import cli
from reference import Reference

IDENTITY_TOLERANCE = 1e-9  # |prediction - (bias + sum)| <= this * max(1, |prediction|)
REFERENCE_SAMPLE = 8  # rows per distinct input checked against reference.py


def synthetic(rng, n, d):
    """Linear target with one dominant feature, as in scripts/make_synthetic.py."""
    X = rng.normal(size=(n, d))
    w = rng.uniform(0.2, 1.0, size=d)
    w[0] = 5.0
    y = X @ w + 0.5 * rng.normal(size=n)
    return X, y


def sample_rows(n):
    """Fixed, evenly spaced row indices for the reference check."""
    return sorted({round(i * (n - 1) / (REFERENCE_SAMPLE - 1)) for i in range(REFERENCE_SAMPLE)})


def additive(bias, contributions, prediction) -> bool:
    total = bias + sum(contributions)
    return abs(prediction - total) <= IDENTITY_TOLERANCE * max(1.0, abs(prediction))


def matches_reference(reference, x, bias, contributions, prediction) -> bool:
    return reference.explain(x) == (bias, list(contributions), prediction)


class ExplainBatch:
    """Score and explain unseen rows against one model fitted in set-up."""

    N_TRAIN, N_FEATURES, BATCHES, BATCH_ROWS = 2000, 10, 4, 250
    TREES, DEPTH = 100, 4

    def __init__(self, seed, out):
        X, y = synthetic(np.random.default_rng(seed), self.N_TRAIN + self.BATCHES * self.BATCH_ROWS, self.N_FEATURES)
        names = tuple(f"x{j}" for j in range(self.N_FEATURES))
        self.train = bc.Dataset(X[: self.N_TRAIN], y[: self.N_TRAIN], names)
        params = bc.GbdtParams(
            n_estimators=self.TREES, cart=bc.CartParams(max_depth=self.DEPTH), seed=0
        )
        self.model_path = out / "model.json"
        bc.save_model(bc.fit_gbdt(self.train, params), self.model_path)
        self.model = bc.load_model(self.model_path)
        self.batches = [
            X[self.N_TRAIN + b * self.BATCH_ROWS : self.N_TRAIN + (b + 1) * self.BATCH_ROWS]
            for b in range(self.BATCHES)
        ]
        self.operations = [lambda b=b: self.explain(b) for b in range(self.BATCHES)]
        self.first = {}

    def check_setup(self) -> None:
        pred = bc.predict_batch(self.model, self.train.features)
        mse = float(np.mean((pred - self.train.target) ** 2))
        if not mse < float(np.var(self.train.target)):
            raise SystemExit(f"explain-batch: training MSE {mse} is not below the target variance")
        self.reference = Reference.load(self.model_path)

    def explain(self, b):
        X = self.batches[b]
        return b, bc.predict_batch(self.model, X), bc.batch_explain(self.model, X)

    def check(self, output) -> bool:
        b, predictions, explanations = output
        names = self.model.feature_names
        bias = np.array([e.bias for e in explanations])
        contrib = np.array([[e.contributions[n] for n in names] for e in explanations])
        explained = np.array([e.prediction for e in explanations])
        if explained.tobytes() != predictions.tobytes():
            return False
        if not all(additive(*row) for row in zip(bias, contrib, explained)):
            return False
        arrays = (bias.tobytes(), contrib.tobytes(), explained.tobytes())
        if b in self.first:
            return arrays == self.first[b]
        self.first[b] = arrays
        X = self.batches[b]
        return all(
            matches_reference(self.reference, X[i].tolist(), float(bias[i]), contrib[i].tolist(), float(explained[i]))
            for i in sample_rows(len(X))
        )


class Studies:
    """The paper's three protocols with their defaults, written out as reports."""

    ROWS, FEATURES = 250, 8

    def __init__(self, seed, out):
        X, y = synthetic(np.random.default_rng(seed), self.ROWS, self.FEATURES)
        self.ds = bc.Dataset(X, y, tuple(f"x{j}" for j in range(self.FEATURES)))
        self.out = out / "reports"
        self.operations = [
            lambda: self.study(bc.run_correlation_experiment),
            lambda: self.study(bc.run_noise_experiment),
            lambda: self.study(bc.run_outlier_experiment),
        ]
        self.first = {}

    def check_setup(self) -> None:
        pass

    def study(self, protocol):
        report = protocol(self.ds)
        return report, bc.write_report(report, self.out)

    def check(self, output) -> bool:
        report, paths = output
        files = tuple(Path(p).read_bytes() for p in paths)
        if self.first.setdefault(report.name, files) != files:
            return False
        return getattr(self, f"check_{report.name}")(report)

    @staticmethod
    def check_correlation(report) -> bool:
        # Per seed, the base+copy row is the mean of the per-row pair sums.
        # That it also equals the original model's base row is not checked:
        # a tie between features can break differently once the copy joins
        # the candidates (see CHANGES.md), so it fails on some inputs.
        meta = report.metadata
        base, copy = meta["base_feature"], meta["correlated_feature"]
        mean = {(r[0], r[1], r[2]): r[3] for r in report.rows}
        return all(
            abs(mean[(s, "augmented", f"{base}+{copy}")]
                - (mean[(s, "augmented", base)] + mean[(s, "augmented", copy)])) <= 1e-9
            for s in {r[0] for r in report.rows}
        )

    @staticmethod
    def check_noise(report) -> bool:
        feature = report.metadata["noised_feature"]
        levels = report.metadata["levels"]
        mean_abs = {r[1]: r[4] for r in report.rows if r[2] == feature}
        return mean_abs[max(levels)] < mean_abs[0.0]

    @staticmethod
    def check_outlier(report) -> bool:
        cols = report.columns
        first, last = cols.index("bias") + 1, cols.index("prediction")
        ranks = [r[cols.index("manipulated_rank")] for r in report.rows]
        return sum(rank == 1 for rank in ranks) >= 4 and all(
            additive(r[first - 1], r[first:last], r[last]) for r in report.rows
        )


class CliPipeline:
    """train, predict, explain, verify and importance through cli.main on one CSV."""

    ROWS, FEATURES = 400, 8
    TREES, DEPTH = 50, 3

    def __init__(self, seed, out):
        self.main = cli.main
        X, y = synthetic(np.random.default_rng(seed), self.ROWS, self.FEATURES)
        self.names = [f"x{j}" for j in range(self.FEATURES)]
        self.rows = X.tolist()
        self.files = {k: str(out / f"{k}.{ext}") for k, ext in (
            ("data", "csv"), ("model", "json"), ("pred", "csv"), ("expl", "csv"),
            ("records", "csv"), ("space", "csv"), ("importance", "csv"))}
        with open(self.files["data"], "w", encoding="utf-8") as fh:
            fh.write(",".join(self.names + ["y"]) + "\n")
            for row, target in zip(self.rows, y.tolist()):
                fh.write(",".join(map(repr, row + [target])) + "\n")
        f = self.files
        data = ["--data", f["data"], "--target", "y"]
        self.commands = [
            ["train", *data, "--n-estimators", str(self.TREES), "--max-depth", str(self.DEPTH),
             "--model-out", f["model"]],
            ["predict", "--model", f["model"], *data, "--out", f["pred"]],
            ["explain", "--model", f["model"], *data, "--out", f["expl"], "--check",
             "--decision-records", f["records"], "--decision-space", f["space"]],
            ["verify", "--model", f["model"], *data],
            ["importance", "--model", f["model"], "--out", f["importance"]],
        ]
        self.operations = [self.pipeline]
        self.first = None

    def check_setup(self) -> None:
        pass

    def pipeline(self):
        results = []
        for argv in self.commands:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                results.append((self.main(argv), stdout.getvalue()))
        return results

    def check(self, results) -> bool:
        if any(code != 0 for code, _ in results) or "all checks passed" not in results[3][1]:
            return False
        model = Path(self.files["model"]).read_bytes()
        expl = Path(self.files["expl"]).read_bytes()
        with open(self.files["pred"], encoding="utf-8") as fh:
            predicted = [line.rstrip("\n").split(",")[1] for line in fh][1:]
        table = [line.split(",") for line in expl.decode().splitlines()[1:]]
        if len(table) != len(self.rows) or [r[-1] for r in table] != predicted:
            return False
        values = [[float(v) for v in r[1:]] for r in table]
        if not all(additive(v[0], v[1:-1], v[-1]) for v in values):
            return False
        with open(self.files["space"], encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                i, feature, lower, upper = line.split(",")
                x = self.rows[int(i)][self.names.index(feature)]
                if not float(lower) < x <= float(upper):
                    return False
        if self.first is not None:
            return (model, expl) == self.first
        self.first = (model, expl)
        reference = Reference.load(self.files["model"])
        return all(
            matches_reference(reference, self.rows[i], values[i][0], values[i][1:-1], values[i][-1])
            for i in sample_rows(len(self.rows))
        )


WORKLOADS = {"explain-batch": ExplainBatch, "studies": Studies, "cli-pipeline": CliPipeline}


