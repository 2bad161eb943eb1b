"""Zero-dependency learned model for surrogate fitness.

:class:`RidgeModel` is linear least squares with L2 regularization,
solved exactly by normal equations + Gaussian elimination with partial
pivoting: pure Python, fast to fit, hard to overfit, surprisingly
competitive on operator-count features.

:class:`SurrogateModel` wraps it into the per-benchmark ensemble the
evaluator consumes: one submodel per benchmark with enough pairs, a
global pooled model as the fallback for benchmarks the cache has never
seen.

Determinism is load-bearing (kill+resume byte-identity rides on it):
the fit is closed-form and consults no randomness, and serialization
is ``json.dumps(..., sort_keys=True)`` of plain floats, so equal
training pairs produce byte-identical model files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """Solve ``matrix @ x = rhs`` by Gaussian elimination with partial
    pivoting.  ``matrix`` is modified in place; singular (or nearly
    singular) systems fall back to zeros for the dead columns."""
    n = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) < 1e-12:
            continue
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for row in range(col + 1, n):
            factor = aug[row][col] / aug[col][col]
            if factor == 0.0:
                continue
            for k in range(col, n + 1):
                aug[row][k] -= factor * aug[col][k]
    solution = [0.0] * n
    for col in range(n - 1, -1, -1):
        if abs(aug[col][col]) < 1e-12:
            continue
        acc = aug[col][n]
        for k in range(col + 1, n):
            acc -= aug[col][k] * solution[k]
        solution[col] = acc / aug[col][col]
    return solution


@dataclass
class RidgeModel:
    """Linear model ``y ≈ w·x + b`` with L2 penalty on ``w``.

    Features are standardized internally (mean/scale stored with the
    model) so the penalty treats count features and fraction features
    evenly.
    """

    alpha: float = 1.0
    weights: list[float] = field(default_factory=list)
    bias: float = 0.0
    means: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)

    def fit(self, xs: list[list[float]], ys: list[float]) -> None:
        n, d = len(xs), len(xs[0])
        self.means = [sum(row[j] for row in xs) / n for j in range(d)]
        self.scales = []
        for j in range(d):
            var = sum((row[j] - self.means[j]) ** 2 for row in xs) / n
            self.scales.append(var ** 0.5 if var > 1e-12 else 1.0)
        zs = [[(row[j] - self.means[j]) / self.scales[j]
               for j in range(d)] for row in xs]
        y_mean = sum(ys) / n
        yc = [y - y_mean for y in ys]
        gram = [[sum(zs[i][a] * zs[i][b] for i in range(n))
                 + (self.alpha if a == b else 0.0)
                 for b in range(d)] for a in range(d)]
        xty = [sum(zs[i][a] * yc[i] for i in range(n)) for a in range(d)]
        self.weights = _solve(gram, xty)
        self.bias = y_mean

    def predict(self, x: list[float]) -> float:
        if not self.weights:
            return self.bias
        return self.bias + sum(
            w * (x[j] - self.means[j]) / self.scales[j]
            for j, w in enumerate(self.weights))

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "weights": self.weights,
            "bias": self.bias,
            "means": self.means,
            "scales": self.scales,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RidgeModel":
        return cls(alpha=data["alpha"], weights=list(data["weights"]),
                   bias=data["bias"], means=list(data["means"]),
                   scales=list(data["scales"]))


#: Minimum pairs before a per-benchmark submodel is worth fitting.
MIN_BENCH_PAIRS = 8
#: Minimum pairs before any model is fit at all.
MIN_TOTAL_PAIRS = 8


@dataclass
class SurrogateModel:
    """Per-benchmark ensemble of ridge models.

    ``predict`` routes through the benchmark's submodel when one was
    fit, else the global pooled model.  ``feature_names`` pins the
    vector layout the model was trained against; ``predict`` rejects
    vectors of any other width rather than silently misreading slots.
    """

    feature_names: tuple[str, ...] = ()
    global_model: RidgeModel | None = None
    per_benchmark: dict = field(default_factory=dict)
    training_pairs: int = 0

    @property
    def trained(self) -> bool:
        return self.global_model is not None

    def fit(self, pairs: list[tuple[list[float], str, float]]) -> None:
        """Fit from ``(vector, benchmark, speedup)`` pairs.

        Pairs are sorted before fitting so the model depends only on
        the *set* of pairs, not the order they were mined in.
        """
        if len(pairs) < MIN_TOTAL_PAIRS:
            raise ValueError(
                f"need at least {MIN_TOTAL_PAIRS} pairs to fit a "
                f"surrogate, got {len(pairs)}")
        for vector, _, _ in pairs:
            if len(vector) != len(self.feature_names):
                raise ValueError(
                    f"vector width {len(vector)} != model width "
                    f"{len(self.feature_names)}")
        ordered = sorted(pairs, key=lambda p: (p[1], p[0], p[2]))
        xs = [p[0] for p in ordered]
        ys = [p[2] for p in ordered]
        self.global_model = RidgeModel()
        self.global_model.fit(xs, ys)
        self.per_benchmark = {}
        by_bench: dict[str, list] = {}
        for vector, benchmark, y in ordered:
            by_bench.setdefault(benchmark, []).append((vector, y))
        for benchmark, rows in sorted(by_bench.items()):
            if len(rows) < MIN_BENCH_PAIRS:
                continue
            sub = RidgeModel()
            sub.fit([r[0] for r in rows], [r[1] for r in rows])
            self.per_benchmark[benchmark] = sub
        self.training_pairs = len(pairs)

    def predict(self, vector: list[float], benchmark: str) -> float:
        if self.global_model is None:
            raise ValueError("surrogate model is not trained")
        if len(vector) != len(self.feature_names):
            raise ValueError(
                f"vector width {len(vector)} != model width "
                f"{len(self.feature_names)}")
        model = self.per_benchmark.get(benchmark, self.global_model)
        return model.predict(vector)

    # -- serialization --------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "feature_names": list(self.feature_names),
            "training_pairs": self.training_pairs,
            "global": (self.global_model.to_json_dict()
                       if self.global_model is not None else None),
            "per_benchmark": {
                name: model.to_json_dict()
                for name, model in sorted(self.per_benchmark.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SurrogateModel":
        model = cls(
            feature_names=tuple(data["feature_names"]),
            training_pairs=data["training_pairs"],
        )
        if data["global"] is not None:
            model.global_model = RidgeModel.from_json_dict(data["global"])
        model.per_benchmark = {
            name: RidgeModel.from_json_dict(sub)
            for name, sub in data["per_benchmark"].items()
        }
        return model
