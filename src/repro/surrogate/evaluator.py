"""Predict-then-verify fitness evaluation.

:class:`SurrogateEvaluator` wraps any exact evaluator (serial harness,
process pool, fleet) behind the same
:class:`~repro.metaopt.harness.EvaluatorProtocol` surface the GP
engine already speaks.  Per generation batch it:

1. groups jobs by candidate tree and scores every tree from the model;
2. fully simulates the top-K trees of the ranking plus an ε-sampled
   exploration slice of the tail through the wrapped evaluator;
3. promotes any tail tree whose *predicted* score reaches the best
   exact score seen so far (fixpoint) — so a model overestimate can
   never crown a champion the simulator has not confirmed;
4. scores the remaining tail from the model;
5. measures Spearman rank correlation between predictions and exact
   values on the simulated subset and refits from its accumulated
   exact pairs when correlation drifts below the floor.

Cold start: with no model (empty cache), every batch is exact until
``min_fit_pairs`` exact pairs have accumulated, then the first fit
happens and prescreening kicks in.

Determinism: the ε-sample comes from a private seeded RNG whose state
rides :meth:`state_dict`, model fits are deterministic
(:mod:`repro.surrogate.model`), and exact evaluation order preserves
job order — so kill+resume with a surrogate on is byte-identical, and
equal seeds reproduce equal campaigns.
"""

from __future__ import annotations

import math
import random
from typing import Iterable

from repro import obs
from repro.gp.nodes import Node
from repro.gp.parse import parse, unparse
from repro.metaopt.psets import PSETS
from repro.surrogate.features import FeatureExtractor
from repro.surrogate.model import SurrogateModel

#: Histogram buckets for Spearman rank correlation (bounded [-1, 1]).
_CORR_BUCKETS = (-1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
#: Spearman floor on the simulated subset; below it the model refits.
MIN_RANK_CORR = 0.5


def _average_ranks(values: list[float]) -> list[float]:
    """Ranks with ties averaged (fractional ranks, 1-based)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while (j + 1 < len(order)
               and values[order[j + 1]] == values[order[i]]):
            j += 1
        rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def spearman(xs: list[float], ys: list[float]) -> float:
    """Spearman rank correlation; 0.0 when degenerate (constant
    input or fewer than two points)."""
    if len(xs) < 2:
        return 0.0
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx <= 0.0 or vy <= 0.0:
        return 0.0
    return cov / math.sqrt(vx * vy)


class SurrogateEvaluator:
    """Rank with a learned model, simulate only what matters.

    Implements :class:`~repro.metaopt.harness.EvaluatorProtocol`;
    drop-in wherever the exact evaluators go.  The wrapped ``inner``
    evaluator is owned: :meth:`close` closes it.
    """

    STATE_VERSION = 2

    def __init__(self, inner, case_name: str,
                 model: SurrogateModel | None = None,
                 *,
                 top_k: int = 8,
                 epsilon: float = 0.125,
                 min_fit_pairs: int = 16,
                 seed: int = 0) -> None:
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.inner = inner
        self.case_name = case_name
        self.pset = PSETS[case_name]
        self.extractor = FeatureExtractor(self.pset)
        self.model = model
        self.top_k = top_k
        self.epsilon = epsilon
        self.min_fit_pairs = min_fit_pairs
        self.seed = seed
        self._rng = random.Random(0x5AC0FFEE ^ seed)
        #: accumulated exact pairs (expression text, benchmark, value)
        #: — refit corpus, serialized for resume
        self._pairs: list[tuple[str, str, float]] = []
        self._pair_keys: set[tuple[str, str]] = set()
        #: best simulator-confirmed per-tree mean seen so far; the
        #: promotion threshold
        self._best_exact = -math.inf
        self.exact_jobs = 0
        self.predicted_jobs = 0
        self.refits = 0
        self.promotions = 0
        self.batches = 0
        self.last_rank_corr: float | None = None

    # -- EvaluatorProtocol ----------------------------------------------
    def evaluate_batch(
            self, jobs: Iterable[tuple[Node, str]]) -> list[float]:
        jobs = list(jobs)
        if not jobs:
            return []
        self.batches += 1
        if self.model is None or not self.model.trained:
            values = self.inner.evaluate_batch(jobs)
            self.exact_jobs += len(jobs)
            obs.inc("surrogate.exact_jobs", len(jobs))
            self._record_pairs(jobs, values)
            self._maybe_first_fit()
            return values

        # Group jobs by candidate tree (generalize mode evaluates one
        # tree on several benchmarks).
        groups: dict[tuple, dict] = {}
        for index, (tree, benchmark) in enumerate(jobs):
            key = tree.structural_key()
            group = groups.setdefault(
                key, {"tree": tree, "indices": [], "first": index})
            group["indices"].append(index)
        predictions: list[float | None] = [None] * len(jobs)
        for group in groups.values():
            vector = self.extractor.vector(group["tree"])
            for index in group["indices"]:
                predictions[index] = self.model.predict(
                    vector, jobs[index][1])
            scores = [predictions[i] for i in group["indices"]]
            group["score"] = sum(scores) / len(scores)

        ranking = sorted(
            groups.values(),
            key=lambda g: (-g["score"], g["first"]))
        exact_groups = list(ranking[:self.top_k])
        tail = ranking[self.top_k:]
        kept_tail = []
        for group in tail:
            if self.epsilon > 0.0 and self._rng.random() < self.epsilon:
                exact_groups.append(group)
            else:
                kept_tail.append(group)

        values: list[float | None] = [None] * len(jobs)
        exact_means: list[tuple[float, float]] = []  # (predicted, exact)

        def run_exact(groups_to_run: list[dict]) -> None:
            indices = sorted(
                i for group in groups_to_run for i in group["indices"])
            if not indices:
                return
            batch_values = self.inner.evaluate_batch(
                [jobs[i] for i in indices])
            for i, value in zip(indices, batch_values):
                values[i] = value
            self.exact_jobs += len(indices)
            obs.inc("surrogate.exact_jobs", len(indices))
            self._record_pairs([jobs[i] for i in indices], batch_values)
            for group in groups_to_run:
                mean = (sum(values[i] for i in group["indices"])
                        / len(group["indices"]))
                exact_means.append((group["score"], mean))
                if mean > self._best_exact:
                    self._best_exact = mean

        run_exact(exact_groups)

        # Champion promotion fixpoint: any surviving tail tree whose
        # *predicted* score matches or beats the best exact mean gets
        # simulated — an inflated prediction must never outrank the
        # simulator-confirmed front-runner in selection.
        while True:
            promoted = [g for g in kept_tail
                        if g["score"] >= self._best_exact]
            if not promoted:
                break
            kept_tail = [g for g in kept_tail
                         if g["score"] < self._best_exact]
            self.promotions += len(promoted)
            obs.inc("surrogate.promotions", len(promoted))
            run_exact(promoted)

        tail_jobs = 0
        for group in kept_tail:
            for index in group["indices"]:
                values[index] = predictions[index]
                tail_jobs += 1
        self.predicted_jobs += tail_jobs
        if tail_jobs:
            obs.inc("surrogate.predicted_jobs", tail_jobs)
            obs.inc("surrogate.sims_saved", tail_jobs)

        if len(exact_means) >= 3:
            corr = spearman([p for p, _ in exact_means],
                            [e for _, e in exact_means])
            self.last_rank_corr = corr
            obs.observe("surrogate.rank_corr", corr,
                        buckets=_CORR_BUCKETS)
            if corr < MIN_RANK_CORR:
                self._refit()
        return values

    def stats(self) -> dict[str, int]:
        counters = dict(self.inner.stats())
        counters["surrogate_exact_jobs"] = self.exact_jobs
        counters["surrogate_predicted_jobs"] = self.predicted_jobs
        counters["surrogate_sims_saved"] = self.predicted_jobs
        counters["surrogate_refits"] = self.refits
        counters["surrogate_promotions"] = self.promotions
        counters["surrogate_batches"] = self.batches
        counters["surrogate_pairs"] = len(self._pairs)
        return counters

    def close(self) -> None:
        self.inner.close()

    def __enter__(self) -> "SurrogateEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- training -------------------------------------------------------
    def _record_pairs(self, jobs, values) -> None:
        for (tree, benchmark), value in zip(jobs, values):
            text = unparse(tree)
            dedup = (text, benchmark)
            if dedup in self._pair_keys:
                continue
            self._pair_keys.add(dedup)
            self._pairs.append((text, benchmark, value))

    def _vector_pairs(self) -> list[tuple[list[float], str, float]]:
        bool_features = self.pset.bool_feature_set()
        return [
            (self.extractor.vector(parse(text, bool_features)),
             benchmark, value)
            for text, benchmark, value in self._pairs
        ]

    def _fit(self) -> bool:
        """Fit a fresh model from every exact pair, once there are
        enough of them; whether it did."""
        if len(self._pairs) < self.min_fit_pairs:
            return False
        model = SurrogateModel(feature_names=self.extractor.names)
        model.fit(self._vector_pairs())
        self.model = model
        return True

    def _maybe_first_fit(self) -> None:
        if self._fit():
            obs.inc("surrogate.fits")

    def _refit(self) -> None:
        if self._fit():
            self.refits += 1
            obs.inc("surrogate.refits")

    # -- resume ---------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything a resumed process needs to continue
        byte-identically: the model, the refit corpus, the ε-sample RNG
        state, the promotion threshold, and the counters."""
        return {
            "version": self.STATE_VERSION,
            "case": self.case_name,
            "seed": self.seed,
            "top_k": self.top_k,
            "epsilon": self.epsilon,
            "min_fit_pairs": self.min_fit_pairs,
            "model": (self.model.to_json_dict()
                      if self.model is not None else None),
            "pairs": [list(pair) for pair in self._pairs],
            "rng_state": _encode_rng_state(self._rng.getstate()),
            "best_exact": (None if self._best_exact == -math.inf
                           else self._best_exact),
            "counters": {
                "exact_jobs": self.exact_jobs,
                "predicted_jobs": self.predicted_jobs,
                "refits": self.refits,
                "promotions": self.promotions,
                "batches": self.batches,
            },
        }

    def restore_state(self, state: dict) -> None:
        if state.get("version") != self.STATE_VERSION:
            raise ValueError(
                f"unsupported surrogate state version "
                f"{state.get('version')!r}")
        if state.get("case") != self.case_name:
            raise ValueError(
                f"surrogate state is for case {state.get('case')!r}, "
                f"evaluator is {self.case_name!r}")
        self.seed = state["seed"]
        self.top_k = state["top_k"]
        self.epsilon = state["epsilon"]
        self.min_fit_pairs = state["min_fit_pairs"]
        self.model = (SurrogateModel.from_json_dict(state["model"])
                      if state["model"] is not None else None)
        self._pairs = [tuple(pair) for pair in state["pairs"]]
        self._pair_keys = {(text, benchmark)
                           for text, benchmark, _ in self._pairs}
        self._rng.setstate(_decode_rng_state(state["rng_state"]))
        self._best_exact = (-math.inf if state["best_exact"] is None
                            else state["best_exact"])
        counters = state["counters"]
        self.exact_jobs = counters["exact_jobs"]
        self.predicted_jobs = counters["predicted_jobs"]
        self.refits = counters["refits"]
        self.promotions = counters["promotions"]
        self.batches = counters["batches"]


def _encode_rng_state(state) -> list:
    """``random.Random.getstate()`` → JSON-serializable lists."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def _decode_rng_state(encoded) -> tuple:
    version, internal, gauss_next = encoded
    return (version, tuple(internal), gauss_next)
