"""Dynamic subset selection (Gathercole, 1998).

Training a general-purpose priority function means evaluating every
candidate on every benchmark — far too costly when one fitness
evaluation is a full compile-and-simulate.  DSS instead evaluates each
generation on a *subset* of the training benchmarks, biased toward
benchmarks that are currently "difficult" (the candidate pool performs
poorly on them relative to the baseline) and benchmarks that have not
been selected recently.

Each benchmark ``b`` carries

* a difficulty score ``D(b)``  — how far below baseline the recent
  population average is on ``b`` (benchmarks the pool already handles
  well fade out), and
* an age ``A(b)``              — generations since last selection.

Selection weight follows Gathercole's formulation
``W(b) = D(b)**d + A(b)**a`` and a subset of fixed size is drawn by
weighted sampling without replacement.
"""

from __future__ import annotations

import random


class DSSState:
    """Per-benchmark bookkeeping for dynamic subset selection."""

    def __init__(self, benchmarks: tuple[str, ...], subset_size: int,
                 difficulty_exponent: float = 1.0, age_exponent: float = 3.5,
                 rng: random.Random | None = None) -> None:
        self.benchmarks = benchmarks
        self.subset_size = subset_size
        self.difficulty_exponent = difficulty_exponent
        self.age_exponent = age_exponent
        self.rng = random.Random() if rng is None else rng
        if not benchmarks:
            raise ValueError("DSS needs at least one benchmark")
        if not 1 <= subset_size <= len(benchmarks):
            raise ValueError(
                f"subset_size must be in [1, {len(benchmarks)}], "
                f"got {subset_size}"
            )
        # All benchmarks start maximally difficult so the first few
        # generations explore the whole suite.
        self.difficulty = {name: 1.0 for name in benchmarks}
        self.age = {name: 1 for name in benchmarks}

    def weights(self) -> dict[str, float]:
        """Current selection weight of every benchmark."""
        return {
            name: self.difficulty[name] ** self.difficulty_exponent
            + self.age[name] ** self.age_exponent
            for name in self.benchmarks
        }

    def select_subset(self) -> list[str]:
        """Draw the next generation's benchmark subset."""
        weights = self.weights()
        pool = list(self.benchmarks)
        chosen: list[str] = []
        for _ in range(self.subset_size):
            total = sum(weights[name] for name in pool)
            roll = self.rng.uniform(0.0, total)
            cumulative = 0.0
            picked = pool[-1]
            for name in pool:
                cumulative += weights[name]
                if roll <= cumulative:
                    picked = name
                    break
            chosen.append(picked)
            pool.remove(picked)
        for name in self.benchmarks:
            if name in chosen:
                self.age[name] = 1
            else:
                self.age[name] += 1
        return chosen

    def state_dict(self) -> dict:
        """Picklable snapshot of difficulty, age, and the sampler RNG —
        what resuming a checkpointed DSS run needs to keep drawing the
        same subsets as the uninterrupted run."""
        return {
            "version": 1,
            "difficulty": dict(self.difficulty),
            "age": dict(self.age),
            "rng_state": self.rng.getstate(),
        }

    def restore_state(self, state: dict) -> None:
        if state.get("version") != 1:
            raise ValueError(
                f"unsupported DSS state version {state.get('version')!r}")
        if set(state["difficulty"]) != set(self.benchmarks):
            raise ValueError("DSS snapshot covers a different benchmark set")
        self.difficulty = dict(state["difficulty"])
        self.age = dict(state["age"])
        self.rng.setstate(state["rng_state"])

    def record_results(self, speedups: dict[str, float]) -> None:
        """Update difficulty from this generation's population results.

        ``speedups`` maps benchmark name to the population's average
        speedup over the baseline on that benchmark.  A benchmark where
        the pool averages below 1.0 is difficult; one where the pool is
        comfortably ahead decays toward easy.  An exponential moving
        average smooths generation-to-generation noise.
        """
        for name, speedup in speedups.items():
            if name not in self.difficulty:
                raise KeyError(f"unknown benchmark {name!r}")
            # Map speedup to difficulty in [0, 1]: 1.0 at speedup <= 1,
            # falling off as the pool pulls ahead of the baseline.
            hardness = max(0.0, min(1.0, 1.0 / max(speedup, 1e-9)))
            self.difficulty[name] = 0.5 * self.difficulty[name] + 0.5 * hardness
