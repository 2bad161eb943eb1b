"""Two-bit dynamic branch predictor.

The paper adds "a 2-bit dynamic branch predictor to the simulator" with
a 5-cycle misprediction penalty (Table 3).  Each static branch gets a
saturating 2-bit counter (00 strongly-not-taken .. 11 strongly-taken),
keyed by the branch instruction's uid (a perfect-BTB assumption — no
aliasing between branches, which is the generous variant and keeps the
feature meaningful for small benchmarks).
"""

from __future__ import annotations


class BranchStats:
    def __init__(self, predictions: int = 0, mispredictions: int = 0) -> None:
        self.predictions = predictions
        self.mispredictions = mispredictions

    @property
    def accuracy(self) -> float:
        if self.predictions == 0:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions


class TwoBitPredictor:
    """Per-branch saturating counters, initialized weakly-taken."""

    INIT = 2  # weakly taken

    def __init__(self) -> None:
        self._counters: dict[int, int] = {}
        self.stats = BranchStats()
        self._per_branch: dict[int, BranchStats] = {}

    def predict(self, branch_uid: int) -> bool:
        return self._counters.get(branch_uid, self.INIT) >= 2

    def update(self, branch_uid: int, taken: bool) -> bool:
        """Record the outcome; returns True when the prediction was
        correct."""
        counter = self._counters.get(branch_uid, self.INIT)
        predicted = counter >= 2
        correct = predicted == taken
        if taken:
            if counter < 3:
                counter += 1
        elif counter > 0:
            counter -= 1
        self._counters[branch_uid] = counter

        self.stats.predictions += 1
        try:
            per_branch = self._per_branch[branch_uid]
        except KeyError:
            per_branch = self._per_branch[branch_uid] = BranchStats()
        per_branch.predictions += 1
        if not correct:
            self.stats.mispredictions += 1
            per_branch.mispredictions += 1
        return correct

    def accuracy_of(self, branch_uid: int) -> float:
        """Measured predictability of one static branch (1.0 = perfect)."""
        return self._per_branch.get(branch_uid, BranchStats()).accuracy

    def branch_accuracies(self) -> dict[int, float]:
        return {uid: stats.accuracy
                for uid, stats in self._per_branch.items()}
