"""Learned surrogate fitness (docs/SURROGATE.md).

The GP loop spends nearly all of its budget simulating candidates that
were never going to matter.  This package adds the predict-then-verify
tier: a zero-dependency learned model ranks each generation, only the
top of the ranking (plus an exploration sample) reaches the
cycle-accurate simulator, and the tail is scored from the model.  The
simulator stays the ground truth — the champion is always
simulator-verified — the model just decides who deserves simulator
time.

Layers:

* :mod:`repro.surrogate.features` — candidate expression → fixed
  numeric vector (operator counts, shape, constant stats, per-feature
  usage from the case's primitive set);
* :mod:`repro.surrogate.model` — pure-Python ridge regression with
  deterministic closed-form training and JSON serialization;
* :mod:`repro.surrogate.train` — mine (expression → speedup) training
  pairs out of the persistent
  :class:`~repro.metaopt.fitness_cache.FitnessCache`;
* :mod:`repro.surrogate.evaluator` — the
  :class:`~repro.metaopt.harness.EvaluatorProtocol` implementation
  that wraps any exact evaluator (serial, process pool, fleet).
"""

from repro.surrogate.evaluator import SurrogateEvaluator
from repro.surrogate.features import FeatureExtractor, static_ir_delta
from repro.surrogate.model import RidgeModel, SurrogateModel
from repro.surrogate.train import TrainingReport, train_from_cache

__all__ = [
    "FeatureExtractor",
    "RidgeModel",
    "SurrogateEvaluator",
    "SurrogateModel",
    "TrainingReport",
    "static_ir_delta",
    "train_from_cache",
]
