"""The unified experiment configuration.

One frozen :class:`ExperimentConfig` describes a whole campaign —
specialize (one benchmark) or generalize (DSS over a training set plus
optional cross-validation) — and is consumed identically by the Python
API (:func:`repro.experiments.run_experiment`) and the CLI
(``repro evolve`` / ``repro generalize``).  It replaced the ad-hoc
kwarg threading through the old ``specialize()`` / ``generalize()``
wrappers, which are now gone.

The config serializes to plain JSON (``runs/<name>/config.json``), and
a resumed run is reconstructed from exactly that file, so a run
directory is self-describing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.gp.engine import GPParams
from repro.machine.descr import CASE_NAMES

#: Experiment kinds understood by the runner.
MODES = ("specialize", "generalize")

#: Case-study names a config may carry: the rows of the case table in
#: :mod:`repro.metaopt.harness`.
CASES = CASE_NAMES


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a campaign needs, immutable and JSON-serializable.

    ``mode="specialize"`` requires ``benchmark``; ``mode="generalize"``
    requires a non-empty ``training_set`` (``test_set`` additionally
    triggers cross-validation of the evolved function).
    """

    mode: str
    case: str
    benchmark: str | None = None
    training_set: tuple[str, ...] = ()
    test_set: tuple[str, ...] = ()
    params: GPParams = field(default_factory=GPParams)
    noise_stddev: float = 0.0
    processes: int = 1
    fitness_cache_dir: str | None = None
    #: differential guard: verify every fresh simulation against the
    #: interpreter and give miscompiling candidates worst-case fitness
    verify_outputs: bool = False
    seed_baseline: bool = True
    subset_size: int | None = None
    #: checkpoint every N completed generations (1 = every generation,
    #: the resume-safe default)
    checkpoint_every: int = 1
    #: extra s-expressions seeded into the initial population alongside
    #: the baseline — how an autopilot re-optimization campaign starts
    #: from the incumbent champion instead of from scratch.  Serialized
    #: only when non-empty, so existing config.json files (and their
    #: checkpoints) round-trip unchanged.
    seed_expressions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.case not in CASES:
            raise ValueError(f"case must be one of {CASES}, got {self.case!r}")
        if self.mode == "specialize":
            if not self.benchmark:
                raise ValueError("specialize requires a benchmark")
        else:
            if not self.training_set:
                raise ValueError("generalize requires a non-empty "
                                 "training_set")
        if self.processes < 1:
            raise ValueError("processes must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        # Normalize list inputs (e.g. straight from JSON) to tuples so
        # the config stays hashable and comparable.
        for name in ("training_set", "test_set", "seed_expressions"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    # -- serialization ---------------------------------------------------
    def to_json_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["training_set"] = list(self.training_set)
        data["test_set"] = list(self.test_set)
        if self.seed_expressions:
            data["seed_expressions"] = list(self.seed_expressions)
        else:
            del data["seed_expressions"]
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        params = data.get("params")
        if isinstance(params, dict):
            data["params"] = GPParams(**params)
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)
