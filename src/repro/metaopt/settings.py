"""The unified evaluation-settings record.

:class:`EvalSettings` is the one frozen dataclass that travels
everywhere an :class:`~repro.metaopt.harness.EvaluationHarness` is
built — the process-pool workers, the serving daemon's harness pool
(whose key it is), the fleet coordinator and its remote shards —
including over the wire in ``POST /v1/evaluate-batch`` requests, via
:meth:`to_json_dict` / :meth:`from_json_dict`.  Two settings objects
that compare equal produce bit-identical fitness values, which is what
lets the serial path, the process pool, and the fleet interchange
freely.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class EvalSettings:
    """Everything that parameterizes fitness evaluation, in one frozen,
    hashable, JSON-round-trip record.

    * ``noise_stddev`` — multiplicative Gaussian cycle noise (Section
      7.1); the noise seed derives from the memo key, so any evaluator
      holding equal settings reproduces the same noisy measurement.
    * ``fitness_cache_dir`` — persistent fitness cache directory
      (:mod:`repro.metaopt.fitness_cache`); writes are atomic, so
      processes and fleet workers may share one directory.
    * ``verify_outputs`` — differential guard: check fresh simulations
      against the interpreter, score miscompiles 0.0.
    * ``use_snapshots`` — compilation forking (docs/FORKING.md); off
      is the unforked seed path the identity tests compare against.
    """

    noise_stddev: float = 0.0
    fitness_cache_dir: str | None = None
    verify_outputs: bool = False
    use_snapshots: bool = True

    def __post_init__(self) -> None:
        # The record arrives over the wire: check types, not just range
        # (a bool is an int to isinstance; JSON admits Infinity and NaN).
        noise = self.noise_stddev
        if type(noise) not in (int, float) or not 0 <= noise < float("inf"):
            raise ValueError(
                f"noise_stddev must be a finite number >= 0, not {noise!r}")
        for switch in ("verify_outputs", "use_snapshots"):
            if not isinstance(getattr(self, switch), bool):
                raise ValueError(f"{switch} must be true or false")
        if self.fitness_cache_dir is not None:
            # Normalize Path objects so equal settings hash equally.
            object.__setattr__(self, "fitness_cache_dir",
                               str(self.fitness_cache_dir))

    # -- serialization (the /v1/evaluate-batch wire form) ----------------
    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "EvalSettings":
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(
                f"unknown EvalSettings fields: {sorted(unknown)}")
        return cls(**data)

    def replace(self, **changes) -> "EvalSettings":
        return dataclasses.replace(self, **changes)

