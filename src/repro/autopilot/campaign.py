"""One background re-optimization campaign and its durable record.

A campaign lives in ``<state_dir>/campaigns/<name>/`` — which is a
normal :class:`~repro.experiments.ExperimentRunner` run directory
(config.json, events.jsonl, checkpoint.pkl, populations/, result.json)
plus one extra file, ``campaign.json``, the autopilot's own record of
why the campaign exists and where it stands:

``phase`` walks ``evolving`` → ``canary`` → ``promoted`` |
``rolled_back``.  Because the runner checkpoints after every
generation (``checkpoint_every=1``) and ``campaign.json`` is rewritten
atomically on every transition, a daemon killed at *any* point resumes
the campaign from its last completed generation and re-derives
identical results — the engine's kill+resume byte-identity guarantee
extends to the whole autopilot loop.

The GP run itself is an :class:`~repro.experiments.ExperimentSession`
stepped one generation at a time by low-priority serve jobs; the
session object (open event sink, the daemon pool's warm harness) is
process-local and rebuilt on demand after a restart via ``resume=True``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.autopilot.config import AUTOPILOT_SCHEMA, AutopilotConfig
from repro.experiments.checkpoint import atomic_write
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    CHECKPOINT_FILENAME,
    ExperimentRunner,
    ExperimentSession,
)
from repro.gp.engine import GPParams

CAMPAIGN_FILENAME = "campaign.json"

#: Campaign lifecycle phases; the last two are terminal.
PHASES = ("evolving", "canary", "promoted", "rolled_back")


@dataclass
class Campaign:
    """Durable description + live handles of one campaign."""

    name: str
    case: str
    machine: str
    benchmark: str
    dataset: str
    parent_id: str
    trigger_seq: int
    root: Path
    phase: str = "evolving"
    champion_id: str | None = None
    #: paired cycles keyed "benchmark|dataset": [stable, canary]
    pairs: dict = field(default_factory=dict)
    #: process-local stepping handle (never persisted)
    session: ExperimentSession | None = None

    # -- paths -----------------------------------------------------------
    @property
    def run_dir(self) -> Path:
        return self.root

    @property
    def record_path(self) -> Path:
        return self.root / CAMPAIGN_FILENAME

    @property
    def active(self) -> bool:
        return self.phase in ("evolving", "canary")

    # -- persistence -----------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "schema": AUTOPILOT_SCHEMA,
            "name": self.name,
            "case": self.case,
            "machine": self.machine,
            "benchmark": self.benchmark,
            "dataset": self.dataset,
            "parent_id": self.parent_id,
            "trigger_seq": self.trigger_seq,
            "phase": self.phase,
            "champion_id": self.champion_id,
            "pairs": self.pairs,
        }

    def save(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(self.to_json_dict(), indent=2,
                             sort_keys=True) + "\n"
        atomic_write(self.record_path, payload.encode())

    @classmethod
    def load(cls, root: Path) -> "Campaign":
        data = json.loads((root / CAMPAIGN_FILENAME).read_text())
        if data.get("schema") != AUTOPILOT_SCHEMA:
            raise ValueError(
                f"unsupported campaign schema {data.get('schema')!r} "
                f"in {root}")
        if data["phase"] not in PHASES:
            raise ValueError(f"unknown campaign phase {data['phase']!r}")
        return cls(
            name=data["name"],
            case=data["case"],
            machine=data["machine"],
            benchmark=data["benchmark"],
            dataset=data["dataset"],
            parent_id=data["parent_id"],
            trigger_seq=data["trigger_seq"],
            root=root,
            phase=data["phase"],
            champion_id=data["champion_id"],
            pairs=dict(data["pairs"]),
        )

    # -- the GP run ------------------------------------------------------
    def experiment_config(self, autopilot: AutopilotConfig,
                          parent_expression: str,
                          fitness_cache_dir: str | None) -> ExperimentConfig:
        """The campaign's deterministic experiment description.

        Seeded from the incumbent champion's expression (plus the case
        baseline) and salted with the trigger ordinal, so consecutive
        campaigns on the same track explore differently while a
        re-created campaign for the same trigger is identical.
        """
        return ExperimentConfig(
            mode="specialize",
            case=self.case,
            benchmark=self.benchmark,
            params=GPParams(
                population_size=autopilot.population,
                generations=autopilot.generations,
                seed=autopilot.gp_seed + self.trigger_seq,
            ),
            fitness_cache_dir=fitness_cache_dir,
            checkpoint_every=1,
            seed_expressions=(parent_expression,),
        )

    def build_runner(self, autopilot: AutopilotConfig,
                     parent_expression: str,
                     publish_dir,
                     harness) -> ExperimentRunner:
        """``harness`` is the daemon pool's noise-0 one for this case;
        the config records the cache directory it persists to."""
        return ExperimentRunner(
            self.experiment_config(autopilot, parent_expression,
                                   harness.settings.fitness_cache_dir),
            run_dir=self.run_dir,
            publish_dir=publish_dir,
            harness=harness,
            publish_parent_id=self.parent_id,
            # pinned so a restarted campaign publishes the identical
            # content address (created_at participates in the digest)
            publish_created_at=float(self.trigger_seq),
        )

    def open_session(self, runner: ExperimentRunner) -> ExperimentSession:
        """Open (or resume) the stepping session for this campaign."""
        if self.session is None:
            resume = (self.run_dir / CHECKPOINT_FILENAME).exists()
            self.session = runner.open_session(resume=resume)
        return self.session

    def close_session(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None
