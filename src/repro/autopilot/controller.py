"""The autopilot orchestrator wired into the serving daemon.

One :class:`Autopilot` object per :class:`~repro.serve.server.
ReproServer` owns the whole self-improvement loop:

1. **Observe** — after every evaluate job that ran under a deployed
   artifact, :meth:`observe_evaluation` either tallies a canary pair
   (if the artifact is a live canary) or probes a sampled fraction
   against the baseline heuristic via the
   :class:`~repro.autopilot.monitor.QualityMonitor`.
2. **Trigger** — a window that trips (mean speedup below threshold on
   the *stable* artifact of a track) starts a
   :class:`~repro.autopilot.campaign.Campaign` seeded from the
   incumbent and enqueues its first low-priority step job.
3. **Step** — :meth:`campaign_step` (the ``autopilot-step`` job
   handler) runs exactly one GP generation per job, so interactive
   traffic is never blocked for more than a single generation, then
   re-enqueues itself; cooperative cancel and drain pause the campaign
   at the last checkpoint.
4. **Canary** — a finished campaign publishes its champion as a child
   artifact (``parent_id`` = incumbent), points the track's ``canary``
   channel at it, and hash-routes a deterministic slice of
   stable-channel traffic to it; the sign test over paired cycles
   promotes or rolls back.

Every decision appends a schema-stamped record to
``<state_dir>/decisions.jsonl``.  Records carry sequence numbers and
*no timestamps or job ids*, and all inputs (traffic hashing, sampling
counters, GP seeds, pinned ``created_at``) are deterministic and
persisted — so killing the daemon at any point and replaying the same
traffic yields a byte-identical decision log and an identical champion
artifact id.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

from repro import obs
from repro.autopilot.campaign import Campaign
from repro.autopilot.config import AUTOPILOT_SCHEMA, AutopilotConfig
from repro.autopilot.monitor import QualityMonitor, traffic_hash
from repro.autopilot.stats import paired_verdict
from repro.experiments.events import trim_torn_tail

DECISIONS_FILENAME = "decisions.jsonl"
CAMPAIGNS_DIRNAME = "campaigns"

#: Job kind of one background campaign generation.
STEP_JOB_KIND = "autopilot-step"


class Autopilot:
    """The serving daemon's self-improvement loop (docs/AUTOPILOT.md)."""

    def __init__(
        self,
        config: AutopilotConfig,
        registry,
        harness_pool,
        submit,
        current_job=lambda: None,
    ) -> None:
        self.config = config
        self.registry = registry
        self.harness_pool = harness_pool
        #: ``JobQueue.submit``-shaped callable for step jobs
        self._submit = submit
        #: ``JobQueue.current_job``-shaped callable (cooperative cancel)
        self._current_job = current_job
        self.state_dir = Path(config.state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.monitor = QualityMonitor(config)
        self._lock = threading.RLock()
        self._draining = False
        self.campaigns: dict[str, Campaign] = {}
        #: campaign names with a step job queued or running
        self._step_pending: set[str] = set()
        self._artifact_cache: dict[str, object] = {}
        self._decisions_path = self.state_dir / DECISIONS_FILENAME
        self._decision_seq = self._count_decisions()
        self._load_campaigns()

    # -- persistence ------------------------------------------------------
    @property
    def campaigns_dir(self) -> Path:
        return self.state_dir / CAMPAIGNS_DIRNAME

    def _count_decisions(self) -> int:
        """Records already in the journal, after cutting off a last
        line a kill tore: the next record's ``seq`` follows them."""
        trim_torn_tail(self._decisions_path)
        try:
            with open(self._decisions_path, encoding="utf-8") as handle:
                return sum(1 for _ in handle)
        except OSError:
            return 0

    def _load_campaigns(self) -> None:
        if not self.campaigns_dir.is_dir():
            return
        for root in sorted(self.campaigns_dir.iterdir()):
            if (root / "campaign.json").exists():
                campaign = Campaign.load(root)
                self.campaigns[campaign.name] = campaign

    def _record_decision(self, event: dict) -> None:
        with self._lock:
            self._decision_seq += 1
            record = {"schema": AUTOPILOT_SCHEMA,
                      "seq": self._decision_seq, **event}
            line = json.dumps(record, sort_keys=True) + "\n"
            with open(self._decisions_path, "a",
                      encoding="utf-8") as handle:
                handle.write(line)
        obs.inc(f"autopilot.decisions.{event['event']}")

    def _artifact(self, artifact_id: str):
        cached = self._artifact_cache.get(artifact_id)
        if cached is None:
            cached = self.registry.load(artifact_id)
            self._artifact_cache[artifact_id] = cached
        return cached

    # -- lifecycle --------------------------------------------------------
    def recover(self) -> None:
        """Re-enqueue step jobs for campaigns interrupted mid-evolution
        (the daemon restart path; their sessions resume from the last
        checkpoint)."""
        with self._lock:
            evolving = [c for c in self.campaigns.values()
                        if c.phase == "evolving"]
        for campaign in evolving:
            self._enqueue_step(campaign)

    def begin_drain(self) -> None:
        """Stop starting campaigns and re-enqueueing steps.  The queue
        drain cancels queued step jobs; an in-flight step finishes its
        generation (already checkpointed) and stops."""
        with self._lock:
            self._draining = True

    def finish_drain(self) -> None:
        """Close any open campaign sessions (flushes their event
        sinks).  Campaign state is already durable: every generation is
        checkpointed and every transition rewrote campaign.json."""
        with self._lock:
            campaigns = list(self.campaigns.values())
        for campaign in campaigns:
            campaign.close_session()

    # -- routing ----------------------------------------------------------
    def canary_router(self, case: str, machine: str, benchmark: str,
                      dataset: str) -> bool:
        """Deterministic hash slice: does this stable-channel request
        ride the canary?  Pure function of the traffic key, so the
        slice is stable across requests, threads, and restarts."""
        routed = (traffic_hash(f"{case}|{machine}|{benchmark}|{dataset}")
                  < self.config.canary_fraction * 10_000)
        if routed:
            obs.inc("autopilot.canary_routed")
        return routed

    # -- observation ------------------------------------------------------
    def observe_evaluation(self, params: dict, payload: dict) -> None:
        """Fold one finished evaluate job into the loop.  Baseline
        probes and pair simulations run on the pool's noise-0 harness
        for the case, which the campaigns share too."""
        artifact_id = payload.get("artifact")
        if not artifact_id:
            return
        case = payload["case"]
        machine = payload["machine"]
        benchmark = payload["benchmark"]
        dataset = payload["dataset"]
        cycles = payload["cycles"]

        campaign = self._canary_campaign(case, machine, artifact_id)
        if campaign is not None:
            self._record_pair(campaign, benchmark, dataset, cycles)
            return
        if not self.monitor.should_sample(case, benchmark, dataset):
            return
        harness = self.harness_pool.get(case, 0.0)
        baseline = harness.baseline_result(benchmark, dataset).cycles
        speedup = (baseline / cycles) if cycles > 0 else 0.0
        obs.inc("autopilot.probes")
        summary = self.monitor.record(artifact_id, benchmark, dataset,
                                      speedup)
        if summary["tripped"]:
            self.maybe_trigger(case, machine, artifact_id)

    def _canary_campaign(self, case: str, machine: str,
                         artifact_id: str) -> Campaign | None:
        with self._lock:
            for campaign in self.campaigns.values():
                if (campaign.phase == "canary"
                        and campaign.case == case
                        and campaign.machine == machine
                        and campaign.champion_id == artifact_id):
                    return campaign
        return None

    def _active_campaign(self, case: str, machine: str) -> Campaign | None:
        for campaign in self.campaigns.values():
            if (campaign.active and campaign.case == case
                    and campaign.machine == machine):
                return campaign
        return None

    # -- triggering -------------------------------------------------------
    def maybe_trigger(self, case: str, machine: str,
                      artifact_id: str) -> Campaign | None:
        """Start a re-optimization campaign for a tripped window, if
        the artifact is the track's stable pointer and no campaign is
        already working that track."""
        with self._lock:
            if self._draining:
                return None
            stable = self.registry.get_channel(case, machine, "stable")
            if stable != artifact_id:
                return None
            if self._active_campaign(case, machine) is not None:
                return None
            worst = self.monitor.worst_benchmark(artifact_id)
            if worst is None:
                return None
            summary = self.monitor.summary_for(artifact_id)
            benchmark, dataset = worst
            trigger_seq = len(self.campaigns) + 1
            name = f"{case}-{machine}-{trigger_seq:04d}"
            campaign = Campaign(
                name=name,
                case=case,
                machine=machine,
                benchmark=benchmark,
                dataset=dataset,
                parent_id=artifact_id,
                trigger_seq=trigger_seq,
                root=self.campaigns_dir / name,
            )
            campaign.save()
            self.campaigns[name] = campaign
            # a tripped window must not re-trigger while this campaign
            # (and its canary) run
            self.monitor.reset_window(artifact_id)
        self._record_decision({
            "event": "campaign_started",
            "campaign": name,
            "case": case,
            "machine": machine,
            "parent_id": artifact_id,
            "benchmark": benchmark,
            "dataset": dataset,
            "window_mean": summary["mean_speedup"],
            "window_samples": summary["samples"],
            "threshold": self.config.threshold,
        })
        obs.inc("autopilot.triggers")
        self._enqueue_step(campaign)
        return campaign

    def _enqueue_step(self, campaign: Campaign) -> bool:
        with self._lock:
            if self._draining or campaign.name in self._step_pending:
                return False
            try:
                self._submit(STEP_JOB_KIND, {"campaign": campaign.name},
                             priority="background")
            except Exception as exc:  # noqa: BLE001 — queue full/drain
                # The loop self-heals: recover() re-enqueues on
                # restart, and kick_stalled() on the next observation.
                print(f"autopilot: could not enqueue step for "
                      f"{campaign.name}: {exc}", file=sys.stderr)
                return False
            self._step_pending.add(campaign.name)
            return True

    def kick_stalled(self) -> None:
        """Re-enqueue any evolving campaign with no step in flight
        (e.g. a step submit shed by a momentarily full queue)."""
        with self._lock:
            stalled = [c for c in self.campaigns.values()
                       if c.phase == "evolving"
                       and c.name not in self._step_pending]
        for campaign in stalled:
            self._enqueue_step(campaign)

    # -- the step job handler ---------------------------------------------
    def campaign_step(self, params: dict) -> dict:
        """Run one GP generation of one campaign (job kind
        ``autopilot-step``)."""
        name = params.get("campaign")
        with self._lock:
            self._step_pending.discard(name)
            campaign = self.campaigns.get(name)
        if campaign is None:
            raise ValueError(f"unknown campaign {name!r}")
        if campaign.phase != "evolving":
            return {"campaign": name, "phase": campaign.phase,
                    "skipped": True}

        parent = self._artifact(campaign.parent_id)
        runner = campaign.build_runner(
            self.config, parent.expression,
            publish_dir=self.registry.root,
            harness=self.harness_pool.get(campaign.case, 0.0))
        session = campaign.open_session(runner)
        if not session.done:
            with obs.span("autopilot:step", campaign=name):
                stats = session.step()
            obs.inc("autopilot.steps")
        if session.done:
            return self._finish_campaign(campaign, session)

        job = self._current_job()
        cancelled = bool(job is not None and job.cancel_requested)
        with self._lock:
            paused = cancelled or self._draining
        if paused:
            # resumable: the generation just ran is checkpointed
            campaign.close_session()
            return {"campaign": name, "phase": "evolving",
                    "generation": stats.generation, "paused": True}
        self._enqueue_step(campaign)
        return {"campaign": name, "phase": "evolving",
                "generation": stats.generation}

    def _finish_campaign(self, campaign: Campaign, session) -> dict:
        result = session.finalize()
        campaign.close_session()
        champion_id = result.artifact_id
        version = self.registry.register_version(
            campaign.case, campaign.machine, champion_id)
        self._record_decision({
            "event": "champion_published",
            "campaign": campaign.name,
            "artifact_id": champion_id,
            "parent_id": campaign.parent_id,
            "version": version,
            "train_speedup": result.specialization.train_speedup,
            "benchmark": campaign.benchmark,
        })
        obs.inc("autopilot.published")
        self.registry.set_channel(campaign.case, campaign.machine,
                                  "canary", champion_id)
        with self._lock:
            campaign.champion_id = champion_id
            campaign.phase = "canary"
            campaign.save()
        self._record_decision({
            "event": "canary_started",
            "campaign": campaign.name,
            "artifact_id": champion_id,
            "fraction": self.config.canary_fraction,
        })
        return {"campaign": campaign.name, "phase": "canary",
                "champion": champion_id, "version": version}

    # -- canary analysis --------------------------------------------------
    def _record_pair(self, campaign: Campaign, benchmark: str,
                     dataset: str, canary_cycles: int) -> None:
        stable_id = self.registry.get_channel(campaign.case,
                                              campaign.machine, "stable")
        if stable_id is None:
            return
        harness = self.harness_pool.get(campaign.case, 0.0)
        stable_tree = self._artifact(stable_id).tree()
        stable_cycles = harness.simulate(stable_tree, benchmark,
                                         dataset).cycles
        with self._lock:
            if campaign.phase != "canary":
                return
            campaign.pairs[f"{benchmark}|{dataset}"] = [stable_cycles,
                                                        canary_cycles]
            campaign.save()
            verdict = paired_verdict(
                [tuple(pair) for pair in campaign.pairs.values()],
                self.config.min_pairs, self.config.max_pairs,
                self.config.alpha)
        obs.inc("autopilot.canary_pairs")
        if verdict["decision"] == "promote":
            self._promote(campaign, verdict)
        elif verdict["decision"] == "rollback":
            self._rollback(campaign, verdict)

    def _promote(self, campaign: Campaign, verdict: dict) -> None:
        with self._lock:
            if campaign.phase != "canary":
                return
            move = self.registry.promote(campaign.case, campaign.machine)
            campaign.phase = "promoted"
            campaign.save()
        self._record_decision({
            "event": "promoted",
            "campaign": campaign.name,
            "artifact_id": campaign.champion_id,
            "parent_id": campaign.parent_id,
            "version": move["version"],
            "wins": verdict["wins"],
            "losses": verdict["losses"],
            "ties": verdict["ties"],
            "p_value": verdict["p_value"],
        })
        obs.inc("autopilot.promotions")

    def _rollback(self, campaign: Campaign, verdict: dict) -> None:
        with self._lock:
            if campaign.phase != "canary":
                return
            move = self.registry.rollback(campaign.case, campaign.machine)
            campaign.phase = "rolled_back"
            campaign.save()
        self._record_decision({
            "event": "rolled_back",
            "campaign": campaign.name,
            "artifact_id": campaign.champion_id,
            "parent_id": campaign.parent_id,
            "version": move["version"],
            "wins": verdict["wins"],
            "losses": verdict["losses"],
            "ties": verdict["ties"],
            "p_value": verdict["p_value"],
        })
        obs.inc("autopilot.rollbacks")

    # -- introspection ----------------------------------------------------
    def status(self) -> dict:
        with self._lock:
            campaigns = []
            for name in sorted(self.campaigns):
                campaign = self.campaigns[name]
                record = campaign.to_json_dict()
                del record["schema"]
                record["pairs"] = len(campaign.pairs)
                record["stepping"] = name in self._step_pending
                campaigns.append(record)
            payload = {
                "schema": AUTOPILOT_SCHEMA,
                "ok": True,
                "enabled": True,
                "draining": self._draining,
                "config": self.config.to_json_dict(),
                "windows": self.monitor.status(),
                "campaigns": campaigns,
                "channels": self.registry.channels(),
                "decisions": self._decision_seq,
            }
        obs.set_gauge("autopilot.active_campaigns",
                      sum(1 for c in self.campaigns.values() if c.active))
        return payload
