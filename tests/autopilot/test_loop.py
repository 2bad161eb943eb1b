"""The autopilot loop end to end, in process.

A real :class:`ReproServer` with the autopilot enabled serves a
deliberately *bad* stable artifact (the negated baseline priority —
slower than the baseline heuristic on several benchmarks).  Channel
traffic trips the quality monitor, a low-priority campaign evolves a
replacement seeded from the incumbent, the champion canaries on a
hash-routed slice, and the sign test promotes it — with the whole
decision trail byte-identical across a daemon kill+restart.
"""

import itertools
import json
import threading
from pathlib import Path

import pytest

from repro import obs
from repro.autopilot import Autopilot, AutopilotConfig
from repro.autopilot.campaign import Campaign
from repro.gp.parse import unparse
from repro.machine.descr import DEFAULT_EPIC
from repro.metaopt.baselines import BASELINE_TREES
from repro.serve.artifact import build_artifact
from repro.serve.client import ServeClient
from repro.serve.jobs import HarnessPool
from repro.serve.registry import ArtifactRegistry
from repro.serve.server import ReproServer
from tests.conftest import wait_until

CASE = "hyperblock"
MACHINE = DEFAULT_EPIC.name

#: Fast benchmarks where the negated baseline loses to the baseline.
TRIP_BENCHES = ("diamond-join", "023.eqntott", "codrle4")
PAIR_BENCHES = ("diamond-join", "023.eqntott", "codrle4", "huff_dec")

BASELINE_EXPR = unparse(BASELINE_TREES[CASE]())
BAD_EXPR = f"(sub 0.0000 {BASELINE_EXPR})"


def make_artifact(expression, created_at=1.0, parent_id=None):
    return build_artifact(
        case=CASE, expression=expression, machine=DEFAULT_EPIC,
        training_config={"mode": "manual"}, metrics={},
        created_at=created_at, parent_id=parent_id)


def autopilot_config(state_dir: Path, **overrides) -> AutopilotConfig:
    defaults = dict(
        state_dir=str(state_dir),
        sample_rate=1.0,
        window_size=8,
        window_min=len(TRIP_BENCHES),
        threshold=0.999,
        canary_fraction=1.0,
        min_pairs=3,
        max_pairs=8,
        alpha=0.125,
        population=8,
        generations=2,
        gp_seed=11,
    )
    defaults.update(overrides)
    return AutopilotConfig(**defaults)


def seeded_registry(root: Path) -> tuple[ArtifactRegistry, str]:
    """A store whose stable pointer is the bad artifact."""
    registry = ArtifactRegistry(root / "store")
    bad = make_artifact(BAD_EXPR)
    registry.save(bad)
    registry.set_channel(CASE, MACHINE, "stable", bad.artifact_id)
    return registry, bad.artifact_id


def campaign_phases(client) -> list[tuple[str, str]]:
    status = client.autopilot_status()
    return [(record["name"], record["phase"])
            for record in status["campaigns"]]


def drive_channel_traffic(client, benches) -> list[dict]:
    return [client.evaluate(bench, case=CASE, channel="stable",
                            timeout=120.0)
            for bench in benches]


def hold_second_step_until_drain(autopilot) -> None:
    """Gate the campaign on the instance: the first generation runs
    (and checkpoints) freely, the second ``campaign_step`` call blocks
    until the autopilot has begun draining.  Whatever the test reads
    between the first checkpoint and ``drain()`` is therefore read
    mid-campaign, however fast a generation is on this box."""
    draining = threading.Event()
    step, begin_drain = autopilot.campaign_step, autopilot.begin_drain
    calls = itertools.count(1)

    def gated_step(params):
        if next(calls) == 2:
            draining.wait()
        return step(params)

    def begin_drain_and_release():
        begin_drain()
        draining.set()

    autopilot.campaign_step = gated_step
    autopilot.begin_drain = begin_drain_and_release


def run_loop_to_completion(root: Path, interrupt: bool,
                           generations: int = 2) -> dict:
    """Drive one full degrade→trip→evolve→canary→promote loop; with
    ``interrupt=True`` the daemon is killed (drained) mid-campaign and
    a fresh daemon resumes from the checkpoint."""
    registry, bad_id = seeded_registry(root)
    config = autopilot_config(root / "autopilot",
                              generations=generations)

    def boot():
        server = ReproServer(port=0, workers=2, capacity=32,
                             registry=registry, autopilot_config=config)
        server.start()
        return server, ServeClient(server.url, timeout=120.0)

    server, client = boot()
    if interrupt:
        hold_second_step_until_drain(server.autopilot)
    phase_at_drain = None
    phases: list[tuple[str, str]] = []
    try:
        drive_channel_traffic(client, TRIP_BENCHES)
        wait_until(lambda: campaign_phases(client), "campaign to start",
                   timeout=120.0)
        if interrupt:
            name = campaign_phases(client)[0][0]
            checkpoint = (root / "autopilot" / "campaigns" / name
                          / "checkpoint.pkl")
            wait_until(checkpoint.exists, "first checkpoint", timeout=120.0)
            phase_at_drain = campaign_phases(client)[0][1]
            server.drain(timeout=60.0)
            server, client = boot()  # the restarted daemon recovers
        wait_until(lambda: campaign_phases(client)[0][1] == "canary",
                   "campaign to reach canary", timeout=120.0)
        for _ in range(4):
            drive_channel_traffic(client, PAIR_BENCHES)
            phases = campaign_phases(client)
            if phases[0][1] in ("promoted", "rolled_back"):
                break
    finally:
        server.drain(timeout=60.0)
    track = registry.channels()[f"{CASE}/{MACHINE}"]
    return {
        "bad_id": bad_id,
        "phases": phases,
        "phase_at_drain": phase_at_drain,
        "track": track,
        "decisions": (root / "autopilot"
                      / "decisions.jsonl").read_bytes(),
        "lineage": registry.lineage(track["stable"]),
    }


@pytest.mark.slow
class TestPromotePath:
    @pytest.fixture(scope="class")
    def outcome(self, tmp_path_factory):
        metrics = obs.enable_metrics()
        try:
            result = run_loop_to_completion(
                tmp_path_factory.mktemp("loop"), interrupt=False)
        finally:
            obs.disable_metrics()
        result["obs"] = metrics.snapshot()
        return result

    def test_campaign_promoted(self, outcome):
        assert [phase for _, phase in outcome["phases"]] == ["promoted"]

    def test_champion_is_stable_with_lineage(self, outcome):
        track = outcome["track"]
        assert track["canary"] is None
        assert track["stable"] != outcome["bad_id"]
        chain = outcome["lineage"]
        assert chain[0]["parent_id"] == outcome["bad_id"]
        assert chain[1]["artifact_id"] == outcome["bad_id"]
        # champion is version 2 on the track
        assert track["versions"][track["stable"]] == 2

    def test_decisions_are_schema_stamped_and_ordered(self, outcome):
        records = [json.loads(line) for line
                   in outcome["decisions"].splitlines()]
        assert [r["event"] for r in records] == [
            "campaign_started", "champion_published", "canary_started",
            "promoted"]
        assert [r["seq"] for r in records] == [1, 2, 3, 4]
        assert all(r["schema"] == 1 for r in records)
        # deterministic replay: no wall-clock, no job ids
        for record in records:
            assert not {"time", "timestamp", "created_at",
                        "job_id"} & set(record)

    def test_campaign_started_names_the_worst_benchmark(self, outcome):
        started = json.loads(outcome["decisions"].splitlines()[0])
        assert started["benchmark"] == "diamond-join"
        assert started["parent_id"] == outcome["bad_id"]
        assert started["window_mean"] < started["threshold"]

    def test_promotion_was_significant(self, outcome):
        promoted = json.loads(outcome["decisions"].splitlines()[-1])
        assert promoted["wins"] >= 3 and promoted["losses"] == 0
        assert promoted["p_value"] <= 0.125

    def test_autopilot_metrics_flowed(self, outcome):
        counters = outcome["obs"]["counters"]
        assert counters.get("autopilot.samples", 0) >= 3
        assert counters.get("autopilot.triggers") == 1
        assert counters.get("autopilot.steps", 0) >= 2
        assert counters.get("autopilot.promotions") == 1
        # campaign steps ran as background jobs, interactive evaluates
        # as interactive ones
        waits = outcome["obs"]["histograms"]
        assert waits["serve.wait_seconds.background"]["count"] >= 2
        assert waits["serve.wait_seconds.interactive"]["count"] >= 7


@pytest.mark.slow
class TestInteractiveLatencyDuringCampaign:
    def test_interactive_p50_stays_low_while_campaign_runs(self,
                                                           tmp_path):
        """The campaign must never starve interactive traffic: while
        it evolves in the background, interactive evaluate jobs keep a
        low p50 queue wait (asserted from the serve metrics
        histogram)."""
        registry, _ = seeded_registry(tmp_path)
        config = autopilot_config(tmp_path / "autopilot", generations=6)
        metrics = obs.enable_metrics()
        server = ReproServer(port=0, workers=2, capacity=32,
                             registry=registry,
                             autopilot_config=config)
        server.start()
        client = ServeClient(server.url, timeout=120.0)
        try:
            drive_channel_traffic(client, TRIP_BENCHES)
            wait_until(lambda: campaign_phases(client), "campaign to start",
                       timeout=120.0)
            # interactive traffic while the campaign is stepping
            for _ in range(3):
                drive_channel_traffic(client, TRIP_BENCHES)
        finally:
            server.drain(timeout=120.0)
            obs.disable_metrics()
        hist = metrics.snapshot()["histograms"][
            "serve.wait_seconds.interactive"]
        total = hist["count"]
        assert total >= 12
        # p50 upper bound: the bucket where the cumulative count
        # crosses half of all observations
        cumulative = 0
        p50_bound = float("inf")
        for edge, count in zip(hist["buckets"], hist["counts"]):
            cumulative += count
            if cumulative >= total / 2:
                p50_bound = edge
                break
        assert p50_bound <= 0.5, (
            f"interactive p50 wait above {p50_bound}s with a campaign "
            f"running: {hist}")


@pytest.mark.slow
class TestKillRestartByteIdentity:
    def test_interrupted_loop_matches_uninterrupted(self,
                                                    tmp_path_factory):
        """Kill the daemon mid-campaign-generation; the restarted
        daemon resumes from the checkpoint and the *entire* decision
        trail — decisions.jsonl bytes, champion id, channel pointers —
        matches a never-interrupted run of the same traffic."""
        straight = run_loop_to_completion(
            tmp_path_factory.mktemp("straight"), interrupt=False,
            generations=12)
        resumed = run_loop_to_completion(
            tmp_path_factory.mktemp("resumed"), interrupt=True,
            generations=12)
        assert resumed["phase_at_drain"] == "evolving"
        assert resumed["decisions"] == straight["decisions"]
        assert resumed["track"] == straight["track"]
        assert [p for _, p in resumed["phases"]] == ["promoted"]


class TestRollbackPath:
    def test_losing_canary_is_rolled_back(self, tmp_path):
        """A canary that loses the paired sign test is discarded:
        stable pointer untouched, canary cleared, decision logged."""
        registry = ArtifactRegistry(tmp_path / "store")
        good = make_artifact(BASELINE_EXPR, created_at=1.0)
        loser = make_artifact(BAD_EXPR, created_at=2.0,
                              parent_id=good.artifact_id)
        registry.save(good)
        registry.save(loser)
        registry.set_channel(CASE, MACHINE, "stable", good.artifact_id)
        registry.set_channel(CASE, MACHINE, "canary", loser.artifact_id)

        config = autopilot_config(tmp_path / "autopilot")
        pool = HarnessPool()
        autopilot = Autopilot(config, registry, pool,
                              submit=lambda *a, **k: None)
        campaign = Campaign(
            name="t-0001", case=CASE, machine=MACHINE,
            benchmark="diamond-join", dataset="train",
            parent_id=good.artifact_id, trigger_seq=1,
            root=autopilot.campaigns_dir / "t-0001", phase="canary",
            champion_id=loser.artifact_id)
        campaign.save()
        autopilot.campaigns[campaign.name] = campaign

        harness = pool.get(CASE)
        loser_tree = loser.tree()
        for bench in PAIR_BENCHES:
            cycles = harness.simulate(loser_tree, bench, "train").cycles
            autopilot.observe_evaluation({}, {
                "artifact": loser.artifact_id, "case": CASE,
                "machine": MACHINE, "benchmark": bench,
                "dataset": "train", "cycles": cycles})
            if campaign.phase != "canary":
                break

        assert campaign.phase == "rolled_back"
        assert registry.get_channel(CASE, MACHINE,
                                    "stable") == good.artifact_id
        assert registry.get_channel(CASE, MACHINE, "canary") is None
        records = [json.loads(line) for line in
                   (tmp_path / "autopilot"
                    / "decisions.jsonl").read_text().splitlines()]
        assert [r["event"] for r in records] == ["rolled_back"]
        assert records[0]["losses"] >= 3

    def test_inconclusive_canary_fails_safe(self, tmp_path):
        """max_pairs of pure ties (a canary identical in behaviour)
        is not worth keeping: rolled back."""
        registry = ArtifactRegistry(tmp_path / "store")
        good = make_artifact(BASELINE_EXPR, created_at=1.0)
        twin = make_artifact(f"(add 0.0000 {BASELINE_EXPR})",
                             created_at=2.0,
                             parent_id=good.artifact_id)
        registry.save(good)
        registry.save(twin)
        registry.set_channel(CASE, MACHINE, "stable", good.artifact_id)
        registry.set_channel(CASE, MACHINE, "canary", twin.artifact_id)

        config = autopilot_config(tmp_path / "autopilot", max_pairs=3)
        pool = HarnessPool()
        autopilot = Autopilot(config, registry, pool,
                              submit=lambda *a, **k: None)
        campaign = Campaign(
            name="t-0001", case=CASE, machine=MACHINE,
            benchmark="codrle4", dataset="train",
            parent_id=good.artifact_id, trigger_seq=1,
            root=autopilot.campaigns_dir / "t-0001", phase="canary",
            champion_id=twin.artifact_id)
        campaign.save()
        autopilot.campaigns[campaign.name] = campaign

        harness = pool.get(CASE)
        twin_tree = twin.tree()
        for bench in PAIR_BENCHES:
            cycles = harness.simulate(twin_tree, bench, "train").cycles
            autopilot.observe_evaluation({}, {
                "artifact": twin.artifact_id, "case": CASE,
                "machine": MACHINE, "benchmark": bench,
                "dataset": "train", "cycles": cycles})
            if campaign.phase != "canary":
                break
        assert campaign.phase == "rolled_back"
        assert registry.get_channel(CASE, MACHINE,
                                    "stable") == good.artifact_id


class TestTornDecisionJournal:
    def test_restart_cuts_a_torn_record(self, tmp_path):
        """A kill inside an append leaves the journal's last record
        without its newline.  A restarted autopilot cuts it off and
        neither glues its next record onto it nor counts it: every
        line parses and ``seq`` runs 1..n with no gap or repeat."""
        config = autopilot_config(tmp_path / "autopilot")
        first = Autopilot(config, None, None, submit=lambda *a, **k: None)
        for _ in range(2):
            first._record_decision({"event": "probe"})
        journal = tmp_path / "autopilot" / "decisions.jsonl"
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"event": "probe", "schema": 1, "seq": 3')
        restarted = Autopilot(config, None, None,
                              submit=lambda *a, **k: None)
        for _ in range(2):
            restarted._record_decision({"event": "probe"})
        records = [json.loads(line)
                   for line in journal.read_text().splitlines()]
        assert [record["seq"] for record in records] == [1, 2, 3, 4]
