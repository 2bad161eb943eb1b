"""End-to-end fleet runs with real ``repro serve`` subprocess workers.

The contract under test is docs/FLEET.md's headline guarantee: a
``--fleet`` campaign produces a ``result.json`` byte-identical to the
serial run — including when one of the workers is SIGKILLed under a
live coordinator, and when the coordinator itself is killed and
resumed.

Campaign execution goes through the shared
:class:`tests.conftest.CampaignDriver`, the same driver the
experiments and surrogate suites use via the ``campaign_run`` fixture.
"""

import json
import random

import pytest

from repro.experiments import ExperimentConfig
from repro.fleet import FleetEvaluator
from repro.gp.engine import GPParams
from repro.gp.generate import TreeGenerator
from repro.metaopt.harness import EvaluationHarness, case_study
from repro.metaopt.settings import EvalSettings
from tests.conftest import CampaignDriver

BENCHMARK = "codrle4"


def campaign_config() -> ExperimentConfig:
    return ExperimentConfig(
        mode="specialize",
        case="hyperblock",
        benchmark=BENCHMARK,
        params=GPParams(population_size=6, generations=2, seed=0),
    )


@pytest.fixture(scope="module")
def serial_result(tmp_path_factory):
    driver = CampaignDriver(tmp_path_factory.mktemp("serial"))
    return driver.run_full(campaign_config())


class TestByteIdentity:
    def test_fleet_campaign_matches_serial(self, campaign_run,
                                           serial_result):
        fleet_result = campaign_run.run_full(campaign_config(),
                                             name="fleet",
                                             fleet="local:2")
        assert fleet_result == serial_result

    def test_coordinator_kill_and_resume_matches_serial(
            self, campaign_run, serial_result):
        """Stop the coordinator after generation 0 (the deterministic
        stand-in for SIGKILL), then resume — still on the fleet."""
        resumed = campaign_run.run_killed_then_resumed(
            campaign_config(), stop_after=0, name="resumed",
            fleet="local:2")
        assert resumed == serial_result


class TestWorkerLossMidGeneration:
    def test_sigkill_one_of_two_workers_is_invisible(self):
        """SIGKILL one of two workers after the fleet connected and
        before the batch: the coordinator still counts it alive, so its
        first shard fails in flight, the worker is retired and the
        shard redispatched.  Every value must still match the serial
        harness bit-for-bit."""
        case = case_study("hyperblock")
        trees = TreeGenerator(case.pset,
                              random.Random(7)).ramped_half_and_half(
                                  10, 2, 4)
        jobs = [(tree, BENCHMARK) for tree in trees]
        expected = EvaluationHarness(case, EvalSettings()).evaluator(
            "train").evaluate_batch(jobs)

        with FleetEvaluator(EvaluationHarness(case), "local:2") as fleet:
            victim = fleet.start()[0].process
            victim.process.kill()
            victim.process.wait()
            got = fleet.evaluate_batch(jobs)
            stats = fleet.stats()

        assert got == expected
        assert stats["workers_lost"] == 1
        assert stats["jobs_dispatched"] == len(jobs)


class TestFleetEvents:
    def test_fleet_counters_reach_generation_events(self, campaign_run):
        """Campaign telemetry carries the fleet's dispatch counters."""
        campaign_run.run_full(campaign_config(), name="events",
                              fleet="local:1")
        events = [json.loads(line) for line in
                  (campaign_run.base / "events" / "events.jsonl")
                  .read_text().splitlines()]
        generations = [e for e in events if e["event"] == "generation"]
        assert generations
        # Per-generation counters are deltas; the first generation
        # dispatches every shard it evaluates.
        counters = generations[0]["counters"]
        assert counters["shards_dispatched"] > 0
        assert counters["jobs_dispatched"] > 0
