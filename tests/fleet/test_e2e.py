"""End-to-end fleet runs against real ``repro serve`` daemons.

The contract under test is docs/FLEET.md's headline guarantee: a
``--fleet`` campaign produces a ``result.json`` byte-identical to the
serial run — including when one of the workers is SIGKILLed under a
live coordinator, and when the coordinator itself is killed and
resumed.  The daemons are two in-process :class:`ReproServer`
instances; the worker-loss test starts one ``repro serve`` child of its
own, because only a process can really die.

Campaign execution goes through the shared
:class:`tests.conftest.CampaignDriver`, the same driver the
experiments and surrogate suites use via the ``campaign_run`` fixture.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig
from repro.fleet import FleetEvaluator
from repro.gp.engine import GPParams
from repro.gp.generate import TreeGenerator
from repro.gp.select import Individual
from repro.metaopt.harness import EvaluationHarness, case_study
from repro.metaopt.settings import EvalSettings
from repro.serve.server import ReproServer
from tests.conftest import CampaignDriver

BENCHMARK = "codrle4"
REPO_ROOT = Path(__file__).resolve().parents[2]


def campaign_config() -> ExperimentConfig:
    return ExperimentConfig(
        mode="specialize",
        case="hyperblock",
        benchmark=BENCHMARK,
        params=GPParams(population_size=6, generations=2, seed=0),
    )


def address(server: ReproServer) -> str:
    return f"{server.host}:{server.port}"


@pytest.fixture(scope="module")
def daemons():
    """Two running daemons, as someone else would have started them."""
    servers = [ReproServer(port=0, workers=1) for _ in range(2)]
    for server in servers:
        server.start()
    yield servers
    for server in servers:
        server.drain(timeout=30.0)


@pytest.fixture(scope="module")
def fleet_spec(daemons):
    return ",".join(address(server) for server in daemons)


@pytest.fixture(scope="module")
def serial_result(tmp_path_factory):
    driver = CampaignDriver(tmp_path_factory.mktemp("serial"))
    return driver.run_full(campaign_config())


class TestByteIdentity:
    def test_fleet_campaign_matches_serial(self, campaign_run,
                                           serial_result, fleet_spec):
        fleet_result = campaign_run.run_full(campaign_config(),
                                             name="fleet",
                                             fleet=fleet_spec)
        assert fleet_result == serial_result

    def test_coordinator_kill_and_resume_matches_serial(
            self, campaign_run, serial_result, fleet_spec):
        """Stop the coordinator after generation 0 (the deterministic
        stand-in for SIGKILL), then resume — still on the fleet."""
        resumed = campaign_run.run_killed_then_resumed(
            campaign_config(), stop_after=0, name="resumed",
            fleet=fleet_spec)
        assert resumed == serial_result


class TestWorkerLossMidGeneration:
    def test_sigkill_one_of_two_workers_is_invisible(self, daemons,
                                                     tmp_path):
        """SIGKILL one of two workers after the fleet connected and
        before the batch: the coordinator still counts it alive, so its
        first shard fails in flight, the worker is retired and the
        shard redispatched.  Every value must still match the serial
        harness bit-for-bit."""
        case = case_study("hyperblock")
        trees = TreeGenerator(case.pset,
                              random.Random(7)).ramped_half_and_half(
                                  10, 2, 4)
        jobs = [(Individual(tree=tree), BENCHMARK) for tree in trees]
        expected = EvaluationHarness(case, EvalSettings()).evaluate_batch(
            jobs)

        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
                   REPRO_ARTIFACT_STORE=str(tmp_path / "store"))
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1"],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        try:
            banner = victim.stdout.readline()
            assert banner.startswith("serving on http://")
            spec = banner.split()[2].removeprefix("http://") + "," \
                + address(daemons[0])
            with FleetEvaluator(EvaluationHarness(case), spec) as fleet:
                victim.kill()
                victim.wait()
                got = fleet.evaluate_batch(jobs)
                stats = fleet.stats()
        finally:
            victim.kill()
            victim.wait()
            victim.stdout.close()

        assert got == expected
        assert stats["workers_lost"] == 1
        assert stats["jobs_dispatched"] == len(jobs)


class TestFleetEvents:
    def test_fleet_counters_reach_generation_events(self, campaign_run,
                                                    daemons):
        """Campaign telemetry carries the fleet's dispatch counters."""
        campaign_run.run_full(campaign_config(), name="events",
                              fleet=address(daemons[0]))
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
