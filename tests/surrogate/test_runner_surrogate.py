"""Runner integration for ``--surrogate``: kill+resume byte-identity,
warm-cache training at startup, surrogate state beside the checkpoint,
and the schema-4 telemetry event.

Campaign execution goes through the shared ``campaign_run`` fixture
(tests/conftest.py) with ``surrogate=True`` runner kwargs.
"""

import json

from repro.experiments import (
    ExperimentConfig,
    ExperimentRunner,
    MemorySink,
)
from repro.gp.engine import GPParams

#: The runner switches every campaign in this module rides.
SURROGATE_KWARGS = dict(surrogate=True, surrogate_top_k=2)


def config(generations=4, fitness_cache_dir=None, seed=0):
    return ExperimentConfig(
        mode="specialize", case="hyperblock", benchmark="codrle4",
        params=GPParams(population_size=8, generations=generations,
                        seed=seed),
        fitness_cache_dir=fitness_cache_dir)


class TestResumeByteIdentity:
    def test_cold_cache_resume_matches_full_run(self, campaign_run):
        # Separate cache dirs per run: a shared cache would hand the
        # resumed run a bigger training corpus than the full run saw.
        # The cache path rides result.json's embedded config, so this
        # comparison drops it and checks everything else.
        base = campaign_run.base
        full = json.loads(campaign_run.run_full(
            config(fitness_cache_dir=str(base / "cache_a")),
            **SURROGATE_KWARGS))
        resumed = json.loads(campaign_run.run_killed_then_resumed(
            config(fitness_cache_dir=str(base / "cache_b")),
            stop_after=1, **SURROGATE_KWARGS))
        assert (base / "killed" / "surrogate.json").exists()
        full.pop("config"), resumed.pop("config")
        assert resumed == full

    def test_no_cache_resume_byte_identical(self, campaign_run):
        full = campaign_run.run_full(config(), **SURROGATE_KWARGS)
        resumed = campaign_run.run_killed_then_resumed(
            config(), stop_after=0, **SURROGATE_KWARGS)
        assert (campaign_run.base / "killed" / "surrogate.json").exists()
        assert resumed == full

    def test_surrogate_state_rides_the_checkpoint(self, campaign_run):
        campaign_run.run_full(config(generations=2), name="run",
                              **SURROGATE_KWARGS)
        state = json.loads(
            (campaign_run.base / "run" / "surrogate.json").read_text())
        assert state["version"] == 2
        assert state["case"] == "hyperblock"
        assert state["top_k"] == 2
        assert state["pairs"]


class TestWarmCacheTraining:
    def test_exact_campaign_trains_the_surrogate(self, campaign_run):
        cache_dir = str(campaign_run.base / "cache")

        def campaign(name, **runner_kwargs):
            sink = MemorySink()
            result = json.loads(campaign_run.run_full(
                config(generations=3, fitness_cache_dir=cache_dir),
                name=name, sinks=(sink,), **runner_kwargs))
            fresh_sims = sum(event["counters"]["sims"]
                             for event in sink.of_type("generation"))
            return result, fresh_sims

        # Exact campaign populates the cache with labeled records...
        exact, exact_sims = campaign("exact")
        # ...so the surrogate campaign starts with a trained model.
        surrogate, surrogate_sims = campaign("run", **SURROGATE_KWARGS)
        state = json.loads(
            (campaign_run.base / "run" / "surrogate.json").read_text())
        assert state["model"] is not None
        assert state["model"]["training_pairs"] >= 8
        # The acceptance bar of docs/SURROGATE.md: the champion's
        # simulator-verified fitness (finalize re-scores it exactly)
        # is at least the exact run's, on fewer fresh simulations.
        assert surrogate["train_speedup"] >= exact["train_speedup"] - 1e-9
        assert surrogate_sims < exact_sims


class TestTelemetry:
    def test_surrogate_events_emitted_under_metrics(self, tmp_path):
        sink = MemorySink()
        ExperimentRunner(config(generations=2),
                         run_dir=tmp_path / "run", surrogate=True,
                         surrogate_top_k=2, collect_metrics=True,
                         sinks=(sink,)).run()
        assert sink.of_type("run_started")[0]["schema"] == 4
        events = sink.of_type("surrogate")
        assert len(events) == 2
        for event in events:
            assert set(event) == {"event", "generation", "sims_saved",
                                  "rank_corr", "refits", "promotions"}

    def test_warm_cache_training_reaches_the_first_metrics_event(
            self, tmp_path):
        """The model trains while the session opens, before any
        generation runs; its counters belong to generation 0."""
        cache_dir = str(tmp_path / "cache")
        ExperimentRunner(config(generations=2, fitness_cache_dir=cache_dir),
                         run_dir=tmp_path / "exact").run()
        sink = MemorySink()
        ExperimentRunner(config(generations=2, fitness_cache_dir=cache_dir),
                         run_dir=tmp_path / "run", collect_metrics=True,
                         sinks=(sink,), **SURROGATE_KWARGS).run()
        first = sink.of_type("metrics")[0]
        assert first["generation"] == 0
        counters = first["metrics"]["counters"]
        assert counters["surrogate.train_scanned"] > 0
        assert counters["surrogate.train_pairs"] > 0

    def test_no_surrogate_events_without_metrics(self, tmp_path):
        sink = MemorySink()
        ExperimentRunner(config(generations=2),
                         run_dir=tmp_path / "run", surrogate=True,
                         surrogate_top_k=2, sinks=(sink,)).run()
        assert sink.of_type("surrogate") == []

    def test_cold_start_matches_exact_run(self, tmp_path):
        """Before the first fit every evaluation is exact, so a short
        cold-start surrogate campaign reproduces the exact campaign's
        result byte for byte."""
        ExperimentRunner(config(generations=2),
                         run_dir=tmp_path / "plain").run()
        ExperimentRunner(config(generations=2), run_dir=tmp_path / "sur",
                         surrogate=True, surrogate_top_k=2).run()
        assert (tmp_path / "plain/result.json").read_bytes() == \
            (tmp_path / "sur/result.json").read_bytes()
