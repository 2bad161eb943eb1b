"""Runner integration for ``--surrogate``: kill+resume byte-identity,
warm-cache training at startup, surrogate state beside the checkpoint,
and the schema-4 telemetry event.

Campaign execution goes through the shared ``campaign_run`` fixture
(tests/conftest.py) with ``surrogate=True`` runner kwargs.
"""

import json

import pytest

from repro.experiments import (
    ExperimentConfig,
    ExperimentRunner,
    MemorySink,
    load_checkpoint,
    runner as runner_module,
    save_checkpoint,
)
from repro.gp.engine import GPParams

#: The runner switches every campaign in this module rides.
SURROGATE_KWARGS = dict(surrogate=True, surrogate_top_k=2)


def config(generations=4, fitness_cache_dir=None, seed=0):
    return ExperimentConfig(
        mode="specialize", case="regalloc", benchmark="codrle4",
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
        assert "surrogate" in load_checkpoint(
            base / "killed" / "checkpoint.pkl")
        full.pop("config"), resumed.pop("config")
        assert resumed == full

    def test_no_cache_resume_byte_identical(self, campaign_run):
        full = campaign_run.run_full(config(), **SURROGATE_KWARGS)
        resumed = campaign_run.run_killed_then_resumed(
            config(), stop_after=0, **SURROGATE_KWARGS)
        assert "surrogate" in load_checkpoint(
            campaign_run.base / "killed" / "checkpoint.pkl")
        assert resumed == full

    def test_surrogate_state_rides_the_checkpoint(self, campaign_run):
        campaign_run.run_full(config(generations=2), name="run",
                              **SURROGATE_KWARGS)
        state = load_checkpoint(
            campaign_run.base / "run" / "checkpoint.pkl")["surrogate"]
        assert state["version"] == 2
        assert state["case"] == "regalloc"
        assert state["top_k"] == 2
        assert state["pairs"]

    def test_kill_right_after_a_checkpoint_write_keeps_the_state_in_step(
            self, campaign_run, monkeypatch):
        """A kill that lands right after generation 1's checkpoint is
        written: the surrogate's state went out in that same write, so
        the resumed run ends with the uninterrupted run's state and
        bytes."""
        base = campaign_run.base
        full = campaign_run.run_full(config(), **SURROGATE_KWARGS)

        def save_then_die(path, config_dict, engine_state, *rest):
            save_checkpoint(path, config_dict, engine_state, *rest)
            # the engine is at generation 2 once generation 1 is done
            if engine_state["generation"] == 2:
                raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(runner_module, "save_checkpoint", save_then_die)
            with pytest.raises(KeyboardInterrupt):
                ExperimentRunner(config(), run_dir=base / "killed",
                                 **SURROGATE_KWARGS).run()
        ExperimentRunner.from_run_dir(
            base / "killed", **SURROGATE_KWARGS).run(resume=True)

        assert (base / "killed" / "result.json").read_bytes() == full
        assert load_checkpoint(base / "killed" / "checkpoint.pkl")[
            "surrogate"] == load_checkpoint(
                base / "full" / "checkpoint.pkl")["surrogate"]

    def test_checkpoint_without_the_entry_trains_from_the_cache(
            self, campaign_run):
        """A run directory from before the state rode the checkpoint:
        resume trains the model from the cache, as a fresh run does."""
        cache_dir = str(campaign_run.base / "cache")
        campaign_run.run_full(config(generations=2,
                                     fitness_cache_dir=cache_dir),
                              name="exact")
        run_dir = campaign_run.base / "old"
        ExperimentRunner(config(fitness_cache_dir=cache_dir),
                         run_dir=run_dir, stop_after_generation=0,
                         **SURROGATE_KWARGS).run()
        checkpoint = run_dir / "checkpoint.pkl"
        payload = load_checkpoint(checkpoint)
        del payload["surrogate"]
        save_checkpoint(checkpoint, payload["config"], payload["engine"])

        ExperimentRunner.from_run_dir(
            run_dir, **SURROGATE_KWARGS).run(resume=True)
        state = load_checkpoint(checkpoint)["surrogate"]
        assert state["model"] is not None
        assert state["model"]["training_pairs"] >= 8


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
        state = load_checkpoint(
            campaign_run.base / "run" / "checkpoint.pkl")["surrogate"]
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
