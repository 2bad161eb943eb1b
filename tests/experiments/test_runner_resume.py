"""Resume-equals-uninterrupted determinism, run-directory layout, and
checkpoint plumbing — the acceptance criteria of the experiments
subsystem.  Campaigns here are tiny (pop 8, 2–4 generations) but real:
they compile and simulate actual suite benchmarks.

Campaign execution goes through the shared ``campaign_run`` fixture
(tests/conftest.py), the same driver the fleet and surrogate suites
use.
"""

import json
import os
import shutil
from pathlib import Path

import pytest

from repro.experiments import (
    ExperimentConfig,
    ExperimentRunner,
    MemorySink,
    load_checkpoint,
    run_experiment,
    save_checkpoint,
)
from repro.experiments.checkpoint import atomic_write
from repro.gp.engine import GPParams


def spec_config(generations=4, processes=1, **overrides):
    defaults = dict(
        mode="specialize", case="hyperblock", benchmark="codrle4",
        params=GPParams(population_size=8, generations=generations,
                        seed=0),
        processes=processes)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def gen_config(generations=3):
    return ExperimentConfig(
        mode="generalize", case="hyperblock",
        training_set=("rawcaudio", "codrle4"),
        test_set=("decodrle4",),
        params=GPParams(population_size=8, generations=generations,
                        seed=2),
        subset_size=1)


class TestResumeDeterminism:
    @pytest.mark.parametrize("stop_after", [0, 1, 2])
    def test_serial_resume_byte_identical(self, campaign_run, stop_after):
        config = spec_config()
        full = campaign_run.run_full(config)
        resumed = campaign_run.run_killed_then_resumed(config, stop_after)
        assert resumed == full

    def test_parallel_resume_byte_identical(self, campaign_run):
        config = spec_config(generations=3, processes=2)
        full = campaign_run.run_full(config)
        resumed = campaign_run.run_killed_then_resumed(config,
                                                       stop_after=1)
        assert resumed == full

    def test_serial_and_parallel_agree(self, campaign_run):
        serial = json.loads(campaign_run.run_full(
            spec_config(generations=3), name="serial"))
        parallel = json.loads(campaign_run.run_full(
            spec_config(generations=3, processes=2), name="pool"))
        serial.pop("config"), parallel.pop("config")
        assert serial == parallel

    def test_generalize_dss_resume_byte_identical(self, campaign_run):
        config = gen_config()
        full = campaign_run.run_full(config)
        resumed = campaign_run.run_killed_then_resumed(config,
                                                       stop_after=0)
        assert resumed == full

    def test_double_kill_then_resume(self, campaign_run, tmp_path):
        """Kill, resume, kill again, resume again — each leg continues
        from the latest checkpoint."""
        config = spec_config(generations=4)
        full = campaign_run.run_full(config)
        run_dir = tmp_path / "killed"
        assert ExperimentRunner(
            config, run_dir=run_dir,
            stop_after_generation=0).run().interrupted
        assert ExperimentRunner.from_run_dir(
            run_dir, stop_after_generation=2).run(resume=True).interrupted
        ExperimentRunner.from_run_dir(run_dir).run(resume=True)
        assert (run_dir / "result.json").read_bytes() == full

    def test_keyboard_interrupt_leaves_resumable_checkpoint(
            self, campaign_run, tmp_path):
        """A real interrupt (not the test flag) mid-run still resumes
        bit-identically — the sink raises after the second generation's
        checkpoint is on disk."""
        config = spec_config()
        full = campaign_run.run_full(config)

        class Bomb(MemorySink):
            def emit(self, event):
                super().emit(event)
                if (event["event"] == "generation"
                        and event["generation"] == 1):
                    raise KeyboardInterrupt

        run_dir = tmp_path / "killed"
        with pytest.raises(KeyboardInterrupt):
            ExperimentRunner(config, run_dir=run_dir,
                             sinks=(Bomb(),)).run()
        ExperimentRunner.from_run_dir(run_dir).run(resume=True)
        assert (run_dir / "result.json").read_bytes() == full


class TestRunDirectory:
    def test_layout(self, campaign_run):
        campaign_run.run_full(spec_config(generations=2), name="run")
        run_dir = campaign_run.base / "run"
        assert (run_dir / "config.json").exists()
        assert (run_dir / "events.jsonl").exists()
        assert (run_dir / "checkpoint.pkl").exists()
        assert (run_dir / "result.json").exists()
        snapshots = sorted(
            p.name for p in (run_dir / "populations").iterdir())
        assert snapshots == ["gen_0000.jsonl", "gen_0001.jsonl"]

    def test_population_snapshot_contents(self, campaign_run):
        campaign_run.run_full(spec_config(generations=2), name="run")
        run_dir = campaign_run.base / "run"
        lines = [json.loads(line) for line in
                 (run_dir / "populations/gen_0000.jsonl")
                 .read_text().splitlines()]
        assert len(lines) == 8
        for entry in lines:
            assert entry["expression"]
            assert entry["fitness"] is not None
            assert entry["size"] >= 1

    def test_config_json_reconstructs_config(self, campaign_run):
        config = spec_config(generations=2)
        campaign_run.run_full(config, name="run")
        restored = ExperimentConfig.from_json_dict(
            json.loads((campaign_run.base / "run" / "config.json")
                       .read_text()))
        assert restored == config

    def test_fresh_start_into_used_dir_refused(self, campaign_run):
        run_dir = campaign_run.base / "run"
        campaign_run.run_full(spec_config(generations=2), name="run")
        with pytest.raises(FileExistsError):
            ExperimentRunner(spec_config(generations=2),
                             run_dir=run_dir).run()

    def test_resume_without_checkpoint_refused(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ExperimentRunner(spec_config(), run_dir=tmp_path / "empty") \
                .run(resume=True)

    def test_resume_without_run_dir_refused(self):
        with pytest.raises(ValueError):
            ExperimentRunner(spec_config()).run(resume=True)

    def test_resume_with_mismatched_config_refused(self, tmp_path):
        run_dir = tmp_path / "run"
        assert ExperimentRunner(spec_config(), run_dir=run_dir,
                                stop_after_generation=0).run().interrupted
        other = spec_config(params=GPParams(population_size=8,
                                            generations=4, seed=1))
        with pytest.raises(ValueError):
            ExperimentRunner(other, run_dir=run_dir).run(resume=True)

    def test_resume_finished_run_rewrites_identical_result(
            self, campaign_run):
        run_dir = campaign_run.base / "run"
        first = campaign_run.run_full(spec_config(generations=2),
                                      name="run")
        ExperimentRunner.from_run_dir(run_dir).run(resume=True)
        assert (run_dir / "result.json").read_bytes() == first


class TestWithoutRunDir:
    def test_in_memory_run(self):
        memory = MemorySink()
        outcome = run_experiment(spec_config(generations=2),
                                 sinks=(memory,))
        assert outcome.payload["mode"] == "specialize"
        assert outcome.specialization.train_speedup >= 1.0 - 1e-9
        assert memory.of_type("generation")

    def test_matches_manual_specialize_pipeline(self):
        from repro.metaopt.harness import EvaluationHarness, case_study
        from repro.metaopt.specialize import (
            build_specialize_engine,
            finalize_specialization,
        )

        config = spec_config(generations=2)
        outcome = run_experiment(config)
        harness = EvaluationHarness(case_study("hyperblock"))
        engine = build_specialize_engine(harness.case, "codrle4",
                                         config.params, harness)
        manual = finalize_specialization(harness, "codrle4", engine.run())
        assert outcome.specialization.best_expression == \
            manual.best_expression
        assert outcome.specialization.train_speedup == \
            manual.train_speedup

    def test_matches_manual_generalize_pipeline(self):
        from repro.metaopt.generalize import (
            build_generalize_engine,
            finalize_generalization,
        )
        from repro.metaopt.harness import EvaluationHarness, case_study

        config = gen_config(generations=2)
        outcome = run_experiment(config)
        harness = EvaluationHarness(case_study("hyperblock"))
        engine = build_generalize_engine(
            harness.case, tuple(config.training_set), config.params,
            harness, subset_size=config.subset_size)
        manual = finalize_generalization(harness.case, harness,
                                         tuple(config.training_set),
                                         engine.run())
        assert outcome.generalization.best_expression == \
            manual.best_expression

    def test_serial_session_holds_and_closes_a_harness_evaluator(
            self, monkeypatch):
        """A serial campaign's evaluator is the session's harness
        itself — no wrapper — and ``close()`` closes it, once."""
        from repro.metaopt.harness import EvaluationHarness

        closed = []
        monkeypatch.setattr(EvaluationHarness, "close",
                            lambda evaluator: closed.append(evaluator))
        session = ExperimentRunner(spec_config(generations=1)).open_session()
        evaluator = session.evaluator
        assert evaluator is session.harness
        assert session.engine.evaluator is evaluator
        session.close()
        session.close()
        assert len(closed) == 1 and closed[0] is evaluator


class TestFailedOpen:
    """A session whose open raises releases what it took: the
    evaluator, the sinks it owns and a metrics registry it enabled."""

    @pytest.fixture(autouse=True)
    def metrics_off(self):
        from repro import obs

        obs.disable_metrics()
        yield
        obs.disable_metrics()

    def test_bad_fleet_spec_touches_nothing(self, tmp_path):
        from repro import obs
        from repro.fleet import FleetError

        run_dir = tmp_path / "run"
        with pytest.raises(FleetError):
            ExperimentRunner(spec_config(generations=1), run_dir=run_dir,
                             collect_metrics=True, fleet="nohost").run()
        assert not run_dir.exists()
        assert not obs.metrics_enabled()

    def test_mismatched_resume_releases_metrics_sink_and_evaluator(
            self, tmp_path, monkeypatch):
        from repro import obs
        from repro.experiments.events import JsonlSink
        from repro.metaopt.harness import EvaluationHarness

        run_dir = tmp_path / "run"
        ExperimentRunner(spec_config(generations=2), run_dir=run_dir,
                         stop_after_generation=0).run()
        checkpoint = load_checkpoint(run_dir / "checkpoint.pkl")
        save_checkpoint(run_dir / "checkpoint.pkl",
                        {**checkpoint["config"], "case": "regalloc"},
                        checkpoint["engine"])
        sinks, closed = [], []
        real_init = JsonlSink.__init__

        def tracking_init(sink, *args, **kwargs):
            real_init(sink, *args, **kwargs)
            sinks.append(sink)

        monkeypatch.setattr(JsonlSink, "__init__", tracking_init)
        monkeypatch.setattr(EvaluationHarness, "close",
                            lambda evaluator: closed.append(evaluator))
        with pytest.raises(ValueError, match="different configuration"):
            ExperimentRunner.from_run_dir(
                run_dir, collect_metrics=True).run(resume=True)
        assert not obs.metrics_enabled()
        assert len(sinks) == 1 and sinks[0]._handle.closed
        assert len(closed) == 1


class TestCheckpointFile:
    def test_atomic_round_trip(self, tmp_path):
        path = tmp_path / "checkpoint.pkl"
        save_checkpoint(path, {"case": "hyperblock"}, {"generation": 3})
        payload = load_checkpoint(path)
        assert payload["config"] == {"case": "hyperblock"}
        assert payload["engine"] == {"generation": 3}
        assert [entry.name for entry in tmp_path.iterdir()] == \
            ["checkpoint.pkl"]

    def test_failed_write_keeps_old_bytes_and_no_temp_file(
            self, tmp_path, monkeypatch):
        """A failure between the write and the rename leaves the
        target as it was and removes the temp file."""
        path = tmp_path / "result.json"
        path.write_bytes(b"old")

        def fail(src, dst):
            assert Path(src).read_bytes() == b"new"
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk gone"):
            atomic_write(path, b"new")
        assert path.read_bytes() == b"old"
        assert [entry.name for entry in tmp_path.iterdir()] == \
            ["result.json"]

    def test_run_state_is_fsynced_and_cache_entries_are_not(
            self, tmp_path, monkeypatch):
        """Every file a run keeps is fsynced once per write, before its
        rename; a fitness-cache entry, which a later miss rewrites, is
        renamed unsynced."""
        from repro.experiments import checkpoint

        real_open, real_fsync, real_replace = open, os.fsync, os.replace
        opened, synced, writes = {}, [], []

        def recording_open(path, *args, **kwargs):
            handle = real_open(path, *args, **kwargs)
            opened[handle.fileno()] = Path(path)
            return handle

        def recording_fsync(fd):
            synced.append(opened[fd])
            real_fsync(fd)

        def recording_replace(src, dst):
            # the fsyncs of the temp file being renamed
            writes.append((Path(dst), synced.count(Path(src))))
            synced[:] = [path for path in synced if path != Path(src)]
            real_replace(src, dst)

        monkeypatch.setattr(checkpoint, "open", recording_open,
                            raising=False)
        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        cache = tmp_path / "cache"
        run_dir = tmp_path / "run"
        config = ExperimentConfig(
            mode="specialize", case="hyperblock", benchmark="codrle4",
            params=GPParams(population_size=4, generations=2, seed=0),
            fitness_cache_dir=str(cache))
        ExperimentRunner(config, run_dir=run_dir).run()

        assert synced == []
        entries = [fsyncs for path, fsyncs in writes
                   if cache in path.parents]
        kept = sorted((path.relative_to(run_dir).as_posix(), fsyncs)
                      for path, fsyncs in writes if run_dir in path.parents)
        assert len(kept) + len(entries) == len(writes)
        assert entries and set(entries) == {0}
        assert kept == [("checkpoint.pkl", 1), ("checkpoint.pkl", 1),
                        ("config.json", 1),
                        ("populations/gen_0000.jsonl", 1),
                        ("populations/gen_0001.jsonl", 1),
                        ("result.json", 1)]

    def test_version_check(self, tmp_path):
        import pickle

        path = tmp_path / "checkpoint.pkl"
        path.write_bytes(pickle.dumps({"version": 99}))
        with pytest.raises(ValueError):
            load_checkpoint(path)


#: The first write of each file a ``--fitness-cache`` campaign keeps,
#: in the order the campaign makes them.
KILL_TARGETS = {
    "config.json": lambda path: path.name == "config.json",
    "fitness-cache entry": lambda path: path.parent.parent.name == "cache",
    "populations/gen_0000.jsonl": lambda path: path.name == "gen_0000.jsonl",
    "checkpoint.pkl": lambda path: path.name == "checkpoint.pkl",
    "result.json": lambda path: path.name == "result.json",
}


class TestKillAfterWrite:
    """A kill right after any write a campaign makes, injected at the
    one write path, recovers to the uninterrupted run's bytes."""

    @pytest.mark.parametrize("target", list(KILL_TARGETS))
    def test_recovery_is_byte_identical(self, tmp_path, kill_after_write,
                                        target):
        # one cache path for both runs (it is in result.json's config),
        # emptied between them so the killed run writes every entry
        cache = tmp_path / "cache"
        config = ExperimentConfig(
            mode="specialize", case="hyperblock", benchmark="codrle4",
            params=GPParams(population_size=4, generations=2, seed=0),
            fitness_cache_dir=str(cache))
        full = tmp_path / "full"
        ExperimentRunner(config, run_dir=full).run()
        shutil.rmtree(cache)

        run_dir = tmp_path / "killed"
        killed = kill_after_write(KILL_TARGETS[target])
        with pytest.raises(KeyboardInterrupt):
            ExperimentRunner(config, run_dir=run_dir).run()
        assert killed
        # a kill before the first checkpoint leaves nothing to resume:
        # the same command starts the run again
        if (run_dir / "checkpoint.pkl").exists():
            ExperimentRunner.from_run_dir(run_dir).run(resume=True)
        else:
            ExperimentRunner(config, run_dir=run_dir).run()
        assert (run_dir / "result.json").read_bytes() == \
            (full / "result.json").read_bytes()
