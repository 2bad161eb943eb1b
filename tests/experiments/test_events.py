"""Event sinks and the documented event-stream schema.

The golden field sets below ARE the schema contract of
``docs/EXPERIMENTS_API.md``; a failure here means either a regression
or an intentional schema change that must bump
``repro.experiments.events.SCHEMA_VERSION`` and update the docs.
"""

import json

import pytest

from repro.experiments import (
    ExperimentConfig,
    ExperimentRunner,
    JsonlSink,
    MemorySink,
    MultiSink,
    PrettySink,
)
from repro.gp.engine import GPParams

GOLDEN_FIELDS = {
    "run_started": {"event", "schema", "mode", "case", "resumed",
                    "start_generation", "config"},
    "generation": {"event", "generation", "subset", "best_fitness",
                   "mean_fitness", "best_size", "mean_size",
                   "unique_structures", "baseline_rank",
                   "best_expression", "evaluations_total",
                   "new_evaluations", "counters", "wall_s"},
    "metrics": {"event", "generation", "metrics"},
    "checkpoint_saved": {"event", "generation", "path"},
    "run_interrupted": {"event", "next_generation"},
    "artifact_published": {"event", "artifact_id", "store"},
    "surrogate": {"event", "generation", "sims_saved", "rank_corr",
                  "refits", "promotions"},
    "run_finished": {"event", "result", "wall_s"},
}


def tiny_config(**overrides):
    defaults = dict(
        mode="specialize", case="hyperblock", benchmark="codrle4",
        params=GPParams(population_size=8, generations=2, seed=0))
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def run_events(tmp_path_factory):
    """One tiny persisted run; yields (memory events, jsonl lines)."""
    run_dir = tmp_path_factory.mktemp("events") / "run"
    memory = MemorySink()
    ExperimentRunner(tiny_config(), run_dir=run_dir,
                     sinks=(memory,)).run()
    lines = [json.loads(line) for line in
             (run_dir / "events.jsonl").read_text().splitlines()]
    return memory, lines


class TestSchema:
    def test_event_sequence(self, run_events):
        memory, _ = run_events
        kinds = [event["event"] for event in memory.events]
        assert kinds == ["run_started",
                        "generation", "checkpoint_saved",
                        "generation", "checkpoint_saved",
                        "run_finished"]

    def test_golden_field_sets(self, run_events):
        memory, _ = run_events
        for event in memory.events:
            assert set(event) == GOLDEN_FIELDS[event["event"]], \
                f"schema drift in {event['event']!r}"

    def test_jsonl_mirrors_memory_sink(self, run_events):
        memory, lines = run_events
        assert [e["event"] for e in lines] == \
            [e["event"] for e in memory.events]

    def test_events_json_serializable(self, run_events):
        memory, _ = run_events
        for event in memory.events:
            json.dumps(event)

    def test_generation_events_carry_progress(self, run_events):
        memory, _ = run_events
        generations = memory.of_type("generation")
        assert [e["generation"] for e in generations] == [0, 1]
        for event in generations:
            assert event["best_fitness"] > 0
            assert event["new_evaluations"] >= 0
            assert event["wall_s"] >= 0
            assert isinstance(event["counters"], dict)

    def test_run_finished_embeds_result_payload(self, run_events):
        memory, _ = run_events
        finished = memory.of_type("run_finished")[0]
        assert finished["result"]["mode"] == "specialize"
        assert "train_speedup" in finished["result"]

    def test_schema_version_covers_optional_events(self):
        from repro.experiments.events import EVENT_TYPES, SCHEMA_VERSION

        assert SCHEMA_VERSION == 4
        assert "metrics" in EVENT_TYPES
        assert "artifact_published" in EVENT_TYPES
        assert "surrogate" in EVENT_TYPES
        assert set(EVENT_TYPES) == set(GOLDEN_FIELDS)


class TestMetricsEvents:
    """collect_metrics=True adds per-generation ``metrics`` events."""

    @pytest.fixture(scope="class")
    def metrics_events(self, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("metrics-events") / "run"
        memory = MemorySink()
        ExperimentRunner(tiny_config(), run_dir=run_dir, sinks=(memory,),
                         collect_metrics=True).run()
        return memory

    def test_one_metrics_event_per_generation(self, metrics_events):
        metrics = metrics_events.of_type("metrics")
        generations = metrics_events.of_type("generation")
        assert [e["generation"] for e in metrics] == \
            [e["generation"] for e in generations]

    def test_metrics_event_schema(self, metrics_events):
        for event in metrics_events.of_type("metrics"):
            assert set(event) == GOLDEN_FIELDS["metrics"]
            snapshot = event["metrics"]
            assert set(snapshot) == {"counters", "gauges", "histograms"}
            json.dumps(event)

    def test_metrics_deltas_carry_generation_activity(self, metrics_events):
        first = metrics_events.of_type("metrics")[0]["metrics"]
        assert first["counters"]["gp.evaluations"] > 0
        assert first["counters"]["harness.sims"] > 0
        assert first["gauges"]["gp.best_fitness"] > 0
        assert "gp.eval_seconds" in first["histograms"]

    def test_metrics_disabled_by_default(self, run_events):
        memory, _ = run_events
        assert memory.of_type("metrics") == []

    def test_metrics_never_reach_result_json(self, metrics_events):
        finished = metrics_events.of_type("run_finished")[0]
        assert "metrics" not in finished["result"]


class TestSinks:
    def test_memory_sink_filters(self):
        sink = MemorySink()
        sink.emit({"event": "a"})
        sink.emit({"event": "b"})
        assert len(sink.of_type("a")) == 1

    def test_multi_sink_fans_out(self):
        first, second = MemorySink(), MemorySink()
        multi = MultiSink([first, second])
        multi.emit({"event": "x"})
        assert first.events == second.events == [{"event": "x"}]

    def test_jsonl_sink_appends(self, tmp_path):
        path = tmp_path / "events.jsonl"
        for value in (1, 2):
            sink = JsonlSink(path)
            sink.emit({"event": "tick", "value": value})
            sink.close()
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [line["value"] for line in lines] == [1, 2]

    @pytest.mark.parametrize("before", ([], [1], ["x" * 10_000, 1]),
                             ids=("only-torn", "one-line", "long-lines"))
    def test_jsonl_sink_cuts_a_torn_last_line(self, tmp_path, before):
        """A kill inside an append leaves a last line with no newline;
        reopening cuts it off, so the next record is a line of its own
        and every line parses."""
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        for value in before:
            sink.emit({"event": "tick", "value": value})
        sink.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "tick", "value": "torn' + "y" * 5000)
        sink = JsonlSink(path)
        sink.emit({"event": "tick", "value": 2})
        sink.close()
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [line["value"] for line in lines] == [*before, 2]

    def test_pretty_sink_narrates(self, capsys):
        sink = PrettySink()
        sink.emit({"event": "run_started", "resumed": False,
                   "mode": "specialize", "case": "hyperblock",
                   "start_generation": 0})
        sink.emit({"event": "generation", "generation": 0,
                   "subset": ["codrle4"], "best_fitness": 1.25,
                   "best_size": 3, "new_evaluations": 8,
                   "wall_s": 0.5})
        output = capsys.readouterr().out
        assert "starting specialize run" in output
        assert "best 1.2500" in output


class TestArtifactPublishedEvent:
    """publish_dir=... adds one ``artifact_published`` event (and
    nothing to result.json)."""

    @pytest.fixture(scope="class")
    def publish_events(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("publish-events")
        memory = MemorySink()
        result = ExperimentRunner(tiny_config(), run_dir=base / "run",
                                  sinks=(memory,),
                                  publish_dir=base / "store").run()
        return memory, result, base

    def test_event_emitted_before_run_finished(self, publish_events):
        memory, _, _ = publish_events
        kinds = [event["event"] for event in memory.events]
        assert kinds[-2:] == ["artifact_published", "run_finished"]
        published = memory.of_type("artifact_published")[0]
        assert set(published) == GOLDEN_FIELDS["artifact_published"]

    def test_artifact_lands_in_store_and_result(self, publish_events):
        from repro.serve.registry import ArtifactRegistry

        memory, result, base = publish_events
        published = memory.of_type("artifact_published")[0]
        assert result.artifact_id == published["artifact_id"]
        registry = ArtifactRegistry(base / "store")
        artifact = registry.load(published["artifact_id"])
        assert artifact.case == "hyperblock"
        assert artifact.verify() == []

    def test_result_json_stays_artifact_free(self, publish_events):
        memory, _, base = publish_events
        result_doc = json.loads((base / "run" / "result.json").read_text())
        assert "artifact_id" not in result_doc
        finished = memory.of_type("run_finished")[0]
        assert "artifact_id" not in finished["result"]
