"""The checkpointable experiment runner.

:class:`ExperimentRunner` executes a specialize or generalize campaign
described by an :class:`~repro.experiments.config.ExperimentConfig`
inside a *run directory*::

    runs/<name>/
        config.json          the campaign description (self-describing)
        events.jsonl         append-only structured telemetry
        checkpoint.pkl       atomic snapshot after each generation
        populations/         per-generation population dumps (JSONL)
        result.json          final scores, canonical JSON

Checkpoints capture the full engine state (population, RNG, fitness
memo, DSS state, history), so a run killed at any generation and
restarted with ``resume=True`` produces a ``result.json`` byte-identical
to the uninterrupted run — for the serial and the process-pool
evaluator alike.  Without a run directory the runner still works
(events to the given sinks, no persistence) — handy for tests and
one-off in-memory campaigns.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.checkpoint import (
    atomic_write,
    load_checkpoint,
    save_checkpoint,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.events import (
    SCHEMA_VERSION,
    EventSink,
    JsonlSink,
    MultiSink,
)

#: Version stamp of the ``result.json`` payload.
RESULT_SCHEMA = 1

CONFIG_FILENAME = "config.json"
EVENTS_FILENAME = "events.jsonl"
CHECKPOINT_FILENAME = "checkpoint.pkl"
RESULT_FILENAME = "result.json"
POPULATIONS_DIRNAME = "populations"


def _canonical_json(data: dict) -> bytes:
    """The bytes of ``config.json`` and ``result.json``."""
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()


@dataclass
class ExperimentResult:
    """What :meth:`ExperimentRunner.run` hands back.

    ``interrupted`` runs carry no scores — only ``next_generation``,
    the generation a resume will continue from.  Finished runs carry
    the mode-specific result object plus ``payload``, the exact dict
    serialized to ``result.json``.
    """

    config: ExperimentConfig
    run_dir: Path | None
    resumed: bool
    interrupted: bool = False
    next_generation: int | None = None
    specialization: object | None = None
    generalization: object | None = None
    cross_validation: object | None = None
    payload: dict | None = None
    #: content address of the heuristic artifact written at campaign
    #: end (``publish_dir`` set and the run finished), else None
    artifact_id: str | None = None


class ExperimentRunner:
    """Drives one campaign; every future scaling layer plugs in here."""

    def __init__(
        self,
        config: ExperimentConfig,
        run_dir=None,
        sinks: tuple[EventSink, ...] = (),
        harness=None,
        stop_after_generation: int | None = None,
        collect_metrics: bool = False,
        publish_dir=None,
        fleet: str | None = None,
        surrogate: bool = False,
        surrogate_top_k: int = 8,
        publish_parent_id: str | None = None,
        publish_created_at: float | None = None,
    ) -> None:
        self.config = config
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.sinks = tuple(sinks)
        self._harness = harness
        #: deterministic interruption point (0-based generation index);
        #: the runner checkpoints that generation and stops as if
        #: killed — the testable stand-in for a real SIGKILL.
        self.stop_after_generation = stop_after_generation
        #: emit a per-generation ``metrics`` event (repro.obs snapshot
        #: delta).  A runner-level switch, not an ExperimentConfig
        #: field: metrics are observational, never part of the
        #: run's identity or its result.json.
        self.collect_metrics = collect_metrics
        #: artifact store directory: when set, the best evolved
        #: expression is packaged as a content-addressed
        #: :class:`~repro.serve.artifact.HeuristicArtifact` at campaign
        #: end.  Runner-level like ``collect_metrics`` — publishing is
        #: a deployment side effect, never part of the run's identity,
        #: so result.json (and resume byte-identity) are unaffected.
        self.publish_dir = publish_dir
        #: fleet spec (``"host:port,..."``): shard each generation
        #: across running serve daemons (docs/FLEET.md).  Runner-level
        #: like ``collect_metrics`` — the fleet is bit-identical to serial
        #: evaluation, so it describes *where* a run executes, never
        #: *what* it computes, and a resume may use a different fleet
        #: (or none) without perturbing result.json.
        self.fleet = fleet
        #: learned surrogate fitness (docs/SURROGATE.md): prescreen
        #: each generation with a model trained from the persistent
        #: fitness cache and simulate only the top of the ranking.
        #: Runner-level like ``fleet`` — never in config.json — but
        #: unlike the other switches it changes the search trajectory
        #: (tail fitnesses are predictions), so a resumed run must use
        #: the same flag as the original; the surrogate's own state
        #: rides ``checkpoint.pkl`` (its ``surrogate`` entry) to keep
        #: kill+resume byte-identical.
        self.surrogate = surrogate
        self.surrogate_top_k = surrogate_top_k
        #: lineage of a published artifact: the autopilot stamps the
        #: incumbent champion's id as the child's parent and pins
        #: ``created_at`` so a resumed campaign publishes the same
        #: content address.  Runner-level like ``publish_dir`` —
        #: deployment metadata, never part of the run's identity.
        self.publish_parent_id = publish_parent_id
        self.publish_created_at = publish_created_at
        #: the live SurrogateEvaluator of the current run (telemetry)
        self._surrogate_evaluator = None

    @classmethod
    def from_run_dir(cls, run_dir, **runner_options) -> "ExperimentRunner":
        """Reconstruct a runner from a run directory's ``config.json``
        (the entry point of ``--resume``); ``runner_options`` are the
        constructor's keywords."""
        run_dir = Path(run_dir)
        config_path = run_dir / CONFIG_FILENAME
        if not config_path.exists():
            raise FileNotFoundError(
                f"{config_path} not found — not a run directory")
        config = ExperimentConfig.from_json_dict(
            json.loads(config_path.read_text()))
        return cls(config, run_dir=run_dir, **runner_options)

    # -- assembly --------------------------------------------------------
    def _settings(self):
        from repro.metaopt.settings import EvalSettings

        return EvalSettings(
            noise_stddev=self.config.noise_stddev,
            fitness_cache_dir=self.config.fitness_cache_dir,
            verify_outputs=self.config.verify_outputs,
        )

    def _build_harness(self):
        from repro.metaopt.harness import EvaluationHarness, case_study

        if self._harness is not None:
            return self._harness
        return EvaluationHarness(case_study(self.config.case),
                                 self._settings())

    def _build_surrogate(self, harness, inner, state: dict | None):
        """Wrap ``inner`` (or the serial harness evaluator) in a
        :class:`~repro.surrogate.SurrogateEvaluator`.  ``state`` is the
        checkpoint's ``surrogate`` entry on resume; without one (a
        fresh run, or a checkpoint written before the entry existed)
        the initial model trains from the harness's persistent fitness
        cache."""
        from repro.surrogate import SurrogateEvaluator, train_from_cache

        if inner is None:
            inner = harness.evaluator("train")
        model = None
        if state is None and harness.fitness_cache is not None:
            model, _report = train_from_cache(
                harness.fitness_cache, harness.case)
        surrogate = SurrogateEvaluator(
            inner, self.config.case, model,
            top_k=self.surrogate_top_k,
            seed=self.config.params.seed)
        if state is not None:
            surrogate.restore_state(state)
        self._surrogate_evaluator = surrogate
        return surrogate

    def _extra_seeds(self, harness):
        if not self.config.seed_expressions:
            return ()
        from repro.gp.parse import parse

        pset = harness.case.pset
        return tuple(parse(text, pset.bool_feature_set())
                     for text in self.config.seed_expressions)

    def _build_engine(self, harness, evaluator):
        config = self.config
        extra_seeds = self._extra_seeds(harness)
        if config.mode == "specialize":
            from repro.metaopt.specialize import build_specialize_engine

            return build_specialize_engine(
                harness.case, config.benchmark, config.params, harness,
                seed_baseline=config.seed_baseline, evaluator=evaluator,
                extra_seeds=extra_seeds,
            )
        from repro.metaopt.generalize import build_generalize_engine

        return build_generalize_engine(
            harness.case, config.training_set, config.params, harness,
            subset_size=config.subset_size,
            seed_baseline=config.seed_baseline, evaluator=evaluator,
            extra_seeds=extra_seeds,
        )

    def _finalize(self, harness, gp_result):
        config = self.config
        if config.mode == "specialize":
            from repro.metaopt.specialize import finalize_specialization

            spec = finalize_specialization(harness, config.benchmark,
                                           gp_result)
            return spec, None, None
        from repro.metaopt.generalize import (
            cross_validate,
            finalize_generalization,
        )

        gen = finalize_generalization(
            harness.case, harness, config.training_set, gp_result,
            seed_baseline=config.seed_baseline,
        )
        cross = None
        if config.test_set:
            cross = cross_validate(harness.case, gen.best_tree,
                                   config.test_set, harness=harness)
        return None, gen, cross

    # -- run-dir plumbing -------------------------------------------------
    def _prepare_run_dir(self, resume: bool):
        checkpoint_path = self.run_dir / CHECKPOINT_FILENAME
        self.run_dir.mkdir(parents=True, exist_ok=True)
        if resume:
            if not checkpoint_path.exists():
                raise FileNotFoundError(
                    f"cannot resume: {checkpoint_path} does not exist")
        else:
            if checkpoint_path.exists():
                raise FileExistsError(
                    f"{self.run_dir} already holds a run — pass "
                    "resume=True (--resume) to continue it, or choose "
                    "a fresh run directory")
            atomic_write(self.run_dir / CONFIG_FILENAME,
                         _canonical_json(self.config.to_json_dict()))
        (self.run_dir / POPULATIONS_DIRNAME).mkdir(exist_ok=True)
        return checkpoint_path

    def _snapshot_population(self, generation: int, population) -> None:
        from repro.gp.genome import expression_text

        lines = [
            json.dumps({
                "index": index,
                "expression": expression_text(individual.tree),
                "fitness": individual.fitness,
                "origin": individual.origin,
                "size": individual.size,
            }, sort_keys=True) + "\n"
            for index, individual in enumerate(population)
        ]
        atomic_write(self.run_dir / POPULATIONS_DIRNAME /
                     f"gen_{generation:04d}.jsonl",
                     "".join(lines).encode())

    def _counters(self, harness, evaluator) -> dict[str, int]:
        counters = dict(harness.stats())
        if evaluator is not None:
            counters.update(evaluator.stats())
        return counters

    # -- result payload ----------------------------------------------------
    def _history_payload(self, history) -> list[dict]:
        return [
            {
                "generation": stats.generation,
                "subset": list(stats.subset),
                "best_fitness": stats.best_fitness,
                "mean_fitness": stats.mean_fitness,
                "best_size": stats.best_size,
                "mean_size": stats.mean_size,
                "unique_structures": stats.unique_structures,
                "baseline_rank": stats.baseline_rank,
                "best_expression": stats.best_expression,
            }
            for stats in history
        ]

    def _result_payload(self, spec, gen, cross) -> dict:
        config = self.config
        payload = {
            "schema": RESULT_SCHEMA,
            "mode": config.mode,
            "case": config.case,
            "config": config.to_json_dict(),
        }
        if spec is not None:
            payload.update({
                "benchmark": spec.benchmark,
                "best_expression": spec.best_expression,
                "train_speedup": spec.train_speedup,
                "novel_speedup": spec.novel_speedup,
                "baseline_cycles_train": spec.baseline_cycles_train,
                "best_cycles_train": spec.best_cycles_train,
                "evaluations": spec.evaluations,
                "history": self._history_payload(spec.history),
            })
        if gen is not None:
            payload.update({
                "best_expression": gen.best_expression,
                "training": [
                    {
                        "benchmark": score.benchmark,
                        "train_speedup": score.train_speedup,
                        "novel_speedup": score.novel_speedup,
                    }
                    for score in gen.training
                ],
                "average_train_speedup": gen.average_train_speedup(),
                "average_novel_speedup": gen.average_novel_speedup(),
                "evaluations": gen.evaluations,
                "history": self._history_payload(gen.history),
            })
            payload["cross_validation"] = None if cross is None else {
                "machine": cross.machine_name,
                "scores": [
                    {
                        "benchmark": score.benchmark,
                        "train_speedup": score.train_speedup,
                        "novel_speedup": score.novel_speedup,
                    }
                    for score in cross.scores
                ],
                "average_train_speedup": cross.average_train_speedup(),
                "average_novel_speedup": cross.average_novel_speedup(),
            }
        return payload

    # -- publish -----------------------------------------------------------
    def _publish(self, harness, spec, gen) -> str:
        """Package the campaign's best expression as a heuristic
        artifact in ``publish_dir``; returns the artifact id."""
        from repro.serve.artifact import build_artifact
        from repro.serve.registry import ArtifactRegistry

        config = self.config
        if spec is not None:
            expression = spec.best_expression
            metrics = {
                "benchmark": spec.benchmark,
                "train_speedup": spec.train_speedup,
                "novel_speedup": spec.novel_speedup,
                "evaluations": spec.evaluations,
            }
        else:
            expression = gen.best_expression
            metrics = {
                "training_set": list(config.training_set),
                "average_train_speedup": gen.average_train_speedup(),
                "average_novel_speedup": gen.average_novel_speedup(),
                "evaluations": gen.evaluations,
            }
        # deliberately no run_dir here: an absolute host path inside a
        # portable content-addressed document would make the artifact
        # id depend on where the campaign happened to run (provenance
        # lives in the run directory's result.json and the channel log)
        artifact = build_artifact(
            case=config.case,
            expression=expression,
            machine=harness.case.machine,
            training_config=config.to_json_dict(),
            metrics=metrics,
            created_at=self.publish_created_at,
            parent_id=self.publish_parent_id,
        )
        registry = ArtifactRegistry(self.publish_dir)
        return registry.save(artifact)

    # -- main entry --------------------------------------------------------
    def open_session(self, resume: bool = False) -> "ExperimentSession":
        """Start (or resume) the campaign without driving it.

        The returned :class:`ExperimentSession` exposes the campaign a
        generation at a time — ``step()`` until ``done``, then
        ``finalize()`` — so a caller can interleave generations with
        other work: the autopilot runs exactly one ``step()`` per
        low-priority serve job.  :meth:`run` is a while-loop over this
        same object, so both paths emit identical event streams and
        produce byte-identical run directories.
        """
        return ExperimentSession(self, resume=resume)

    def run(self, resume: bool = False) -> ExperimentResult:
        session = self.open_session(resume=resume)
        try:
            while not session.done:
                stats = session.step()
                if (self.stop_after_generation is not None
                        and stats.generation >= self.stop_after_generation
                        and not session.done):
                    return session.interrupt()
            return session.finalize()
        except KeyboardInterrupt:
            # The last completed generation is already checkpointed;
            # tell the stream where a resume will pick up, then let the
            # interrupt propagate (the CLI turns it into exit code 130).
            session.emit_interrupted()
            raise
        finally:
            session.close()


class ExperimentSession:
    """One in-flight campaign, stepped a generation at a time.

    Owns everything :meth:`ExperimentRunner.run` used to hold on its
    stack: the event sink, metrics registry, harness, evaluator,
    engine, and checkpoint path.  Construction performs the whole
    run-start sequence (run-dir prep, state restore, ``run_started``
    event); each :meth:`step` is one engine generation plus its
    checkpoint and telemetry; :meth:`finalize`/:meth:`interrupt` end
    the run; :meth:`close` releases the evaluator, metrics, and sinks
    (idempotent — always call it).
    """

    def __init__(self, runner: ExperimentRunner, resume: bool = False):
        self.runner = runner
        config = runner.config
        self.config = config
        self.resumed = bool(resume)
        self.harness = runner._build_harness()
        # Everything the case cannot ride is refused here, before the
        # run directory is touched or anything is evaluated.
        self.harness.case.check_campaign(
            processes=config.processes,
            fleet=runner.fleet,
            surrogate=runner.surrogate,
            publish=runner.publish_dir is not None,
            seed_expressions=config.seed_expressions,
        )
        self._run_started = time.monotonic()
        self._closed = False
        self._finished = False

        self.registry = None
        self._owns_metrics = False
        #: baseline of the first step's ``metrics`` delta, so work done
        #: while the session opens (the surrogate's training from the
        #: cache) lands in that step's event
        self._open_metrics = None
        if runner.collect_metrics:
            from repro import obs

            self._owns_metrics = not obs.metrics_enabled()
            self.registry = obs.enable_metrics()
            self._open_metrics = self.registry.snapshot()

        self.checkpoint_path = None
        self._owned_sinks: list[EventSink] = []
        if runner.run_dir is not None:
            self.checkpoint_path = runner._prepare_run_dir(resume)
            self._owned_sinks.append(
                JsonlSink(runner.run_dir / EVENTS_FILENAME))
        elif resume:
            raise ValueError("resume requires a run directory")
        self.sink = MultiSink(list(runner.sinks) + self._owned_sinks)

        snapshot = None
        if resume:
            snapshot = load_checkpoint(self.checkpoint_path)
            if snapshot["config"] != config.to_json_dict():
                raise ValueError(
                    "checkpoint was written by a different configuration "
                    f"than {runner.run_dir / CONFIG_FILENAME} describes")

        self.evaluator = None
        self._evaluator_context = nullcontext()
        if runner.fleet is not None or config.processes > 1:
            from repro.metaopt.harness import make_evaluator

            self.evaluator = make_evaluator(
                config.case,
                processes=config.processes,
                fleet=runner.fleet,
                harness=self.harness,
            )
            self._evaluator_context = self.evaluator
        runner._surrogate_evaluator = None
        if runner.surrogate:
            self.evaluator = runner._build_surrogate(
                self.harness, self.evaluator,
                None if snapshot is None else snapshot.get("surrogate"))
            self._evaluator_context = self.evaluator

        self.engine = runner._build_engine(self.harness, self.evaluator)
        if snapshot is not None:
            self.engine.restore_state(snapshot["engine"])

        if runner.run_dir is not None:
            engine = self.engine
            engine.on_generation = lambda stats: runner._snapshot_population(
                stats.generation, engine.population)

        self._evaluator_context.__enter__()
        self._evaluator_open = True

        self.sink.emit({
            "event": "run_started",
            "schema": SCHEMA_VERSION,
            "mode": config.mode,
            "case": config.case,
            "resumed": bool(resume),
            "start_generation": self.engine.generation,
            "config": config.to_json_dict(),
        })

    # -- state ------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.engine.done

    @property
    def generation(self) -> int:
        """The generation a resume (or the next step) continues from."""
        return self.engine.generation

    def _exit_evaluator(self) -> None:
        if self._evaluator_open:
            self._evaluator_open = False
            self._evaluator_context.__exit__(None, None, None)

    # -- stepping ----------------------------------------------------------
    def step(self):
        """Run exactly one engine generation: evaluate, checkpoint,
        emit telemetry.  Returns the generation's
        :class:`~repro.gp.engine.GenerationStats`."""
        runner = self.runner
        config = self.config
        try:
            generation_started = time.monotonic()
            before = runner._counters(self.harness, self.evaluator)
            metrics_before = self._open_metrics
            self._open_metrics = None
            if metrics_before is None and self.registry is not None:
                metrics_before = self.registry.snapshot()
            evaluations_before = self.engine.evaluations
            stats = self.engine.step()
            wall_s = time.monotonic() - generation_started
            after = runner._counters(self.harness, self.evaluator)

            if self.checkpoint_path is not None and (
                self.engine.generation % config.checkpoint_every == 0
                or self.engine.done
            ):
                surrogate = runner._surrogate_evaluator
                save_checkpoint(self.checkpoint_path,
                                config.to_json_dict(),
                                self.engine.state_dict(),
                                None if surrogate is None
                                else surrogate.state_dict())
                checkpointed = True
            else:
                checkpointed = False

            self.sink.emit({
                "event": "generation",
                "generation": stats.generation,
                "subset": list(stats.subset),
                "best_fitness": stats.best_fitness,
                "mean_fitness": stats.mean_fitness,
                "best_size": stats.best_size,
                "mean_size": stats.mean_size,
                "unique_structures": stats.unique_structures,
                "baseline_rank": stats.baseline_rank,
                "best_expression": stats.best_expression,
                "evaluations_total": self.engine.evaluations,
                "new_evaluations":
                    self.engine.evaluations - evaluations_before,
                "counters": {
                    key: after[key] - before.get(key, 0)
                    for key in after
                },
                "wall_s": wall_s,
            })
            if self.registry is not None:
                from repro.obs.metrics import diff_snapshots

                self.sink.emit({
                    "event": "metrics",
                    "generation": stats.generation,
                    "metrics": diff_snapshots(metrics_before,
                                              self.registry.snapshot()),
                })
            if (runner._surrogate_evaluator is not None
                    and self.registry is not None):
                # telemetry-only, like ``metrics``: per-generation
                # deltas of the surrogate counters
                surrogate = runner._surrogate_evaluator
                self.sink.emit({
                    "event": "surrogate",
                    "generation": stats.generation,
                    "sims_saved":
                        after.get("surrogate_sims_saved", 0)
                        - before.get("surrogate_sims_saved", 0),
                    "rank_corr": surrogate.last_rank_corr,
                    "refits":
                        after.get("surrogate_refits", 0)
                        - before.get("surrogate_refits", 0),
                    "promotions":
                        after.get("surrogate_promotions", 0)
                        - before.get("surrogate_promotions", 0),
                })
            if checkpointed:
                self.sink.emit({
                    "event": "checkpoint_saved",
                    "generation": stats.generation,
                    "path": str(self.checkpoint_path),
                })
            return stats
        except BaseException:
            # mirror the old with-block: the evaluator shuts down
            # before the interrupt event is emitted or the error
            # propagates to the caller
            self._exit_evaluator()
            raise

    # -- endings -----------------------------------------------------------
    def emit_interrupted(self) -> None:
        self.sink.emit({
            "event": "run_interrupted",
            "next_generation": self.engine.generation,
        })

    def interrupt(self) -> ExperimentResult:
        """End the session early (deterministic stop point); the last
        checkpoint stands and a resume continues from
        ``next_generation``."""
        self.emit_interrupted()
        self._exit_evaluator()
        self._finished = True
        return ExperimentResult(
            config=self.config,
            run_dir=self.runner.run_dir,
            resumed=self.resumed,
            interrupted=True,
            next_generation=self.engine.generation,
        )

    def finalize(self) -> ExperimentResult:
        """Re-score the champion, write ``result.json``, publish, emit
        ``run_finished``.  Only valid once the engine is ``done``."""
        runner = self.runner
        try:
            # final re-scores always run on the serial harness
            spec, gen, cross = runner._finalize(self.harness,
                                                self.engine.result())
        except BaseException:
            self._exit_evaluator()
            raise
        self._exit_evaluator()

        payload = runner._result_payload(spec, gen, cross)
        if runner.run_dir is not None:
            atomic_write(runner.run_dir / RESULT_FILENAME,
                         _canonical_json(payload))
        artifact_id = None
        if runner.publish_dir is not None:
            artifact_id = runner._publish(self.harness, spec, gen)
            self.sink.emit({
                "event": "artifact_published",
                "artifact_id": artifact_id,
                "store": str(runner.publish_dir),
            })
        self.sink.emit({
            "event": "run_finished",
            "result": payload,
            "wall_s": time.monotonic() - self._run_started,
        })
        self._finished = True
        return ExperimentResult(
            config=self.config,
            run_dir=runner.run_dir,
            resumed=self.resumed,
            specialization=spec,
            generalization=gen,
            cross_validation=cross,
            payload=payload,
            artifact_id=artifact_id,
        )

    def close(self) -> None:
        """Release the evaluator, metrics registry, and owned sinks.
        Safe to call more than once and after any failure."""
        if self._closed:
            return
        self._closed = True
        self._exit_evaluator()
        if self._owns_metrics:
            from repro import obs

            obs.disable_metrics()
        for owned in self._owned_sinks:
            owned.close()


def run_experiment(
    config: ExperimentConfig,
    run_dir=None,
    sinks: tuple[EventSink, ...] = (),
    resume: bool = False,
    **runner_options,
) -> ExperimentResult:
    """One-call form of :class:`ExperimentRunner` — the unified
    experiment API the CLI and new Python code share;
    ``runner_options`` are the constructor's keywords."""
    runner = ExperimentRunner(config, run_dir=run_dir, sinks=sinks,
                              **runner_options)
    return runner.run(resume=resume)
