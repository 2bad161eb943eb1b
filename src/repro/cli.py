"""Command-line interface.

Subcommands::

    python -m repro run PROGRAM.mc [--inputs data.json] [--machine M]
        Compile a MiniC file through the full pipeline and simulate it.

    python -m repro interpret PROGRAM.mc [--inputs data.json]
        Run a MiniC file under the reference interpreter.

    python -m repro suite [--category int|fp] [--suite NAME]
        List the registered benchmarks.

    python -m repro suite promote [--corpus PATH] [--fuzz-seed N]
        Differential-verify corpus reproducers or fuzzer programs and
        promote them into the suite as first-class benchmarks with an
        explicit train/novel split (--split).

    python -m repro simulate BENCHMARK [--dataset train|novel] [...]
        Compile + simulate one suite benchmark, print machine counters;
        with --metrics also the per-pass timing, simulator counter and
        snapshot tables.

    python -m repro verify PROGRAM.mc [--inputs data.json] [--machine M]
        Compile a MiniC file with the IR verifier on and check the
        optimized binary against the reference interpreter
        (differential oracle); non-zero exit on any divergence.

    python -m repro fuzz [--count N] [--seed S] [--machine M]
        Generate N random well-defined MiniC programs and run each
        through the differential oracle, shrinking any failure.

    python -m repro evolve CASE BENCHMARK [--pop N] [--gens N] [...]
        Run Meta Optimization: evolve a priority function for one
        benchmark of a case study and report speedups.

    python -m repro generalize CASE --train B1,B2,... [--test ...]
        Evolve one general-purpose priority function over a training
        suite with dynamic subset selection, optionally
        cross-validating on an unseen test suite.

    python -m repro cache stats|export [--fitness-cache DIR]
        Inspect the persistent fitness cache: corpus summary or a
        record-by-record export (the surrogate trainer's data source).

    python -m repro artifacts list|show|verify|lineage|channels [ID]
        Inspect the heuristic artifact store (content-addressed
        evolved priority functions written by ``--publish``), its
        ancestry chains, and the per-(case, machine) deployment
        channel pointers.

    python -m repro serve [--port P] [--workers N] [--autopilot DIR]
        Run the compile/evaluate HTTP daemon: bounded job queue, warm
        workers, 429 backpressure, SIGTERM drain (docs/SERVING.md);
        --autopilot adds online continuous re-optimization
        (docs/AUTOPILOT.md).

    python -m repro submit BENCHMARK [--artifact ID] [--url URL]
        Send one evaluation to a running daemon and wait for the
        result (byte-identical to ``repro simulate --json``).

``evolve`` and ``generalize`` are campaign commands: ``--run-dir``
persists config/telemetry/checkpoints under a run directory,
``--resume`` continues a killed run bit-identically, ``--publish``
writes the winning expression to the artifact store at campaign end,
and ``--json`` prints the machine-readable ``result.json`` payload
instead of the human summary (also available on ``simulate``).  See
``docs/EXPERIMENTS_API.md``.

``--json`` is uniform: every subcommand that accepts it prints exactly
one JSON object on stdout, on success and on failure alike (failures
are ``{"schema": 1, "ok": false, "error": ...}`` with a non-zero
exit).

``simulate``, ``evolve``, and ``generalize`` also take ``--trace FILE``
(write a Chrome ``trace_event`` JSON of the run, loadable in
``chrome://tracing`` / Perfetto) and ``--metrics`` (collect
:mod:`repro.obs` metrics: on campaigns, per-generation ``metrics``
events land in ``events.jsonl``; on ``simulate``, the per-pass,
simulator and snapshot tables are printed).  See
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.machine.descr import (
    CASE_NAMES,
    DEFAULT_EPIC,
    ITANIUM_MACHINE,
    REGALLOC_MACHINE,
    MachineDescription,
)

MACHINES: dict[str, MachineDescription] = {
    "epic": DEFAULT_EPIC,
    "itanium": ITANIUM_MACHINE,
    "regalloc": REGALLOC_MACHINE,
}


def _load_inputs(path: str | None) -> dict:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise SystemExit("--inputs must be a JSON object "
                         "{global: [values...]}")
    return data


def _print_sim_result(result) -> None:
    print(f"outputs          : {result.outputs}")
    if result.return_value is not None:
        print(f"return value     : {result.return_value}")
    print(f"cycles           : {result.cycles}")
    print(f"dynamic ops      : {result.dynamic_ops} "
          f"(+{result.squashed_ops} squashed)")
    print(f"memory stalls    : {result.memory_stall_cycles}")
    print(f"branch stalls    : {result.branch_stall_cycles}")
    print(f"L1 hit rate      : {result.l1_hit_rate:.2%}")
    print(f"branch accuracy  : {result.branch_accuracy:.2%}")
    print(f"prefetches       : {result.prefetch_count}")


#: Pipeline stage display order for the ``simulate --metrics`` pass table.
_STAGE_ORDER = ("inline", "cleanup", "unroll", "profile", "hyperblock",
                "prefetch", "regalloc", "schedule")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="FILE",
        help="write a Chrome trace_event JSON of this run to FILE "
             "(load in chrome://tracing or https://ui.perfetto.dev)")
    parser.add_argument(
        "--metrics", action="store_true",
        help="collect repro.obs metrics: campaigns emit per-generation "
             "'metrics' events into events.jsonl; simulate prints the "
             "per-pass, simulator and snapshot tables")


def _add_fleet_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fleet", metavar="SPEC",
        help="shard fitness evaluation across running serve daemons, "
             "'host:port,host:port' (docs/FLEET.md); on one host use "
             "--processes N instead; mutually exclusive with "
             "--processes > 1")


def _print_pass_table(snapshot: dict) -> None:
    """Per-pass timing + IR delta table from a metrics snapshot."""
    counters = snapshot["counters"]
    histograms = snapshot["histograms"]
    stages = [name[len("pipeline.pass_seconds."):]
              for name in histograms
              if name.startswith("pipeline.pass_seconds.")]
    ordered = [s for s in _STAGE_ORDER if s in stages]
    ordered += sorted(s for s in stages if s not in _STAGE_ORDER)
    print(f"{'pass':<20s}{'runs':>6s}{'total_s':>11s}{'mean_s':>11s}"
          f"{'ir_delta':>10s}")
    for stage in ordered:
        data = histograms[f"pipeline.pass_seconds.{stage}"]
        runs = counters.get(f"pipeline.pass_runs.{stage}", data["count"])
        mean = data["sum"] / data["count"] if data["count"] else 0.0
        delta = counters.get(f"pipeline.ir_delta.{stage}", 0)
        print(f"{stage:<20s}{runs:>6d}{data['sum']:>11.4f}{mean:>11.5f}"
              f"{delta:>+10d}")


def _print_counter_table(snapshot: dict, prefix: str, title: str) -> None:
    rows = sorted((name[len(prefix):], value)
                  for name, value in snapshot["counters"].items()
                  if name.startswith(prefix))
    if not rows:
        return
    print(f"{title:<24s}{'value':>12s}")
    for name, value in rows:
        print(f"{name:<24s}{value:>12}")


def _histogram_p50(data: dict) -> float:
    """Nearest-rank median estimate from histogram buckets: the upper
    edge of the bucket holding the median observation (overflow bucket
    reports the largest edge)."""
    total = data["count"]
    if not total:
        return 0.0
    target = (total + 1) // 2
    cumulative = 0
    for edge, count in zip(data["buckets"], data["counts"]):
        cumulative += count
        if cumulative >= target:
            return edge
    return data["buckets"][-1]


def _print_snapshot_table(snapshot: dict, harness_stats: dict) -> None:
    """Compilation-forking health (docs/FORKING.md): programs whose
    prefix was built, compiles that reused one, allocations that reused
    a seed, restore latency.
    Silent when the layer never ran (a hook whose stage runs first, or
    no backend compiles)."""
    restores = snapshot["histograms"].get(
        "pipeline.snapshot.restore_seconds")
    if restores is None or restores["count"] == 0:
        return
    rows = [
        ("hits", harness_stats.get("snapshot_hits", 0)),
        ("builds", harness_stats.get("snapshot_builds", 0)),
        ("restores", restores["count"]),
        ("seeded_allocations", snapshot["counters"].get(
            "pipeline.snapshot.seeded_allocations", 0)),
        ("restore_p50_ms", f"{_histogram_p50(restores) * 1000:.2f}"),
    ]
    print(f"{'snapshot':<24s}{'value':>12s}")
    for name, value in rows:
        print(f"{name:<24s}{value:>12}")


def _tree_case(command: str, case_name: str):
    """The case study behind ``--case`` for the subcommands that deploy
    a priority-function tree; the case itself says whether it has one."""
    from repro.metaopt.harness import case_study

    try:
        return case_study(case_name).require_tree_valued()
    except ValueError as exc:
        raise SystemExit(f"repro {command}: {exc}")


def cmd_run(args: argparse.Namespace) -> int:
    from repro.compiler import compile_program

    source = Path(args.program).read_text()
    inputs = _load_inputs(args.inputs)
    machine = MACHINES[args.machine]
    from repro.passes.pipeline import CompilerOptions

    options = CompilerOptions(machine=machine, prefetch=args.prefetch)
    program = compile_program(source, profile_inputs=inputs,
                              options=options, name=args.program)
    result = program.run(inputs, noise_stddev=args.noise)
    _print_sim_result(result)
    return 0


def cmd_interpret(args: argparse.Namespace) -> int:
    from repro.compiler import interpret

    source = Path(args.program).read_text()
    result = interpret(source, _load_inputs(args.inputs))
    print(f"outputs      : {result.outputs}")
    if result.return_value is not None:
        print(f"return value : {result.return_value}")
    print(f"steps        : {result.steps}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.passes.pipeline import CompilerOptions
    from repro.verify.differential import run_differential

    source = Path(args.program).read_text()
    inputs = _load_inputs(args.inputs)
    options = CompilerOptions(
        machine=MACHINES[args.machine],
        prefetch=args.prefetch,
        unroll_factor=args.unroll,
        verify_ir=not args.no_verify_ir,
    )
    result = run_differential(source, inputs, options,
                              max_steps=args.max_steps, name=args.program)
    if args.json:
        payload = {"schema": 1, "program": args.program}
        payload.update(result.to_json_dict())
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if result.equivalent else 1
    if result.equivalent:
        detail = ""
        if result.interp_fault is not None:
            detail = " (both engines faulted identically)"
        print(f"{args.program}: interpreter and simulator agree{detail}")
        return 0
    print(f"{args.program}: DIVERGENCE "
          f"({len(result.divergences)} channel(s))", file=sys.stderr)
    for divergence in result.divergences:
        print(f"  {divergence}", file=sys.stderr)
    print(f"  options: {result.options_summary}", file=sys.stderr)
    return 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.passes.pipeline import CompilerOptions
    from repro.verify.fuzz import fuzz

    options = CompilerOptions(
        machine=MACHINES[args.machine],
        prefetch=args.prefetch,
        verify_ir=not args.no_verify_ir,
    )

    def progress(index, seed, equivalent):
        if not args.json and not equivalent:
            print(f"  case {index} (seed {seed}): DIVERGENCE",
                  file=sys.stderr)

    report = fuzz(args.count, seed=args.seed, options=options,
                  max_steps=args.max_steps, shrink=not args.no_shrink,
                  on_case=progress)

    if args.save_dir and report.failures:
        save_root = Path(args.save_dir)
        save_root.mkdir(parents=True, exist_ok=True)
        for failure in report.failures:
            stem = save_root / f"fuzz-{failure.seed}"
            stem.with_suffix(".mc").write_text(failure.minimized_source)
            stem.with_suffix(".inputs.json").write_text(
                json.dumps(failure.inputs))
            stem.with_suffix(".report.json").write_text(
                json.dumps(failure.result.to_json_dict(), indent=2,
                           sort_keys=True))

    if args.json:
        payload = {"schema": 1}
        payload.update(report.to_json_dict())
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if report.ok else 1
    print(f"fuzz: {report.count} programs (seed {report.seed}, "
          f"machine {args.machine})")
    print(f"  passed        : {report.passed}")
    print(f"  agreed faults : {report.agreed_faults}")
    print(f"  divergences   : {len(report.failures)}")
    if report.generator_errors:
        print(f"  generator errors: {len(report.generator_errors)}")
        for seed, error in report.generator_errors:
            print(f"    seed {seed}: {error}", file=sys.stderr)
    for failure in report.failures:
        print(f"  seed {failure.seed}: {failure.result.first} "
              f"(minimized to {len(failure.minimized_source.splitlines())} "
              f"lines, -{failure.removed_stmts} stmts)", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_suite_promote(args: argparse.Namespace) -> int:
    from repro.suite.promoted import (
        PromotionError,
        add_promoted,
        promote_corpus_entry,
        promote_fuzz_program,
        promoted_path,
    )

    if not args.corpus and not args.fuzz_seed:
        raise SystemExit(
            "repro suite promote: nothing to promote — pass "
            "--corpus PATH (a .mc file or a corpus directory) and/or "
            "--fuzz-seed N")
    target = Path(args.registry_file) if args.registry_file else None
    programs = []
    try:
        for corpus in args.corpus or ():
            path = Path(corpus)
            if path.is_dir():
                entries = sorted(path.glob("*.mc"))
                if not entries:
                    raise SystemExit(
                        f"repro suite promote: no .mc files under {path}")
            else:
                entries = [path]
            for entry in entries:
                programs.append(
                    promote_corpus_entry(entry, split=args.split))
        for seed in args.fuzz_seed or ():
            programs.append(promote_fuzz_program(seed, split=args.split))
    except PromotionError as error:
        raise SystemExit(f"repro suite promote: {error}")
    merged = add_promoted(programs, target)
    registry_file = target if target is not None else promoted_path()
    if args.json:
        print(json.dumps({
            "schema": 1,
            "registry": str(registry_file),
            "promoted": [program.name for program in programs],
            "total": len(merged),
        }, indent=2, sort_keys=True))
        return 0
    for program in programs:
        print(f"promoted {program.name:<24s} "
              f"({program.origin}, {program.split} split)")
    print(f"{len(merged)} promoted benchmark(s) in {registry_file}")
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from repro.suite import all_benchmarks

    if getattr(args, "action", "list") == "promote":
        return _cmd_suite_promote(args)
    rows = sorted(all_benchmarks().items())
    if args.category:
        rows = [(n, b) for n, b in rows if b.category == args.category]
    if args.suite:
        rows = [(n, b) for n, b in rows if b.suite == args.suite]
    print(f"{'name':<16s}{'suite':<12s}{'cat':<5s}description")
    for name, bench in rows:
        print(f"{name:<16s}{bench.suite:<12s}{bench.category:<5s}"
              f"{bench.description}")
    print(f"{len(rows)} benchmarks")
    return 0


def _fitness_cache_dir(args: argparse.Namespace) -> str | None:
    """``--no-fitness-cache`` / ``--fitness-cache DIR`` / the
    ``REPRO_FITNESS_CACHE`` environment variable, in that order."""
    from repro.metaopt.fitness_cache import resolve_cache_dir

    return resolve_cache_dir(
        explicit_dir=getattr(args, "fitness_cache", None),
        disabled=getattr(args, "no_fitness_cache", False),
    )


def _resolve_publish_dir(args: argparse.Namespace) -> str | None:
    """``--publish [DIR]``: explicit DIR, or the default artifact
    store (``$REPRO_ARTIFACT_STORE`` / ``./artifacts``) when the flag
    is given bare.  None when not publishing."""
    publish = getattr(args, "publish", None)
    if publish is None:
        return None
    if publish != "":
        return publish
    from repro.serve.registry import registry_from_env

    return str(registry_from_env().root)


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--run-dir", metavar="DIR",
        help="execute inside run directory DIR: persists config.json, "
             "events.jsonl, per-generation checkpoints, and result.json")
    parser.add_argument(
        "--resume", action="store_true",
        help="continue a killed run from DIR's last checkpoint "
             "(bit-identical to an uninterrupted run); the campaign "
             "config is read from DIR/config.json, so CASE and other "
             "campaign flags are ignored")
    parser.add_argument(
        "--json", action="store_true",
        help="print the machine-readable result.json payload instead "
             "of the human summary")
    parser.add_argument(
        "--stop-after-generation", type=int, metavar="N",
        help="checkpoint generation N (0-based) and stop, as if the "
             "run had been killed — for testing resume workflows")
    parser.add_argument(
        "--publish", nargs="?", const="", metavar="DIR",
        help="at campaign end, package the best evolved expression as "
             "a content-addressed heuristic artifact under DIR "
             "(default: $REPRO_ARTIFACT_STORE or ./artifacts); deploy "
             "it with 'repro simulate --artifact' or 'repro serve'")


def _add_verify_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--verify", action="store_true",
        help="differential guard: check every fresh simulation against "
             "the reference interpreter; miscompiling candidates get "
             "worst-case fitness and are never persisted to the cache")


def _add_fitness_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fitness-cache", metavar="DIR",
        help="persist simulation results under DIR (shared across "
             "runs and figure scripts; defaults to $REPRO_FITNESS_CACHE)")
    parser.add_argument(
        "--no-fitness-cache", action="store_true",
        help="disable the persistent fitness cache even when "
             "$REPRO_FITNESS_CACHE is set")


def _add_surrogate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--surrogate", action="store_true",
        help="learned surrogate fitness (docs/SURROGATE.md): train a "
             "model from the persistent fitness cache, rank each "
             "generation, and fully simulate only the top-K plus an "
             "exploration sample; the champion is always "
             "simulator-verified.  Off by default — the seed path is "
             "untouched without it")
    parser.add_argument(
        "--surrogate-top-k", type=int, default=8, metavar="K",
        help="candidates per generation that always get exact "
             "simulation under --surrogate (default 8)")


def _load_artifact(args: argparse.Namespace):
    """Resolve ``--artifact``/``--artifact-store`` into a loaded
    artifact (or None) and the case name to simulate under: the
    artifact's, else ``--case``, else hyperblock.  An explicit
    ``--case`` that names another case than the artifact's is
    refused."""
    from repro.serve.artifact import ArtifactError
    from repro.serve.registry import registry_from_env

    case_name = args.case
    if not args.artifact:
        return None, case_name or "hyperblock"
    registry = registry_from_env(args.artifact_store)
    artifact = registry.load(args.artifact)
    if case_name is not None and artifact.case != case_name:
        raise ArtifactError(
            f"artifact {artifact.short_id} targets {artifact.case}, "
            f"--case says {case_name}")
    return artifact, artifact.case


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.metaopt.harness import EvaluationHarness
    from repro.metaopt.settings import EvalSettings
    from repro.serve.jobs import simulation_payload

    artifact, case_name = _load_artifact(args)
    case = _tree_case("simulate", case_name)
    tracer = obs.enable_tracing() if args.trace else None
    registry = obs.enable_metrics() if args.metrics else None
    try:
        harness = EvaluationHarness(
            case, EvalSettings(fitness_cache_dir=_fitness_cache_dir(args)))
        if artifact is not None:
            result = harness.simulate(artifact.tree(), args.benchmark,
                                      args.dataset)
        else:
            result = harness.baseline_result(args.benchmark, args.dataset)
    finally:
        if registry is not None:
            obs.disable_metrics()
        if tracer is not None:
            obs.disable_tracing()
            tracer.write(args.trace)
    if args.json:
        payload = simulation_payload(
            case_name, harness.case.machine.name, args.benchmark,
            args.dataset, result,
            artifact_id=(artifact.artifact_id
                         if artifact is not None else None))
        if registry is not None:
            payload["metrics"] = registry.snapshot()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"benchmark        : {args.benchmark} ({args.dataset} data, "
          f"{harness.case.machine.name})")
    if artifact is not None:
        print(f"artifact         : {artifact.short_id} ({artifact.case})")
    _print_sim_result(result)
    if registry is not None:
        snapshot = registry.snapshot()
        print()
        _print_pass_table(snapshot)
        print()
        _print_counter_table(snapshot, "sim.", "simulator counter")
        print()
        _print_snapshot_table(snapshot, harness.stats())
    if tracer is not None:
        print(f"trace written    : {args.trace}")
    return 0


def _comma_list(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _run_campaign(args: argparse.Namespace, config) -> int:
    """Shared driver of ``evolve`` and ``generalize``: build the
    runner, execute (or resume), render the outcome."""
    from repro import obs
    from repro.experiments import ExperimentRunner, PrettySink

    trace_path = getattr(args, "trace", None)
    runner_options = dict(
        sinks=() if args.json else (PrettySink(),),
        stop_after_generation=getattr(args, "stop_after_generation", None),
        collect_metrics=bool(getattr(args, "metrics", False)),
        publish_dir=_resolve_publish_dir(args),
        fleet=getattr(args, "fleet", None),
        surrogate=bool(getattr(args, "surrogate", False)),
        surrogate_top_k=getattr(args, "surrogate_top_k", 8),
    )
    if args.resume:
        if args.run_dir is None:
            raise SystemExit("--resume requires --run-dir (the run "
                             "directory holds the campaign's config)")
        runner = ExperimentRunner.from_run_dir(args.run_dir,
                                               **runner_options)
    else:
        runner = ExperimentRunner(config, run_dir=args.run_dir,
                                  **runner_options)
    tracer = obs.enable_tracing() if trace_path else None
    try:
        outcome = runner.run(resume=args.resume)
    except KeyboardInterrupt:
        if args.json:
            print(json.dumps({"interrupted": True, "resumable": True},
                             indent=2, sort_keys=True))
            return 130
        print("\ninterrupted — rerun with --resume "
              f"{'--run-dir ' + str(args.run_dir) if args.run_dir else ''} "
              "to continue from the last checkpoint", file=sys.stderr)
        return 130
    finally:
        if tracer is not None:
            obs.disable_tracing()
            tracer.write(trace_path)
            print(f"trace written to {trace_path}", file=sys.stderr)

    if outcome.interrupted:
        payload = {"interrupted": True,
                   "next_generation": outcome.next_generation}
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"stopped after generation "
                  f"{outcome.next_generation - 1}; resume with --resume")
        return 0
    if args.json:
        payload = outcome.payload
        if outcome.artifact_id is not None:
            # result.json itself stays artifact-free (resume
            # byte-identity); only the printed copy names the artifact.
            payload = dict(payload)
            payload["artifact_id"] = outcome.artifact_id
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    return _print_campaign_summary(outcome)


def _print_campaign_summary(outcome) -> int:
    from repro.gp.genome import FlagsGenome
    from repro.gp.parse import infix, unparse
    from repro.gp.simplify import simplify

    if outcome.specialization is not None:
        result = outcome.specialization
        print(f"train speedup : {result.train_speedup:.4f}")
        print(f"novel speedup : {result.novel_speedup:.4f}")
    else:
        result = outcome.generalization
        print(f"avg train speedup : {result.average_train_speedup():.4f}")
        print(f"avg novel speedup : {result.average_novel_speedup():.4f}")
        for score in result.training:
            print(f"  {score.benchmark:<16s} train {score.train_speedup:.4f}"
                  f"  novel {score.novel_speedup:.4f}")
        cross = outcome.cross_validation
        if cross is not None:
            print(f"cross-validation on {cross.machine_name}: "
                  f"avg novel {cross.average_novel_speedup():.4f}")
            for score in cross.scores:
                print(f"  {score.benchmark:<16s} "
                      f"train {score.train_speedup:.4f}"
                      f"  novel {score.novel_speedup:.4f}")
    best = result.best_tree
    if isinstance(best, FlagsGenome):
        # A flags genome has no expression tree to simplify or render
        # as infix; its text form already names every gene.
        print(f"expression    : {best.text()}")
    else:
        best = simplify(best)
        print(f"expression    : {unparse(best)}")
        print(f"infix         : {infix(best)}")
    if outcome.run_dir is not None:
        print(f"run directory : {outcome.run_dir}")
    if outcome.artifact_id is not None:
        print(f"artifact      : {outcome.artifact_id[:12]} "
              f"(full id {outcome.artifact_id})")
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentConfig
    from repro.gp.engine import GPParams

    if args.processes < 1:
        raise SystemExit("repro evolve: --processes must be >= 1")
    config = None
    if not args.resume:
        if not args.case or not args.benchmark:
            raise SystemExit("repro evolve: CASE and BENCHMARK are "
                             "required (unless resuming with --resume)")
        config = ExperimentConfig(
            mode="specialize",
            case=args.case,
            benchmark=args.benchmark,
            params=GPParams(population_size=args.pop,
                            generations=args.gens, seed=args.seed),
            noise_stddev=args.noise,
            processes=args.processes,
            fitness_cache_dir=_fitness_cache_dir(args),
            verify_outputs=args.verify,
        )
        if not args.json:
            print(f"evolving {args.case} priority for {args.benchmark} "
                  f"(pop {args.pop}, {args.gens} generations, "
                  f"{args.processes} process(es))")
    return _run_campaign(args, config)


def cmd_generalize(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentConfig
    from repro.gp.engine import GPParams

    if args.processes < 1:
        raise SystemExit("repro generalize: --processes must be >= 1")
    config = None
    if not args.resume:
        training = _comma_list(args.train)
        if not args.case or not training:
            raise SystemExit("repro generalize: CASE and --train are "
                             "required (unless resuming with --resume)")
        config = ExperimentConfig(
            mode="generalize",
            case=args.case,
            training_set=training,
            test_set=_comma_list(args.test),
            params=GPParams(population_size=args.pop,
                            generations=args.gens, seed=args.seed),
            noise_stddev=args.noise,
            processes=args.processes,
            fitness_cache_dir=_fitness_cache_dir(args),
            subset_size=args.subset_size,
            verify_outputs=args.verify,
        )
        if not args.json:
            print(f"evolving general-purpose {args.case} priority over "
                  f"{len(training)} benchmarks (pop {args.pop}, "
                  f"{args.gens} generations, DSS)")
    return _run_campaign(args, config)


def cmd_artifacts(args: argparse.Namespace) -> int:
    from repro.serve.registry import registry_from_env

    registry = registry_from_env(args.store)
    if args.action == "list":
        rows = registry.list(case=args.case, machine=args.machine,
                             channel=args.channel)
        if args.json:
            print(json.dumps({"schema": 1, "store": str(registry.root),
                              "artifacts": rows},
                             indent=2, sort_keys=True))
            return 0
        print(f"artifact store: {registry.root} ({len(rows)} artifact(s))")
        if rows:
            print(f"{'id':<14s}{'case':<12s}{'machine':<12s}"
                  f"{'ver':>4s} {'chan':<8s}expression")
            for row in rows:
                expr = row.get("expression", "?")
                if len(expr) > 32:
                    expr = expr[:29] + "..."
                version = row.get("version")
                chan = ",".join(row.get("channels", ())) or "-"
                print(f"{row['artifact_id'][:12]:<14s}"
                      f"{row['case']:<12s}"
                      f"{row.get('machine', '?'):<12s}"
                      f"{version if version is not None else '-':>4} "
                      f"{chan:<8s}{expr}")
        return 0
    if args.action == "lineage":
        if not args.id:
            raise SystemExit("repro artifacts lineage: needs an "
                             "artifact id (or unambiguous prefix)")
        chain = registry.lineage(args.id)
        if args.json:
            print(json.dumps({"schema": 1, "lineage": chain},
                             indent=2, sort_keys=True))
            return 0
        for depth, row in enumerate(chain):
            marker = "" if depth == 0 else "  " * (depth - 1) + "  └─ "
            if row.get("error"):
                print(f"{marker}{row['artifact_id'][:12]} "
                      f"({row['error']})")
                continue
            version = row.get("version")
            chan = ",".join(row.get("channels", ()))
            notes = [note for note in (
                f"v{version}" if version is not None else None,
                chan or None) if note]
            suffix = f" [{' '.join(notes)}]" if notes else ""
            print(f"{marker}{row['artifact_id'][:12]} "
                  f"{row['case']}/{row.get('machine', '?')}{suffix} "
                  f"{row.get('expression', '')}")
        return 0
    if args.action == "channels":
        tracks = registry.channels()
        if args.json:
            print(json.dumps({"schema": 1, "channels": tracks},
                             indent=2, sort_keys=True))
            return 0
        if not tracks:
            print("no deployment tracks")
            return 0
        for key in sorted(tracks):
            track = tracks[key]
            stable = (track["stable"] or "-")[:12]
            canary = (track["canary"] or "-")[:12]
            print(f"{key}: stable={stable} canary={canary} "
                  f"versions={len(track['versions'])} "
                  f"moves={len(track['log'])}")
        return 0
    if args.action == "show":
        artifact = registry.load(args.id)
        if args.json:
            print(json.dumps(artifact.to_json_dict(), indent=2,
                             sort_keys=True))
            return 0
        print(f"artifact   : {artifact.artifact_id}")
        print(f"case       : {artifact.case}")
        print(f"machine    : {artifact.machine_name} "
              f"({artifact.machine_fingerprint})")
        print(f"pipeline   : {artifact.pipeline_fingerprint}")
        print(f"config     : {artifact.config_fingerprint}")
        print(f"expression : {artifact.expression}")
        for key, value in sorted(artifact.metrics.items()):
            print(f"  {key}: {value}")
        return 0
    # verify
    problems = registry.verify(args.id)
    if args.json:
        print(json.dumps({"schema": 1, "artifact": args.id,
                          "ok": not problems, "problems": problems},
                         indent=2, sort_keys=True))
        return 0 if not problems else 1
    if not problems:
        print(f"{args.id}: OK")
        return 0
    print(f"{args.id}: {len(problems)} problem(s)", file=sys.stderr)
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)
    return 1


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect the persistent fitness cache: ``stats`` summarizes the
    on-disk corpus, ``export`` streams the decodable records (the
    surrogate trainer's data source, docs/SURROGATE.md)."""
    from repro.metaopt.fitness_cache import FitnessCache

    cache_dir = _fitness_cache_dir(args)
    if cache_dir is None:
        raise SystemExit(
            "repro cache: no cache directory — pass --fitness-cache DIR "
            "or set $REPRO_FITNESS_CACHE")
    if not Path(cache_dir).is_dir():
        # An inspection command creates nothing: a typo must not leave
        # an empty cache behind and report "entries": 0.
        raise SystemExit(
            f"repro cache: {cache_dir} is not a directory")
    cache = FitnessCache(cache_dir)

    if args.action == "stats":
        total = cycles = 0
        by_case: dict[str, int] = {}
        by_benchmark: dict[str, int] = {}
        for record in cache.scan():
            total += 1
            cycles += record.result.cycles
            case = str(record.meta.get("case", "?"))
            bench = str(record.meta.get("benchmark", "?"))
            by_case[case] = by_case.get(case, 0) + 1
            by_benchmark[bench] = by_benchmark.get(bench, 0) + 1
        if args.json:
            print(json.dumps({
                "schema": 1,
                "root": str(cache.root),
                "entries": total,
                "total_cycles": cycles,
                "by_case": by_case,
                "by_benchmark": by_benchmark,
            }, indent=2, sort_keys=True))
            return 0
        print(f"fitness cache: {cache.root}")
        print(f"  entries     : {total}")
        print(f"  total cycles: {cycles}")
        for title, table in (("case", by_case), ("benchmark", by_benchmark)):
            if table:
                print(f"  by {title}:")
                for name, count in sorted(table.items()):
                    print(f"    {name:<20s}{count:>8d}")
        return 0

    # export
    records = []
    for record in cache.scan():
        meta = record.meta
        if args.case and meta.get("case") != args.case:
            continue
        if args.benchmark and meta.get("benchmark") != args.benchmark:
            continue
        row = {"key": record.key, "cycles": record.result.cycles}
        row.update(meta)
        records.append(row)
        if args.limit is not None and len(records) >= args.limit:
            break
    if args.json:
        print(json.dumps({"schema": 1, "root": str(cache.root),
                          "records": records},
                         indent=2, sort_keys=True))
        return 0
    print(f"{'case':<12s}{'benchmark':<16s}{'dataset':<8s}"
          f"{'cycles':>10s}  expression")
    for row in records:
        expr = str(row.get("expression", "?"))
        if len(expr) > 48:
            expr = expr[:45] + "..."
        print(f"{str(row.get('case', '?')):<12s}"
              f"{str(row.get('benchmark', '?')):<16s}"
              f"{str(row.get('dataset', '?')):<8s}"
              f"{row['cycles']:>10d}  {expr}")
    print(f"{len(records)} record(s)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.registry import registry_from_env
    from repro.serve.server import ReproServer

    if args.metrics:
        from repro import obs

        obs.enable_metrics()
    autopilot_config = None
    if args.autopilot:
        from repro.autopilot import AutopilotConfig

        overrides = {}
        if args.autopilot_config:
            with open(args.autopilot_config, encoding="utf-8") as handle:
                overrides = json.load(handle)
        overrides["state_dir"] = args.autopilot
        autopilot_config = AutopilotConfig.from_json_dict(overrides)
    server = ReproServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        capacity=args.queue_capacity,
        job_timeout=args.job_timeout,
        registry=registry_from_env(args.artifact_store),
        fitness_cache_dir=_fitness_cache_dir(args),
        batch_concurrency=args.batch_concurrency,
        autopilot_config=autopilot_config,
    )
    print(f"serving on {server.url} "
          f"({args.workers} worker(s), queue capacity "
          f"{args.queue_capacity}"
          + (f", autopilot in {args.autopilot}" if args.autopilot else "")
          + ")", flush=True)
    return server.serve_forever(drain_timeout=args.drain_timeout)


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient

    client = ServeClient(args.url, timeout=args.timeout,
                         retries=args.retries)
    payload = client.evaluate(
        args.benchmark,
        case=args.case,
        dataset=args.dataset,
        artifact=args.artifact,
        timeout=args.timeout,
    )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"benchmark        : {payload['benchmark']} "
          f"({payload['dataset']} data, {payload['machine']})")
    if payload.get("artifact"):
        print(f"artifact         : {payload['artifact'][:12]}")
    print(f"cycles           : {payload['cycles']}")
    print(f"dynamic ops      : {payload['dynamic_ops']} "
          f"(+{payload['squashed_ops']} squashed)")
    print(f"outputs          : {payload['outputs']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Meta Optimization (PLDI 2003) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="compile + simulate a MiniC file")
    run_parser.add_argument("program")
    run_parser.add_argument("--inputs", help="JSON file of global inputs")
    run_parser.add_argument("--machine", choices=sorted(MACHINES),
                            default="epic")
    run_parser.add_argument("--prefetch", action="store_true")
    run_parser.add_argument("--noise", type=float, default=0.0)
    run_parser.set_defaults(func=cmd_run)

    interp_parser = commands.add_parser(
        "interpret", help="run a MiniC file on the reference interpreter")
    interp_parser.add_argument("program")
    interp_parser.add_argument("--inputs")
    interp_parser.set_defaults(func=cmd_interpret)

    verify_parser = commands.add_parser(
        "verify", help="differential-check a MiniC file: interpreter "
                       "vs optimized simulation, IR verifier on")
    verify_parser.add_argument("program")
    verify_parser.add_argument("--inputs", help="JSON file of global inputs")
    verify_parser.add_argument("--machine", choices=sorted(MACHINES),
                               default="epic")
    verify_parser.add_argument("--prefetch", action="store_true")
    verify_parser.add_argument("--unroll", type=int, default=2,
                               help="unroll factor (default 2)")
    verify_parser.add_argument("--no-verify-ir", action="store_true",
                               help="skip the per-stage IR verifier and "
                                    "only compare observables")
    verify_parser.add_argument("--max-steps", type=int, default=10_000_000)
    verify_parser.add_argument("--json", action="store_true",
                               help="print the divergence report as JSON")
    verify_parser.set_defaults(func=cmd_verify)

    fuzz_parser = commands.add_parser(
        "fuzz", help="differential-fuzz the pipeline with random "
                     "well-defined MiniC programs")
    fuzz_parser.add_argument("--count", type=int, default=100)
    fuzz_parser.add_argument("--seed", type=int, default=0)
    fuzz_parser.add_argument("--machine", choices=sorted(MACHINES),
                             default="epic")
    fuzz_parser.add_argument("--prefetch", action="store_true")
    fuzz_parser.add_argument("--no-verify-ir", action="store_true")
    fuzz_parser.add_argument("--no-shrink", action="store_true",
                             help="report divergences without minimizing")
    fuzz_parser.add_argument("--max-steps", type=int, default=500_000)
    fuzz_parser.add_argument("--save-dir", metavar="DIR",
                             help="write each failure's minimized program, "
                                  "inputs and report under DIR")
    fuzz_parser.add_argument("--json", action="store_true")
    fuzz_parser.set_defaults(func=cmd_fuzz)

    suite_parser = commands.add_parser(
        "suite", help="list registered benchmarks, or promote corpus "
                      "reproducers and fuzzer programs into the suite")
    suite_parser.add_argument(
        "action", nargs="?", choices=("list", "promote"), default="list",
        help="'list' (default) prints the registry; 'promote' "
             "differential-verifies programs and adds them to the "
             "promoted suite (src/repro/suite/promoted_programs.json)")
    suite_parser.add_argument("--category", choices=("int", "fp"))
    suite_parser.add_argument("--suite")
    suite_parser.add_argument(
        "--corpus", action="append", metavar="PATH",
        help="promote: a corpus .mc file (NAME.inputs.json beside it) "
             "or a directory of such pairs; repeatable")
    suite_parser.add_argument(
        "--fuzz-seed", action="append", type=int, metavar="N",
        help="promote: generate the fuzzer program with case seed N "
             "and promote it; repeatable")
    suite_parser.add_argument(
        "--split", choices=("train", "novel"), default="train",
        help="promote: experiment-set partition for the programs "
             "promoted by this invocation (default train)")
    suite_parser.add_argument(
        "--registry-file", metavar="FILE",
        help="promote: write to FILE instead of the committed "
             "promoted_programs.json (tests use a scratch file)")
    suite_parser.add_argument("--json", action="store_true")
    suite_parser.set_defaults(func=cmd_suite)

    sim_parser = commands.add_parser(
        "simulate", help="simulate one benchmark under a case study's "
                         "baseline heuristic")
    sim_parser.add_argument("benchmark")
    sim_parser.add_argument(
        "--case", default=None, choices=CASE_NAMES,
        help="case study (default: the artifact's, else hyperblock)")
    sim_parser.add_argument("--dataset", default="train",
                            choices=("train", "novel"))
    sim_parser.add_argument("--json", action="store_true",
                            help="print machine-readable JSON instead of "
                                 "the counter table")
    sim_parser.add_argument(
        "--artifact", metavar="ID",
        help="simulate under a published heuristic artifact (id or "
             "unambiguous prefix) instead of the case baseline; an "
             "explicit --case must name the artifact's case study")
    sim_parser.add_argument(
        "--artifact-store", metavar="DIR",
        help="artifact store directory (default: "
             "$REPRO_ARTIFACT_STORE or ./artifacts)")
    _add_fitness_cache_flags(sim_parser)
    _add_obs_flags(sim_parser)
    sim_parser.set_defaults(func=cmd_simulate)

    evolve_parser = commands.add_parser(
        "evolve", help="evolve a specialized priority function")
    evolve_parser.add_argument(
        "case", nargs="?",
        choices=CASE_NAMES)
    evolve_parser.add_argument("benchmark", nargs="?")
    evolve_parser.add_argument("--pop", type=int, default=24)
    evolve_parser.add_argument("--gens", type=int, default=10)
    evolve_parser.add_argument("--seed", type=int, default=0)
    evolve_parser.add_argument("--noise", type=float, default=0.0)
    evolve_parser.add_argument(
        "--processes", type=int, default=1,
        help="fan fitness evaluations out over a process pool "
             "(1 = serial, the seed-identical reference path)")
    _add_fleet_flag(evolve_parser)
    _add_verify_flag(evolve_parser)
    _add_surrogate_flags(evolve_parser)
    _add_fitness_cache_flags(evolve_parser)
    _add_campaign_flags(evolve_parser)
    _add_obs_flags(evolve_parser)
    evolve_parser.set_defaults(func=cmd_evolve)

    general_parser = commands.add_parser(
        "generalize",
        help="evolve one general-purpose priority function over a "
             "training suite (DSS), optionally cross-validating")
    general_parser.add_argument(
        "case", nargs="?",
        choices=CASE_NAMES)
    general_parser.add_argument(
        "--train", help="comma-separated training benchmarks")
    general_parser.add_argument(
        "--test", help="comma-separated unseen benchmarks to "
                       "cross-validate the evolved function on")
    general_parser.add_argument(
        "--subset-size", type=int, default=None,
        help="DSS subset size (default: |train|/2 + 1)")
    general_parser.add_argument("--pop", type=int, default=24)
    general_parser.add_argument("--gens", type=int, default=10)
    general_parser.add_argument("--seed", type=int, default=0)
    general_parser.add_argument("--noise", type=float, default=0.0)
    general_parser.add_argument("--processes", type=int, default=1)
    _add_fleet_flag(general_parser)
    _add_verify_flag(general_parser)
    _add_surrogate_flags(general_parser)
    _add_fitness_cache_flags(general_parser)
    _add_campaign_flags(general_parser)
    _add_obs_flags(general_parser)
    general_parser.set_defaults(func=cmd_generalize)

    artifacts_parser = commands.add_parser(
        "artifacts", help="inspect the heuristic artifact store")
    artifacts_parser.add_argument(
        "action", choices=("list", "show", "verify", "lineage",
                           "channels"))
    artifacts_parser.add_argument(
        "id", nargs="?",
        help="artifact id or unambiguous prefix (show/verify/lineage)")
    artifacts_parser.add_argument(
        "--store", metavar="DIR",
        help="artifact store directory (default: "
             "$REPRO_ARTIFACT_STORE or ./artifacts)")
    artifacts_parser.add_argument(
        "--case", help="list: only artifacts for this case study")
    artifacts_parser.add_argument(
        "--machine", help="list: only artifacts for this machine")
    artifacts_parser.add_argument(
        "--channel", choices=("stable", "canary"),
        help="list: only artifacts a track currently points at")
    artifacts_parser.add_argument("--json", action="store_true")
    artifacts_parser.set_defaults(func=cmd_artifacts)

    cache_parser = commands.add_parser(
        "cache", help="inspect the persistent fitness cache "
                      "(stats summary or record export)")
    cache_parser.add_argument("action", choices=("stats", "export"))
    cache_parser.add_argument(
        "--case", help="export: only records from this case study")
    cache_parser.add_argument(
        "--benchmark", help="export: only records for this benchmark")
    cache_parser.add_argument(
        "--limit", type=int, metavar="N",
        help="export: stop after N records")
    cache_parser.add_argument("--json", action="store_true")
    _add_fitness_cache_flags(cache_parser)
    cache_parser.set_defaults(func=cmd_cache)

    serve_parser = commands.add_parser(
        "serve", help="run the compile/evaluate HTTP daemon "
                      "(see docs/SERVING.md)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8347,
                              help="listen port (0 = ephemeral)")
    serve_parser.add_argument("--workers", type=int, default=2,
                              help="worker threads draining the job "
                                   "queue")
    serve_parser.add_argument("--queue-capacity", type=int, default=16,
                              help="bounded queue size; beyond this, "
                                   "submissions get 429 + Retry-After")
    serve_parser.add_argument("--job-timeout", type=float, default=None,
                              metavar="SECONDS",
                              help="per-job deadline (queued or running "
                                   "past it, a job is marked timeout)")
    serve_parser.add_argument("--drain-timeout", type=float, default=None,
                              metavar="SECONDS",
                              help="max seconds the SIGTERM drain waits "
                                   "for in-flight jobs")
    serve_parser.add_argument(
        "--artifact-store", metavar="DIR",
        help="artifact store served under /v1/artifacts (default: "
             "$REPRO_ARTIFACT_STORE or ./artifacts)")
    serve_parser.add_argument(
        "--batch-concurrency", type=int, default=4,
        help="max concurrent /v1/evaluate-batch streams before the "
             "server sheds load with 429 + Retry-After")
    serve_parser.add_argument(
        "--metrics", action="store_true",
        help="collect repro.obs metrics and expose them on /metrics")
    serve_parser.add_argument(
        "--autopilot", metavar="DIR",
        help="enable online continuous re-optimization "
             "(docs/AUTOPILOT.md); DIR holds monitor state, campaign "
             "run directories, and the decision log")
    serve_parser.add_argument(
        "--autopilot-config", metavar="FILE",
        help="JSON file of AutopilotConfig overrides (sample rate, "
             "threshold, canary fraction, campaign sizing)")
    _add_fitness_cache_flags(serve_parser)
    serve_parser.set_defaults(func=cmd_serve)

    submit_parser = commands.add_parser(
        "submit", help="submit one evaluation to a running "
                       "'repro serve' daemon and wait for the result")
    submit_parser.add_argument("benchmark")
    submit_parser.add_argument(
        "--url", default="http://127.0.0.1:8347",
        help="base URL of the serving daemon")
    submit_parser.add_argument(
        "--case", default=None,
        choices=CASE_NAMES,
        help="case study (default: the artifact's, else hyperblock)")
    submit_parser.add_argument("--dataset", default="train",
                               choices=("train", "novel"))
    submit_parser.add_argument("--artifact", metavar="ID",
                               help="evaluate under this published "
                                    "artifact (id or prefix)")
    submit_parser.add_argument("--timeout", type=float, default=60.0)
    submit_parser.add_argument("--retries", type=int, default=5)
    submit_parser.add_argument("--json", action="store_true")
    submit_parser.set_defaults(func=cmd_submit)

    return parser


def _json_failure(message: str, code: int) -> int:
    """The uniform ``--json`` failure document: every subcommand that
    fails under ``--json`` emits exactly one JSON object on stdout."""
    print(json.dumps({"schema": 1, "ok": False, "error": message},
                     indent=2, sort_keys=True))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    json_mode = bool(getattr(args, "json", False))
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe (``| head``) fails here
        return code
    except KeyboardInterrupt:
        raise
    except BrokenPipeError:
        # The ``signal`` docs' recipe: nothing more goes to the pipe.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SystemExit as exc:
        # Subcommands raise SystemExit("message") on usage errors;
        # under --json that human text must become the JSON error
        # document (single object on stdout, non-zero exit).
        if json_mode and isinstance(exc.code, str):
            return _json_failure(exc.code, 2)
        raise
    except Exception as exc:
        # Domain errors (unknown benchmark, bad artifact, unreadable
        # run dir, ...): JSON object under --json, otherwise keep the
        # original exception so non-JSON behaviour is unchanged.
        if json_mode:
            return _json_failure(f"{type(exc).__name__}: {exc}", 1)
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
