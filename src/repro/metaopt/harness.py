"""The Meta Optimization evaluation harness.

Wraps the compiler + simulator into the fitness function of Figure 2:
a candidate priority function is installed into its case study's hook,
every training benchmark is compiled and simulated, and fitness is the
average speedup over the baseline-compiled binaries.

Costly work is reused in layers, mirroring the paper's memoization
("Our system memoizes benchmark fitnesses because fitness evaluations
are so costly").  Under one harness, outermost first:

* cycles memo — the :class:`SimResult` of one (expression structure,
  benchmark, dataset), baselines included: it answers the baseline
  half of every ``speedup()`` and the daemon's hot ``evaluate``;
* persistent fitness cache (``settings.fitness_cache_dir``,
  :class:`~repro.metaopt.fitness_cache.FitnessCache`) — the same
  result on disk, across processes and runs, skipping compile +
  simulate;
* prepared program — frontend, candidate-independent passes and the
  training profile, per benchmark;
* prefix snapshot — the backend state just before the hook's stage,
  per benchmark, shared by the whole population (docs/FORKING.md);
* content-digest memo — the simulation of one IR as it leaves the
  hook's stage (the scheduled binary when the candidate steers
  ``prepare`` or scheduling), shared by every candidate that produces
  it: a hit skips the rest of the backend and the simulator;
* simulator codegen LRU (in :mod:`repro.machine.sim`) — the generated
  block functions of one scheduled binary.
"""

from __future__ import annotations

import itertools
import threading
import zlib
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Iterable,
    Protocol,
    runtime_checkable,
)

from repro import obs
from repro.frontend import compile_source
from repro.gp.generate import PrimitiveSet
from repro.gp.genome import FlagsGenome, expression_text
from repro.gp.nodes import Node
from repro.machine.descr import (
    DEFAULT_EPIC,
    ITANIUM_MACHINE,
    MachineDescription,
    REGALLOC_MACHINE,
    SCHEDULING_MACHINE,
)
from repro.machine.sim import SimResult, Simulator
from repro.metaopt.baselines import BASELINE_TREES
from repro.metaopt.fitness_cache import FitnessCache
from repro.metaopt.psets import PSETS
from repro.metaopt.priority import PriorityFunction
from repro.metaopt.settings import EvalSettings
from repro.passes.pipeline import (
    STAGE_BY_HOOK,
    CompilerOptions,
    PreparedProgram,
    compile_backend,
    prepare,
)
from repro.passes.snapshot import PipelineSnapshot, build_snapshot
from repro.suite.registry import get as get_benchmark


def _identity_adapter(priority):
    return priority


def _scheduling_adapter(priority):
    from repro.metaopt.scheduling import make_schedule_priority

    return make_schedule_priority(priority)


#: THE case table — one row per case study: the CompilerOptions hook
#: its candidates occupy, its default machine, and the adapter from an
#: env-callable to the hook's native signature.  Everything else a
#: case can or cannot do is derived from the row (the properties of
#: :class:`CaseStudy`; docs/CASES.md has the matrix).  ``flags`` has no
#: hook: its genome IS the options delta and installs itself.
_CASE_TABLE = {
    "hyperblock": ("hyperblock_priority", DEFAULT_EPIC, _identity_adapter),
    "regalloc": ("spill_priority", REGALLOC_MACHINE, _identity_adapter),
    "prefetch": ("prefetch_priority", ITANIUM_MACHINE, _identity_adapter),
    "scheduling": ("schedule_priority", SCHEDULING_MACHINE,
                   _scheduling_adapter),
    "inline": ("inline_priority", DEFAULT_EPIC, _identity_adapter),
    "unroll": ("unroll_priority", DEFAULT_EPIC, _identity_adapter),
    "flags": (None, DEFAULT_EPIC, _identity_adapter),
}


@dataclass(frozen=True)
class CaseStudy:
    """One of the paper's case studies (or an extension), fully
    configured: the single description of a case.  The fields are the
    case's row of the table; the properties are what follows from it."""

    name: str
    machine: MachineDescription
    options: CompilerOptions
    hook: str | None
    adapter: Callable = _identity_adapter

    @property
    def pset(self):
        return PSETS[self.name]

    def baseline_tree(self):
        return BASELINE_TREES[self.name]()

    @property
    def stage(self) -> str | None:
        """The backend stage the hook steers; ``None`` when candidates
        steer :func:`repro.passes.pipeline.prepare` instead.  Such a
        case re-runs prepare per candidate and never forks pipeline
        snapshots — there is no shared prefix when the front of the
        pipeline itself varies."""
        return STAGE_BY_HOOK.get(self.hook)

    @property
    def steers_prepare(self) -> bool:
        return self.stage is None

    @property
    def tree_valued(self) -> bool:
        """Candidates are priority-function expression trees — what
        pool workers and fleet shards exchange as text, the surrogate
        featurizes and the artifact store holds."""
        return isinstance(self.pset, PrimitiveSet)

    @property
    def deployable(self) -> bool:
        """A champion can be published as a heuristic artifact:
        ``HeuristicArtifact.install`` runs inside ``compile_backend``,
        after ``prepare``, so only a backend hook can take effect."""
        return self.tree_valued and self.stage is not None

    def require_tree_valued(self) -> "CaseStudy":
        """``self``, for the callers that deploy or exchange expression
        trees (``simulate``, the daemon's endpoints)."""
        if not self.tree_valued:
            raise ValueError(
                f"the {self.name} case evolves enum genomes, not "
                "priority-function trees; pick a tree-valued case "
                "(docs/CASES.md)")
        return self

    def options_for(self, priority) -> CompilerOptions:
        """Compiler options with ``priority`` installed in this case's
        hook (adapted to the hook's native signature if needed).  A
        candidate that is not a tree is a genome and installs itself
        across several option fields."""
        if self.hook is None:
            return priority.install(self.options)
        return replace(self.options,
                       **{self.hook: self.adapter(priority)})

    def check_campaign(self, *, processes: int = 1,
                       fleet: str | None = None, surrogate: bool = False,
                       publish: bool = False,
                       seed_expressions: tuple = ()) -> None:
        """Refuse, before anything is evaluated, what this case cannot
        ride: the one capability gate of a campaign."""
        if fleet is not None and processes > 1:
            raise ValueError(
                "--fleet and --processes are mutually exclusive: the "
                "fleet already owns dispatch")
        if not self.tree_valued:
            if fleet is not None or processes > 1:
                # Pool workers and fleet shards ship candidates as
                # priority-function s-expressions.
                raise ValueError(
                    f"the {self.name} case only supports serial "
                    "evaluation — drop --processes/--fleet")
            if surrogate:
                raise ValueError(
                    f"the {self.name} case does not support --surrogate")
            if seed_expressions:
                raise ValueError(
                    f"the {self.name} case evolves enum genomes, not "
                    "expression trees; seed_expressions does not apply")
        if publish and not self.deployable:
            raise ValueError(
                f"the {self.name} case does not support --publish: an "
                "artifact is an expression tree installed in a backend "
                "hook")


def case_study(name: str,
               machine: MachineDescription | None = None) -> CaseStudy:
    """Build a case study with the paper's experimental setup.

    * hyperblock — Table 3 EPIC machine, full pipeline;
    * regalloc — same machine with small register files (Section 6.1);
    * prefetch — Itanium-like machine, prefetch pass enabled, fitness
      measured with real-machine noise handled by the caller;
    * scheduling — extension: the Section 2 list-scheduling priority,
      evolved on the Table 3 machine;
    * inline / unroll — prepare-stage extensions: inlining priority
      and unroll-factor score, evolved on the Table 3 machine;
    * flags — FOGA-style outer GA over CompilerOptions flags and the
      hyperblock/prefetch stage order (docs/CASES.md).
    """
    if name not in _CASE_TABLE:
        raise ValueError(f"unknown case study {name!r}")
    hook, default_machine, adapter = _CASE_TABLE[name]
    machine = machine or default_machine
    options = CompilerOptions(
        machine=machine,
        prefetch=(STAGE_BY_HOOK.get(hook) == "prefetch"),
    )
    return CaseStudy(name=name, machine=machine, options=options,
                     hook=hook, adapter=adapter)


#: Registry assigning each native callable a process-unique sequence
#: number for memo keys.  Keying by raw ``id()`` would be unsound:
#: CPython reuses addresses after garbage collection, so two distinct
#: (short-lived) natives could silently alias one memo entry.  The
#: registry holds a reference to every callable it has numbered, which
#: pins the id for the life of the process.
_NATIVE_KEY_LOCK = threading.Lock()
_NATIVE_KEYS: dict[int, tuple[object, int]] = {}
_NATIVE_SEQ = itertools.count()


def _native_sequence(priority) -> int:
    with _NATIVE_KEY_LOCK:
        entry = _NATIVE_KEYS.get(id(priority))
        if entry is None or entry[0] is not priority:
            entry = (priority, next(_NATIVE_SEQ))
            _NATIVE_KEYS[id(priority)] = entry
        return entry[1]


def _priority_key(priority) -> tuple:
    if isinstance(priority, Node):
        return ("tree",) + priority.structural_key()
    if isinstance(priority, PriorityFunction):
        return ("tree",) + priority.tree.structural_key()
    if isinstance(priority, FlagsGenome):
        return priority.structural_key()  # ("flags", gene values...)
    # Distinct native callables must not share memo entries (every
    # lambda has __qualname__ "<lambda>"), so include a kept-alive
    # registry sequence number.
    return ("native", getattr(priority, "__qualname__", ""),
            _native_sequence(priority))


#: Step budget of the reference interpreter, for the training profile
#: and the differential guard's reference run.
MAX_INTERP_STEPS = 10_000_000


def _as_hook(priority):
    if isinstance(priority, Node):
        return PriorityFunction(priority)
    return priority


class EvaluationHarness:
    """Compiles and simulates benchmarks under candidate priorities.

    All evaluation knobs live in one frozen :class:`EvalSettings`
    record (``settings``); equal settings produce bit-identical
    fitness values no matter which process or host holds the harness.
    ``settings.noise_stddev`` injects multiplicative Gaussian noise
    into cycle counts (Section 7.1's real-machine noise); the noise
    seed is derived from the memo key so repeated evaluations of the
    same candidate are reproducible, like the paper's memoized
    fitnesses.
    """

    def __init__(self, case: CaseStudy,
                 settings: EvalSettings | None = None) -> None:
        settings = settings if settings is not None else EvalSettings()
        self.case = case
        self.settings = settings
        #: persistent layer (repro.metaopt.fitness_cache); None when off
        self.fitness_cache = (
            FitnessCache(settings.fitness_cache_dir)
            if settings.fitness_cache_dir is not None else None)
        self._prepared: dict[str, PreparedProgram] = {}
        stage = case.stage
        #: compilation forking (docs/FORKING.md): the stage candidates
        #: replay from; None when off, for a prepare-stage case, and
        #: for a hook whose stage runs first (nothing upstream to share)
        self._fork_stage = stage if (
            settings.use_snapshots
            and stage != case.options.backend_order[0]) else None
        #: post-prefix state per benchmark: a case's options differ
        #: between candidates in the hook alone
        self._snapshots: dict[str, PipelineSnapshot] = {}
        self._cycles_memo: dict[tuple, SimResult] = {}
        #: ``simulate`` calls (lock-free, like the hit: exact on one
        #: thread) and those that went below the memo (under the lock)
        self.memo_lookups = 0
        self.memo_misses = 0
        #: held across a ``simulate`` miss; a memo hit never takes it
        self._miss_lock = threading.Lock()
        #: content-addressed simulation memo: distinct candidates often
        #: leave the hook's stage with identical IR, whose compiles and
        #: simulations are identical under zero noise.  Keyed by
        #: (digest after ``_memo_stage``, benchmark, dataset); everything
        #: after the probe reads only that IR and constants of the case.
        #: For ``hyperblock`` the probe sits after if-conversion and
        #: before the cleanup that follows it, so a hit skips that
        #: cleanup too.  ``flags`` varies backend options and prepare-stage
        #: cases have no hook stage, so they key on the scheduled
        #: binary.  Noise is keyed per candidate and the differential
        #: guard wants a live simulator, so both switch it off, and it
        #: rides the snapshot switch so ``use_snapshots=False`` is the
        #: exact seed path, digest cost included.
        self._memo_stage = (stage or "schedule") if (
            settings.use_snapshots
            and settings.noise_stddev == 0.0
            and not settings.verify_outputs) else None
        self._digest_memo: dict[tuple, SimResult] = {}
        self._baseline_tree = None
        #: per-(benchmark, dataset) interpreter reference observables
        self._reference_memo: dict[tuple, tuple] = {}
        #: memo keys whose simulation diverged from the interpreter
        self._diverged: set = set()
        #: (benchmark, dataset, Divergence) records for reporting
        self.divergences: list = []
        self.compile_count = 0
        self.sim_count = 0
        self.cache_hits = 0
        self.snapshot_hits = 0
        #: compiles ended at ``_memo_stage`` by a content-digest hit
        self.digest_hits = 0
        #: total simulated machine cycles across fresh (uncached) runs —
        #: the "simulated time" counterpart of wall-clock telemetry
        self.sim_cycles = 0

    # -- candidate-independent stages ------------------------------------
    def _prepare(self, benchmark: str,
                 options: CompilerOptions) -> PreparedProgram:
        bench = get_benchmark(benchmark)
        module = compile_source(bench.source, bench.name)
        return prepare(module, bench.inputs("train"), options,
                       max_steps=MAX_INTERP_STEPS)

    def prepared(self, benchmark: str) -> PreparedProgram:
        cached = self._prepared.get(benchmark)
        if cached is None:
            cached = self._prepare(benchmark, self.case.options)
            self._prepared[benchmark] = cached
        return cached

    # -- evaluation --------------------------------------------------------
    def simulate(self, priority, benchmark: str,
                 dataset: str = "train") -> SimResult:
        """Compile with ``priority`` installed and simulate on
        ``dataset``; memoized.  Safe on a harness threads share (the
        daemon's): a hit takes no lock, a miss is single-flight."""
        key = (_priority_key(priority), benchmark, dataset)
        self.memo_lookups += 1
        cached = self._cycles_memo.get(key)
        if cached is None:
            with self._miss_lock:
                cached = self._cycles_memo.get(key)
                if cached is None:
                    self.memo_misses += 1
                    # Published last: a lock-free hit must never see a
                    # result whose divergence verdict is still pending.
                    cached = self._simulate_miss(priority, key)
                    self._cycles_memo[key] = cached
        return cached

    def _simulate_miss(self, priority, key: tuple) -> SimResult:
        """Everything below the cycles memo, under ``_miss_lock``."""
        _, benchmark, dataset = key
        persist_key = None
        persist_meta = None
        if self.fitness_cache is not None:
            persist_key = self.fitness_cache.result_key(
                case_name=self.case.name,
                machine=self.case.machine,
                noise_stddev=self.settings.noise_stddev,
                priority_key=key[0],
                benchmark=benchmark,
                dataset=dataset,
                verified=self.settings.verify_outputs,
            )
        if persist_key is not None:
            stored = self.fitness_cache.get(persist_key)
            if stored is not None:
                self.cache_hits += 1
                obs.inc("harness.persistent_cache_hits")
                return stored
            persist_meta = self._persist_meta(priority, benchmark, dataset)

        options = self.case.options_for(_as_hook(priority))
        if self.case.steers_prepare:
            # The candidate steers inlining/unrolling (or the whole
            # flag set): the "candidate-independent" prefix is rebuilt
            # per genome (the cycles memo above answers repeats).
            prep = self._prepare(benchmark, options)
        else:
            prep = self.prepared(benchmark)

        # Content-digest layer (see ``_memo_stage``): the compile asks
        # it once, right after the hook's stage.
        digest_key = stored = None

        def probe(ir) -> bool:
            nonlocal digest_key, stored
            digest_key = (ir.content_digest(), benchmark, dataset)
            stored = self._digest_memo.get(digest_key)
            return stored is not None

        stop_after = None
        if self._memo_stage is not None:
            stop_after = (self._memo_stage, probe)
        scheduled = self._compile(prep, options, benchmark, stop_after)
        self.compile_count += 1
        obs.inc("harness.compiles")
        if stored is not None:
            self.digest_hits += 1
            obs.inc("harness.digest_hits")
            if persist_key is not None:
                self.fitness_cache.put(persist_key, stored,
                                       meta=persist_meta)
            return stored

        bench = get_benchmark(benchmark)
        simulator = Simulator(
            scheduled,
            self.case.machine,
            noise_stddev=self.settings.noise_stddev,
            # crc32, not hash(): stable across interpreter runs so
            # memoized noisy measurements are reproducible.
            noise_seed=zlib.crc32(repr(key).encode()),
        )
        for name, values in bench.inputs(dataset).items():
            simulator.set_global(name, values)
        result = simulator.run()
        self.sim_count += 1
        self.sim_cycles += result.cycles
        obs.inc("harness.sims")
        if digest_key is not None:
            self._digest_memo[digest_key] = result
        diverged = False
        if self.settings.verify_outputs:
            diverged = self._check_against_reference(
                key, benchmark, dataset, simulator, result, scheduled)
        if persist_key is not None and not diverged:
            self.fitness_cache.put(persist_key, result, meta=persist_meta)
        return result

    def _persist_meta(self, priority, benchmark: str,
                      dataset: str) -> dict:
        """Provenance record stored beside a persisted result so
        :meth:`FitnessCache.scan` (and the surrogate trainer mining it)
        can recover the expression behind each cycle count.  Only built
        for tree-keyed priorities, which are the only persistable ones.
        """
        tree = priority.tree if isinstance(priority, PriorityFunction) \
            else priority
        return {
            "expression": expression_text(tree),
            "case": self.case.name,
            "benchmark": benchmark,
            "dataset": dataset,
            "noise_stddev": self.settings.noise_stddev,
            "verified": self.settings.verify_outputs,
        }

    def _compile(self, prep: PreparedProgram, options: CompilerOptions,
                 benchmark: str, stop_after=None):
        """The scheduled module from ``compile_backend``, through the
        forking layer when on: the shared prefix is restored from the
        program's snapshot and only the hook's suffix runs
        (docs/FORKING.md).  ``stop_after`` is passed through: a probe
        that ends the compile makes the result ``None``.  Runs under
        ``_miss_lock``, so the first compile builds the snapshot once."""
        snapshot = None
        if self._fork_stage is not None:
            snapshot = self._snapshots.get(benchmark)
            if snapshot is None:
                snapshot = self._snapshots[benchmark] = build_snapshot(
                    prep, options, self._fork_stage)
            else:
                self.snapshot_hits += 1
        return compile_backend(prep, options, snapshot=snapshot,
                               stop_after=stop_after)[0]

    # -- differential guard ------------------------------------------------
    def _reference(self, benchmark: str, dataset: str) -> tuple:
        """Interpreter observables for (benchmark, dataset): a
        ``(result, globals, fault)`` triple, memoized."""
        ref_key = (benchmark, dataset)
        cached = self._reference_memo.get(ref_key)
        if cached is not None:
            return cached
        from repro.ir.interp import Interpreter, InterpError

        prep = self.prepared(benchmark)
        bench = get_benchmark(benchmark)
        interp = Interpreter(prep.module, max_steps=MAX_INTERP_STEPS)
        for name, values in bench.inputs(dataset).items():
            interp.set_global(name, values)
        result = fault = None
        globals_snapshot: dict[str, list] = {}
        try:
            result = interp.run()
            globals_snapshot = {
                name: interp.read_global(name)
                for name in prep.module.globals
            }
        except InterpError as exc:
            fault = str(exc)
        cached = (result, globals_snapshot, fault)
        self._reference_memo[ref_key] = cached
        return cached

    def _check_against_reference(self, key, benchmark: str, dataset: str,
                                 simulator: Simulator, result: SimResult,
                                 scheduled) -> bool:
        """Compare a fresh simulation against the interpreter; record
        and flag any divergence.  Returns True when diverged."""
        from repro.verify.differential import compare_executions

        interp_result, interp_globals, interp_fault = self._reference(
            benchmark, dataset)
        sim_globals = {
            name: simulator.read_global(name)
            for name in scheduled.module.globals
        }
        divergences = compare_executions(
            interp_result, result, interp_globals, sim_globals,
            interp_fault=interp_fault, sim_fault=None,
        )
        if not divergences:
            return False
        self._diverged.add(key)
        for divergence in divergences:
            self.divergences.append((benchmark, dataset, divergence))
        return True

    def baseline_tree(self):
        """The case's baseline expression, built once per harness (a
        fresh ``Node`` tree per call would be pure allocation churn —
        ``baseline_result`` runs inside every ``speedup``)."""
        if self._baseline_tree is None:
            self._baseline_tree = self.case.baseline_tree()
        return self._baseline_tree

    def baseline_result(self, benchmark: str,
                        dataset: str = "train") -> SimResult:
        return self.simulate(self.baseline_tree(), benchmark, dataset)

    def speedup(self, priority, benchmark: str,
                dataset: str = "train") -> float:
        """Execution-time speedup of ``priority`` over the baseline.

        With ``verify_outputs`` on, a candidate whose binary diverged
        from the interpreter gets worst-case fitness (0.0): a wrong
        answer computed quickly must never look like a speedup.
        """
        baseline = self.baseline_result(benchmark, dataset).cycles
        candidate = self.simulate(priority, benchmark, dataset).cycles
        if (_priority_key(priority), benchmark, dataset) in self._diverged:
            return 0.0
        if candidate <= 0:
            return 0.0
        return baseline / candidate

    def stats(self) -> dict[str, int]:
        """Telemetry counters for event streams and progress reports."""
        counters = {
            "compiles": self.compile_count,
            "sims": self.sim_count,
            "sim_cycles": self.sim_cycles,
            "memo_lookups": self.memo_lookups,
            "memo_hits": self.memo_lookups - self.memo_misses,
            "persistent_cache_hits": self.cache_hits,
            "digest_hits": self.digest_hits,
        }
        if self.settings.verify_outputs:
            counters["divergences"] = len(self.divergences)
        if self.settings.use_snapshots:
            counters["snapshot_hits"] = self.snapshot_hits
            counters["snapshot_builds"] = len(self._snapshots)
        if self.fitness_cache is not None:
            cache = self.fitness_cache.stats()
            counters["fitness_cache_misses"] = cache["misses"]
            counters["fitness_cache_stores"] = cache["stores"]
        return counters

    def evaluator(self, dataset: str = "train") -> "HarnessEvaluator":
        """The serial evaluator for the GP engine (fitness = speedup
        over baseline, Table 2): ``evaluate_batch`` simply evaluates
        the batch in order, preserving the serial seed semantics."""
        return HarnessEvaluator(self, dataset)


@dataclass
class HarnessEvaluator:
    """Serial fitness evaluator bound to one harness and dataset.

    Its ``evaluate_batch`` is the reference semantics the parallel and
    fleet evaluators must reproduce bit-identically.  Implements
    :class:`EvaluatorProtocol` so serial, process-pool, and fleet
    evaluation interchange freely.
    """

    harness: EvaluationHarness
    dataset: str = "train"

    def evaluate_batch(self, jobs) -> list[float]:
        return [
            self.harness.speedup(tree, benchmark, self.dataset)
            for tree, benchmark in jobs
        ]

    def stats(self) -> dict[str, int]:
        return dict(self.harness.stats())

    def close(self) -> None:
        """Nothing to release: the harness is owned by the caller."""

    def __enter__(self) -> "HarnessEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@runtime_checkable
class EvaluatorProtocol(Protocol):
    """The shared evaluator surface.

    :class:`HarnessEvaluator` (serial),
    :class:`~repro.metaopt.parallel.ParallelEvaluator` (process pool),
    and :class:`~repro.fleet.FleetEvaluator` (distributed) all
    implement it, so the GP engine, the experiments runner, and the
    benchmarks can swap evaluation backends without caring which one
    they hold.  An evaluator is bound at construction to one harness
    and one dataset.  The contract:

    * **callers pass distinct jobs** — the GP engine owns the one
      fitness memo (it rides the checkpoint) and never dispatches a
      ``(structural_key, benchmark)`` pair twice, within a batch or
      across batches; evaluators do not dedupe;
    * ``evaluate_batch`` returns fitness values **in job order**,
      regardless of completion order (order-independent reduction);
    * equal :class:`~repro.metaopt.settings.EvalSettings` produce
      bit-identical values on every backend;
    * ``stats()`` is cheap and side-effect free; ``close()`` is
      idempotent.

    There is no single-pair call: the engine fills its memo a
    generation at a time through ``evaluate_batch``, and finalization
    scores on the harness itself.
    """

    def evaluate_batch(
        self, jobs: Iterable[tuple[Node, str]]) -> list[float]: ...

    def stats(self) -> dict[str, int]: ...

    def close(self) -> None: ...


def make_evaluator(case_name: str,
                   settings: EvalSettings | None = None,
                   *,
                   processes: int = 1,
                   fleet: str | None = None,
                   dataset: str = "train",
                   harness: EvaluationHarness | None = None,
                   ) -> EvaluatorProtocol:
    """The one constructor entry point for fitness evaluators, and the
    one place a harness is built from ``(case_name, settings)`` — pass
    ``harness`` to evaluate on an existing one instead.  Every backend
    evaluates ``dataset`` on (copies of) that single harness:

    * ``fleet`` set (e.g. ``"host:1234,host:1235"``) — a
      :class:`~repro.fleet.FleetEvaluator` sharding batches across
      running serve daemons (mutually exclusive with ``processes > 1``);
    * ``processes > 1`` — a
      :class:`~repro.metaopt.parallel.ParallelEvaluator` process pool;
    * otherwise — the serial :class:`HarnessEvaluator`.

    All three speak :class:`EvaluatorProtocol` and are bit-identical
    for equal settings.
    """
    if harness is None:
        harness = EvaluationHarness(case_study(case_name), settings)
    harness.case.check_campaign(processes=processes, fleet=fleet)
    if fleet is not None:
        from repro.fleet import FleetEvaluator  # lazy: avoid cycle

        return FleetEvaluator(harness, fleet, dataset=dataset)
    if processes > 1:
        from repro.metaopt.parallel import ParallelEvaluator

        return ParallelEvaluator(harness, processes, dataset=dataset)
    return harness.evaluator(dataset)
