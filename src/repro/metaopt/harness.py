"""The Meta Optimization evaluation harness.

Wraps the compiler + simulator into the fitness function of Figure 2:
a candidate priority function is installed into its case study's hook,
every training benchmark is compiled and simulated, and fitness is the
average speedup over the baseline-compiled binaries.  The harness is
also a campaign's serial evaluator: its ``evaluate_batch`` scores a
generation's jobs in order, behind the :class:`EvaluatorProtocol` it
shares with the process pool, the fleet and the surrogate
(:func:`make_evaluator` picks the backend).

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
* decision trie (``hyperblock`` only) — per benchmark, the
  if-conversion verdict sequences compiles have made, each ending in
  a leaf of the simulations that phenotype was given, per dataset: a
  candidate walks it with its priority alone, and a walk that ends in
  a leaf holding its dataset skips the compile altogether;
* content-digest memo (every other backend hook) — the simulation of
  one IR as it leaves the hook's stage (the scheduled binary when the
  candidate steers ``prepare`` or scheduling), shared by every
  candidate that produces it: a hit skips the rest of the backend and
  the simulator;
* simulator codegen LRU (in :mod:`repro.machine.sim`) — the generated
  function of each scheduled function of one binary.

Each evaluation is answered by one layer: ``memo``, ``fitness_cache``,
``decisions``, ``digest`` or ``sim`` (a fresh simulation).  The
harness tallies the answers, and every layer counter of
:meth:`EvaluationHarness.stats` and of the ``harness.*`` metrics
derives from that one tally; an evaluation that raises is counted
nowhere.
"""

from __future__ import annotations

import threading
import zlib
from collections import Counter
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    NamedTuple,
    Protocol,
    runtime_checkable,
)

from repro import obs
from repro.gp.generate import PrimitiveSet
from repro.gp.genome import FlagsGenome, expression_text
from repro.gp.nodes import Node
from repro.machine.descr import (
    DEFAULT_EPIC,
    ITANIUM_MACHINE,
    MachineDescription,
    REGALLOC_MACHINE,
    SCHEDULING_MACHINE,
    SimResult,
)
from repro.metaopt.baselines import BASELINE_TREES
from repro.metaopt.fitness_cache import (
    FitnessCache,
    machine_fingerprint,
    pipeline_fingerprint,
)
from repro.metaopt.psets import PSETS
from repro.metaopt.priority import PriorityFunction
from repro.metaopt.settings import EvalSettings
from repro.passes.hyperblock import DEFAULT_MAX_OPS, PathInfo, decide
from repro.passes.pipeline import (
    STAGE_BY_HOOK,
    BackendReport,
    CompilerOptions,
    PreparedProgram,
    compile_backend,
    prepare,
    with_artifact,
)
from repro.suite.registry import get as get_benchmark

# The frontend, the simulator and the snapshot layer are imported where
# a compile starts (``_prepare``, ``_compile_and_simulate``,
# ``_compile``): an evaluation the fitness cache answers loads none.
if TYPE_CHECKING:
    from repro.machine.sim import Simulator
    from repro.passes.snapshot import PipelineSnapshot


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
        if surrogate and self.stage == "hyperblock":
            raise ValueError(
                f"the {self.name} case does not support --surrogate: its "
                "decision trie already answers almost every evaluation "
                "without a simulation, so a prescreen saves at most one "
                "simulation at twice the wall time (docs/SURROGATE.md)")
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
    * unroll — prepare-stage extension: the unroll-factor score,
      evolved on the Table 3 machine;
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


def _priority_key(priority) -> tuple:
    if isinstance(priority, Node):
        return ("tree",) + priority.structural_key()
    if isinstance(priority, PriorityFunction):
        return ("tree",) + priority.tree.structural_key()
    if isinstance(priority, FlagsGenome):
        return priority.structural_key()  # ("flags", gene values...)
    # The callable itself, not its id(): a memo key that holds it keeps
    # it alive, so CPython cannot hand its address to another callable.
    return ("native", priority)


def _noise_seed(key: tuple) -> int:
    """Seed of a noisy measurement of memo key ``key``.  crc32, not
    hash(): stable across interpreter runs, so memoized noisy
    measurements are reproducible.  A native callable is named by
    ``module:qualname``, so its seed does not depend on what else the
    process has evaluated."""
    priority_key, benchmark, dataset = key
    if priority_key[0] == "native":
        native = priority_key[1]
        name = (f"{getattr(native, '__module__', '')}:"
                f"{getattr(native, '__qualname__', '')}")
        key = (("native", name), benchmark, dataset)
    return zlib.crc32(repr(key).encode())


#: Step budget of the training profile's run and of the differential
#: guard's reference interpreter run.
MAX_INTERP_STEPS = 10_000_000


def _as_hook(priority):
    if isinstance(priority, Node):
        return PriorityFunction(priority)
    return priority


class Answer(NamedTuple):
    """One evaluation below the cycles memo, as the memo keeps it."""

    layer: str  # "fitness_cache", "decisions", "digest" or "sim"
    result: SimResult
    diverged: bool = False  # the differential guard's verdict
    #: True when the fitness cache missed and was written, False when
    #: it missed and the result diverged; None when it did not miss
    stored: bool | None = None


#: the counters an answer of each layer adds to, in ``stats()`` and,
#: as ``harness.<name>``, in the metrics (a memo hit, counted without
#: the lock, reaches ``stats()`` alone)
_COUNTERS = {
    "memo": ("memo_hits",),
    "fitness_cache": ("persistent_cache_hits",),
    "decisions": ("decision_hits",),
    "digest": ("compiles", "digest_hits"),
    "sim": ("compiles", "sims"),
}


class _Region:
    """A decision-trie node: the region evaluation if-conversion reaches
    next, given the verdicts on the path to it.  ``children`` maps a
    verdict (converted or not) to the next node, or, when no region
    follows, to a leaf: the phenotype's results by dataset."""

    __slots__ = ("function", "paths", "head_ops", "children")

    def __init__(self, function: str, paths: list[PathInfo],
                 head_ops: int) -> None:
        self.function = function
        self.paths = paths
        self.head_ops = head_ops
        self.children: dict[bool, _Region | dict[str, SimResult]] = {}


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
        self._cycles_memo: dict[tuple, Answer] = {}
        #: answers by (layer, stored), the record ``stats()`` reads; a
        #: memo hit counts without the lock (exact on one thread)
        self._tally: Counter[tuple] = Counter()
        #: held across a ``simulate`` miss; a memo hit never takes it
        self._miss_lock = threading.Lock()
        #: the stage whose output the phenotype memo keys on (the
        #: decision trie on ``hyperblock``, else the content-digest
        #: memo): distinct candidates often leave it with identical IR,
        #: whose compiles and simulations are identical under zero
        #: noise.  ``flags``
        #: varies backend options and prepare-stage cases have no hook
        #: stage, so they key on the scheduled binary.  Noise is keyed
        #: per candidate and the differential guard wants a live
        #: simulator, so both switch it off, and it rides the snapshot
        #: switch so ``use_snapshots=False`` is the exact seed path.
        self._memo_stage = (stage or "schedule") if (
            settings.use_snapshots
            and settings.noise_stddev == 0.0
            and not settings.verify_outputs) else None
        #: content-addressed simulation memo, keyed by (digest after
        #: ``_memo_stage``, benchmark, dataset): everything after the
        #: probe reads only that IR and constants of the case
        self._digest_memo: dict[tuple, SimResult] = {}
        #: decision trie root per benchmark, in place of the digest memo
        #: when its stage is ``hyperblock``: equal verdict sequences
        #: leave if-conversion with equal IR, and a node's paths were
        #: computed from the IR the verdicts above it shaped, so a walk
        #: reads no IR, and the train profile they were read from
        #: serves every dataset
        self._decision_tries: dict[str, _Region | dict[str, SimResult]] = {}
        self._decision_vectors = 0  # the tries' leaves
        self._baseline_tree = None
        #: per-(benchmark, dataset) interpreter reference observables
        self._reference_memo: dict[tuple, tuple] = {}
        #: per-(benchmark, dataset) input arrays, generated once; shared
        #: safely because every ``set_global`` copies the values
        self._inputs_memo: dict[tuple, dict[str, list]] = {}
        #: (benchmark, dataset, Divergence) records for reporting
        self.divergences: list = []
        self.snapshot_hits = 0
        #: total simulated machine cycles across fresh (uncached) runs —
        #: the "simulated time" counterpart of wall-clock telemetry
        self.sim_cycles = 0

    # -- candidate-independent stages ------------------------------------
    def _inputs(self, benchmark: str, dataset: str) -> dict[str, list]:
        """The benchmark's ``dataset`` arrays, memoized: read them, do
        not mutate them."""
        key = (benchmark, dataset)
        inputs = self._inputs_memo.get(key)
        if inputs is None:
            inputs = self._inputs_memo[key] = \
                get_benchmark(benchmark).inputs(dataset)
        return inputs

    def _prepare(self, benchmark: str,
                 options: CompilerOptions) -> PreparedProgram:
        from repro.frontend import compile_source

        bench = get_benchmark(benchmark)
        module = compile_source(bench.source, bench.name)
        return prepare(module, self._inputs(benchmark, "train"), options,
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
        return self._answer(priority, benchmark, dataset).result

    def _answer(self, priority, benchmark: str, dataset: str) -> Answer:
        """The memo's :class:`Answer`, tallied by layer."""
        key = (_priority_key(priority), benchmark, dataset)
        answer = self._cycles_memo.get(key)
        if answer is None:
            with self._miss_lock:
                answer = self._cycles_memo.get(key)
                if answer is None:
                    answer = self._simulate_miss(priority, key)
                    self._tally[answer.layer, answer.stored] += 1
                    for name in _COUNTERS[answer.layer]:
                        obs.inc("harness." + name)
                    self._cycles_memo[key] = answer
                    return answer
        self._tally["memo", None] += 1
        return answer

    def _simulate_miss(self, priority, key: tuple) -> Answer:
        """Everything below the cycles memo, under ``_miss_lock``."""
        _, benchmark, dataset = key
        persist_key = None
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
                return Answer("fitness_cache", stored)

        options = with_artifact(self.case.options_for(_as_hook(priority)))
        result = None
        if self._memo_stage == "hyperblock":
            leaf = self._walk_decisions(benchmark, options)
            if leaf is not None:
                result = leaf.get(dataset)
        if result is not None:
            layer, diverged = "decisions", False
        else:
            layer, result, diverged = self._compile_and_simulate(
                options, key)
        if persist_key is None:
            return Answer(layer, result, diverged)
        if not diverged:
            self.fitness_cache.put(
                persist_key, result,
                meta=self._persist_meta(priority, benchmark, dataset))
        return Answer(layer, result, diverged, stored=not diverged)

    def _compile_and_simulate(self, options: CompilerOptions,
                              key: tuple) -> tuple[str, SimResult, bool]:
        """``(layer, result, diverged)`` of a compile under ``options``:
        answered by the content-digest memo or by a fresh simulation,
        which a ``hyperblock`` compile records in the decision trie."""
        from repro.machine.sim import Simulator

        _, benchmark, dataset = key
        if self.case.steers_prepare:
            # The candidate steers unrolling (or the whole
            # flag set): the "candidate-independent" prefix is rebuilt
            # per genome (the cycles memo above answers repeats).
            prep = self._prepare(benchmark, options)
        else:
            prep = self.prepared(benchmark)

        # Content-digest layer (see ``_memo_stage``): the compile asks
        # it once, right after the hook's stage.  On ``hyperblock`` the
        # decision trie is that layer instead.
        digest_key = stored = None

        def probe(ir) -> bool:
            nonlocal digest_key, stored
            digest_key = (ir.content_digest(), benchmark, dataset)
            stored = self._digest_memo.get(digest_key)
            return stored is not None

        stop_after = None
        if self._memo_stage not in (None, "hyperblock"):
            stop_after = (self._memo_stage, probe)
        scheduled, report = self._compile(prep, options, benchmark,
                                          stop_after)
        if stored is not None:
            layer, result, diverged = "digest", stored, False
        else:
            layer = "sim"
            simulator = Simulator(
                scheduled,
                self.case.machine,
                noise_stddev=self.settings.noise_stddev,
                noise_seed=_noise_seed(key),
            )
            for name, values in self._inputs(benchmark, dataset).items():
                simulator.set_global(name, values)
            result = simulator.run()
            self.sim_cycles += result.cycles
            if digest_key is not None:
                self._digest_memo[digest_key] = result
            diverged = self.settings.verify_outputs and \
                self._check_against_reference(
                    benchmark, dataset, simulator, result, scheduled)
        if self._memo_stage == "hyperblock":
            self._record_decisions(benchmark, report, dataset, result)
        return layer, result, diverged

    # -- decision trie -----------------------------------------------------
    def _walk_decisions(self, benchmark: str, options: CompilerOptions
                        ) -> dict[str, SimResult] | None:
        """The leaf of the verdicts ``options`` makes, from calls of its
        hyperblock priority alone; ``None`` where the trie does not
        reach (a verdict no compile has made yet)."""
        node = self._decision_tries.get(benchmark)
        while isinstance(node, _Region):
            _, converted, _ = decide(
                node.paths, options.hyperblock_priority, options.machine,
                options.hyperblock_threshold, DEFAULT_MAX_OPS,
                node.head_ops)
            node = node.children.get(converted)
        return node

    def _record_decisions(self, benchmark: str, report: BackendReport,
                          dataset: str, result: SimResult) -> None:
        """Store ``result`` at the leaf of a compile's verdict sequence
        (in evaluation order); the prefix a walk already knew is only
        followed."""
        slots, key = self._decision_tries, benchmark
        for function, formation in report.hyperblock.items():
            for decision in formation.decisions:
                node = slots.get(key)
                if node is None:
                    node = slots[key] = _Region(
                        function, decision.paths, decision.head_ops)
                slots, key = node.children, decision.converted
        leaf = slots.get(key)
        if leaf is None:
            leaf = slots[key] = {}
            self._decision_vectors += 1
        leaf[dataset] = result

    def _persist_meta(self, priority, benchmark: str,
                      dataset: str) -> dict:
        """Provenance record stored beside a persisted result so
        :meth:`FitnessCache.scan` (and the surrogate trainer mining it)
        can recover the expression behind each cycle count.  Only built
        for tree-keyed priorities, which are the only persistable ones.
        The two fingerprints are those of the cache key, so a miner can
        keep only the records today's compiles could produce.
        """
        tree = priority.tree if isinstance(priority, PriorityFunction) \
            else priority
        return {
            "expression": expression_text(tree),
            "case": self.case.name,
            "pipeline": pipeline_fingerprint(),
            "machine": machine_fingerprint(self.case.machine),
            "benchmark": benchmark,
            "dataset": dataset,
            "noise_stddev": self.settings.noise_stddev,
            "verified": self.settings.verify_outputs,
        }

    def _compile(self, prep: PreparedProgram, options: CompilerOptions,
                 benchmark: str, stop_after=None):
        """``compile_backend``'s (scheduled module, report), through the
        forking layer when on: the shared prefix is restored from the
        program's snapshot and only the hook's suffix runs
        (docs/FORKING.md).  ``stop_after`` is passed through: a probe
        that ends the compile makes the result ``None``.  Runs under
        ``_miss_lock``, so the first compile builds the snapshot once."""
        from repro.passes.snapshot import build_snapshot

        snapshot = None
        if self._fork_stage is not None:
            snapshot = self._snapshots.get(benchmark)
            if snapshot is None:
                snapshot = self._snapshots[benchmark] = build_snapshot(
                    prep, options, self._fork_stage)
            else:
                self.snapshot_hits += 1
        return compile_backend(prep, options, snapshot=snapshot,
                               stop_after=stop_after)

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
        interp = Interpreter(prep.module, max_steps=MAX_INTERP_STEPS)
        for name, values in self._inputs(benchmark, dataset).items():
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

    def _check_against_reference(self, benchmark: str, dataset: str,
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
        answer = self._answer(priority, benchmark, dataset)
        candidate = answer.result.cycles
        if answer.diverged or candidate <= 0:
            return 0.0
        return baseline / candidate

    # -- EvaluatorProtocol -------------------------------------------------
    def evaluate_batch(
            self, jobs: Iterable[tuple[Node, str]]) -> list[float]:
        """The ``train`` speedups of ``(tree, benchmark)`` jobs, in job
        order: the serial backend, whose values the pool and the fleet
        reproduce bit-identically."""
        return [self.speedup(tree, benchmark) for tree, benchmark in jobs]

    def close(self) -> None:
        """Nothing to release: the harness holds memos, no workers."""

    def stats(self) -> dict[str, int]:
        """Telemetry counters for event streams and progress reports.

        Each tallied answer adds to ``memo_lookups`` and its layer's
        ``_COUNTERS``, and to ``fitness_cache_misses`` (and ``_stores``)
        when the cache missed (and was written); one that raised is in
        none.  ``sim_cycles``, ``snapshot_*`` and ``divergences`` are
        counted where they happen."""
        counts: Counter[str] = Counter()
        for (layer, stored), count in self._tally.items():
            counts["memo_lookups"] += count
            for name in _COUNTERS[layer]:
                counts[name] += count
            if stored is not None:
                counts["fitness_cache_misses"] += count
                counts["fitness_cache_stores"] += count * stored
        counters = {
            "compiles": counts["compiles"],
            "sims": counts["sims"],
            "sim_cycles": self.sim_cycles,
            "memo_lookups": counts["memo_lookups"],
            "memo_hits": counts["memo_hits"],
            "persistent_cache_hits": counts["persistent_cache_hits"],
            "digest_hits": counts["digest_hits"],
            "decision_hits": counts["decision_hits"],
        }
        if self._memo_stage == "hyperblock":
            counters["decision_vectors"] = self._decision_vectors
        if self.settings.verify_outputs:
            counters["divergences"] = len(self.divergences)
        if self.settings.use_snapshots:
            counters["snapshot_hits"] = self.snapshot_hits
            counters["snapshot_builds"] = len(self._snapshots)
        if self.fitness_cache is not None:
            counters["fitness_cache_misses"] = counts["fitness_cache_misses"]
            counters["fitness_cache_stores"] = counts["fitness_cache_stores"]
        return counters


@runtime_checkable
class EvaluatorProtocol(Protocol):
    """The shared evaluator surface: the fitness of ``(tree,
    benchmark)`` jobs, always the ``train`` speedup of Figure 2.

    :class:`EvaluationHarness` itself (serial),
    :class:`~repro.metaopt.parallel.ParallelEvaluator` (process pool),
    :class:`~repro.fleet.FleetEvaluator` (distributed) and
    :class:`~repro.surrogate.SurrogateEvaluator` (learned prescreen)
    all implement it, so the GP engine, the experiments runner, and the
    benchmarks can swap evaluation backends without caring which one
    they hold; :class:`~repro.gp.engine.GPEngine` refuses an evaluator
    without ``evaluate_batch`` with a ``TypeError``.  Every backend
    evaluates on one campaign harness (or forked copies of it).  The
    contract:

    * **callers pass distinct jobs** — the GP engine owns the one
      fitness memo (it rides the checkpoint) and never dispatches a
      ``(structural_key, benchmark)`` pair twice, within a batch or
      across batches; evaluators do not dedupe;
    * ``evaluate_batch`` returns fitness values **in job order**,
      regardless of completion order (order-independent reduction);
    * equal :class:`~repro.metaopt.settings.EvalSettings` produce
      bit-identical values on every backend;
    * ``stats()`` is cheap and side-effect free and includes the
      harness's counters; ``close()`` is idempotent.

    There is no single-pair call: the engine fills its memo a
    generation at a time through one ``evaluate_batch`` call, and
    finalization scores on the harness's ``speedup`` (train and novel
    data).
    """

    def evaluate_batch(
        self, jobs: Iterable[tuple[Node, str]]) -> list[float]: ...

    def stats(self) -> dict[str, int]: ...

    def close(self) -> None: ...


def make_evaluator(harness: EvaluationHarness, *, processes: int = 1,
                   fleet: str | None = None) -> EvaluatorProtocol:
    """The campaign's fitness evaluator over ``harness``:

    * ``fleet`` set (e.g. ``"host:1234,host:1235"``) — a
      :class:`~repro.fleet.FleetEvaluator` sharding batches across
      running serve daemons;
    * ``processes > 1`` — a
      :class:`~repro.metaopt.parallel.ParallelEvaluator` process pool
      forked from ``harness``;
    * otherwise — ``harness`` itself.

    All three are bit-identical for equal settings.  The caller runs
    :meth:`CaseStudy.check_campaign` first, as the experiment session
    does: this builds, it does not refuse.
    """
    if fleet is not None:
        from repro.fleet import FleetEvaluator  # lazy: avoid cycle

        return FleetEvaluator(harness, fleet)
    if processes > 1:
        from repro.metaopt.parallel import ParallelEvaluator

        return ParallelEvaluator(harness, processes)
    return harness
