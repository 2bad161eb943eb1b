"""The Meta Optimization evaluation harness.

Wraps the compiler + simulator into the fitness function of Figure 2:
a candidate priority function is installed into its case study's hook,
every training benchmark is compiled and simulated, and fitness is the
average speedup over the baseline-compiled binaries.  The harness is
also a campaign's serial evaluator: its ``evaluate_batch`` scores a
generation's ``(individual, benchmark)`` jobs in order, keyed on the
structural key each individual cached, behind the
:class:`EvaluatorProtocol` it shares with the process pool, the fleet
and the surrogate (:func:`make_evaluator` picks the backend).

Costly work is reused in layers, mirroring the paper's memoization
("Our system memoizes benchmark fitnesses because fitness evaluations
are so costly").  Under one harness, outermost first:

* cycles memo — the :class:`SimResult` of one (expression structure,
  benchmark, dataset), baselines included: it answers the baseline
  half of every ``speedup()`` and the daemon's hot ``evaluate``;
* persistent fitness cache (``settings.fitness_cache_dir``,
  :class:`~repro.metaopt.fitness_cache.FitnessCache`) — the same
  result on disk, across processes and runs, skipping compile +
  simulate.  The harness builds it once with its case, machine, noise
  and verified flag, then hands it the memo key and, to store, the
  result and the expression text: the cache alone forms an entry's
  address and record;
* prepared program — frontend, candidate-independent passes and the
  training profile, per benchmark;
* prefix snapshot — the backend state just before the hook's stage,
  per benchmark, shared by the whole population (docs/FORKING.md);
* phenotype store (:class:`_PhenotypeStore`) — per benchmark, one
  record per phenotype: its results by dataset and, while a
  harness-wide LRU of ``_HELD_BINARY_CAPACITY`` keeps it, the binary
  its compile scheduled.  On ``hyperblock`` a phenotype is a leaf of a
  decision trie of if-conversion verdicts, which a candidate walks
  with its priority alone; elsewhere it is the content digest of the
  IR leaving the hook's stage (the scheduled binary when the candidate
  steers ``prepare`` or scheduling), which the compile probes there.
  A record holding the dataset's result skips the rest of the compile
  and the simulator, and one holding only the binary simulates it (an
  evicted binary compiles again), running the code the binary kept
  from its first simulation.  A candidate is linked to the record
  its walk, probe or compile reached, so its score on another dataset
  asks that record first;
* simulator codegen LRU (in :mod:`repro.machine.sim`) — the generated
  function of each scheduled function, for a fresh binary of equal
  content (a binary simulated before keeps its own).

Each evaluation is answered by one layer: ``memo``, ``fitness_cache``,
``decisions``, ``digest``, ``binary`` (a simulation of a held binary)
or ``sim`` (a compile and a fresh simulation).  The harness tallies
the answers, and every layer counter of :meth:`EvaluationHarness.stats`
and of the ``harness.*`` metrics derives from that one tally; an
evaluation that raises is counted nowhere.  A ``binary`` answer adds
to ``sims`` and ``binary_hits`` but not to ``compiles``, and a
``digest`` answer adds to ``compiles`` and ``digest_hits`` whether a
probe or a candidate's link found its record (neither runs a compile
past the probe), so ``compiles + binary_hits == digest_hits + sims`` and
``memo_lookups == memo_hits + persistent_cache_hits + decision_hits +
digest_hits + sims``.
"""

from __future__ import annotations

import threading
import zlib
from collections import Counter, OrderedDict
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
from repro.metaopt.fitness_cache import FitnessCache
from repro.metaopt.psets import PSETS
from repro.metaopt.priority import PriorityFunction
from repro.metaopt.settings import EvalSettings
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

# The frontend, the simulator, the snapshot layer and the hyperblock
# pass are imported where a compile, a simulation or a trie walk starts
# (``_prepare``, ``_run``, ``_compile``, ``_PhenotypeStore._walk``): an
# evaluation the fitness cache answers loads none.
if TYPE_CHECKING:
    from repro.gp.select import Individual
    from repro.machine.sim import Simulator
    from repro.machine.vliw import ScheduledModule
    from repro.passes.hyperblock import PathInfo
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
    """``("tree",)`` and an expression's structural key, a flags
    genome's own key or ``("native", callable)``; anything else is a
    job's ``Individual`` (not imported: ``simulate`` and the daemon
    never load the engine), whose key is cached."""
    if isinstance(priority, (Node, FlagsGenome)):
        key = priority.structural_key()
    elif isinstance(priority, PriorityFunction):
        key = priority.tree.structural_key()
    elif callable(priority):
        # The callable itself, not its id(): a memo key that holds it
        # keeps it alive, so CPython cannot hand its address to another
        # callable.
        return ("native", priority)
    else:
        key = priority.key
    return key if key[0] == "flags" else ("tree",) + key


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
    if isinstance(priority, FlagsGenome) or callable(priority):
        return priority
    return _as_hook(priority.tree)  # a job's Individual


class Answer(NamedTuple):
    """One evaluation below the cycles memo, as the memo keeps it."""

    #: "fitness_cache", "decisions", "digest", "binary" or "sim"
    layer: str
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
    "binary": ("sims", "binary_hits"),
    "sim": ("compiles", "sims"),
}

#: Scheduled binaries the phenotype records of one harness hold at
#: once, least recently used out first (modelled on the simulator's
#: ``_CODEGEN_CACHE_CAPACITY``).  A held binary is about 40-90 KB, and
#: a record is reused mostly by the ``novel`` score that follows its
#: ``train`` score at the end of a campaign.
_HELD_BINARY_CAPACITY = 32


class _Phenotype:
    """One phenotype's record, as a decision-trie leaf or a
    content-digest memo entry: its results by dataset and, while the
    store's LRU keeps it, the scheduled binary that produced them."""

    __slots__ = ("results", "binary")

    def __init__(self) -> None:
        self.results: dict[str, SimResult] = {}
        self.binary: ScheduledModule | None = None


class _Region:
    """A decision-trie node: the region evaluation if-conversion reaches
    next, given the verdicts on the path to it.  ``children`` maps a
    verdict (converted or not) to the next node, or, when no region
    follows, to a leaf: the phenotype's record."""

    __slots__ = ("paths", "head_ops", "children")

    def __init__(self, paths: list[PathInfo], head_ops: int) -> None:
        self.paths = paths
        self.head_ops = head_ops
        self.children: dict[bool, _Region | _Phenotype] = {}


class _PhenotypeStore:
    """The phenotype records of one harness (see the module docstring):
    :meth:`lookup` before a compile, :meth:`stop_after` for its probe,
    :meth:`record` after a fresh simulation.  ``stage`` is the stage
    whose output names a phenotype, ``None`` with the memo off; a store
    that names it only after ``schedule`` holds no binary (it is built
    by then)."""

    def __init__(self, stage: str | None) -> None:
        self.stage = stage
        #: (IR digest after ``stage``, benchmark) -> record
        self.digests: dict[tuple, _Phenotype] = {}
        #: (priority key, benchmark) -> the record found or made for it
        self.links: dict[tuple, _Phenotype] = {}
        #: decision-trie root per benchmark (``hyperblock`` only): equal
        #: verdict sequences leave if-conversion with equal IR, and a
        #: node's paths were computed from the IR the verdicts above it
        #: shaped, so a walk reads no IR, and the train profile they
        #: were read from serves every dataset
        self.tries: dict[str, _Region | _Phenotype] = {}
        self.decision_vectors = 0  # the tries' leaves
        #: the records whose binary is held, least recently used first
        self.held: OrderedDict[_Phenotype, None] = OrderedDict()

    def lookup(self, key: tuple, options: CompilerOptions,
               run: Callable) -> tuple[str, SimResult] | None:
        """``(layer, result)`` of memo key ``key`` from the candidate's
        linked record or, on the trie, the leaf its walk reaches: the
        stored result (``decisions`` or ``digest``) or ``run`` of the
        held binary (``binary``); ``None`` when neither is there."""
        priority_key, benchmark, dataset = key
        record = self.links.get((priority_key, benchmark))
        if record is None and self.stage == "hyperblock":
            record = self._walk(benchmark, options)
        if record is None:
            return None
        self.links[priority_key, benchmark] = record
        layer = "decisions" if self.stage == "hyperblock" else "digest"
        result = record.results.get(dataset)
        if result is None:
            if record.binary is None:
                return None
            _, result = run(record.binary, key)
            record.results[dataset] = result
            layer = "binary"
        if record.binary is not None:
            self.held.move_to_end(record)
        return layer, result

    def stop_after(self, key: tuple) -> tuple | None:
        """``compile_backend``'s ``stop_after``: a probe that links the
        candidate to its IR digest's record (made if new) and ends the
        compile when :meth:`lookup` can answer from it; ``None`` on the
        trie and with the memo off."""
        if self.stage in (None, "hyperblock"):
            return None
        priority_key, benchmark, dataset = key

        def probe(ir) -> bool:
            digest = (ir.content_digest(), benchmark)
            record = self.digests.get(digest)
            if record is None:
                record = self.digests[digest] = _Phenotype()
            self.links[priority_key, benchmark] = record
            return dataset in record.results or record.binary is not None

        return self.stage, probe

    def record(self, key: tuple, result: SimResult,
               binary: ScheduledModule, report: BackendReport) -> None:
        """Keep a fresh simulation's ``result`` (and ``binary``) in the
        leaf of the compile's verdicts, linked, or in the record the
        compile's probe linked; nothing with the memo off."""
        priority_key, benchmark, dataset = key
        if self.stage == "hyperblock":
            self.links[priority_key, benchmark] = self._leaf(benchmark,
                                                              report)
        record = self.links.get((priority_key, benchmark))
        if record is None:
            return
        record.results[dataset] = result
        if self.stage != "schedule":
            record.binary = binary
            self.held[record] = None
            while len(self.held) > _HELD_BINARY_CAPACITY:
                evicted, _ = self.held.popitem(last=False)
                evicted.binary = None

    def _walk(self, benchmark: str,
              options: CompilerOptions) -> _Phenotype | None:
        """The leaf of the verdicts ``options`` makes, from calls of its
        hyperblock priority alone; ``None`` where the trie does not
        reach (a verdict no compile has made yet)."""
        from repro.passes.hyperblock import DEFAULT_MAX_OPS, decide

        node = self.tries.get(benchmark)
        while isinstance(node, _Region):
            _, converted, _ = decide(
                node.paths, options.hyperblock_priority, options.machine,
                options.hyperblock_threshold, DEFAULT_MAX_OPS,
                node.head_ops)
            node = node.children.get(converted)
        return node

    def _leaf(self, benchmark: str, report: BackendReport) -> _Phenotype:
        """The leaf of a compile's verdict sequence (in evaluation
        order), made if new; the prefix a walk already knew is only
        followed."""
        slots, key = self.tries, benchmark
        for formation in report.hyperblock.values():
            for decision in formation.decisions:
                node = slots.get(key)
                if node is None:
                    node = slots[key] = _Region(decision.paths,
                                                decision.head_ops)
                slots, key = node.children, decision.converted
        leaf = slots.get(key)
        if leaf is None:
            leaf = slots[key] = _Phenotype()
            self.decision_vectors += 1
        return leaf


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
            FitnessCache(settings.fitness_cache_dir, case.name, case.machine,
                         settings.noise_stddev, settings.verify_outputs)
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
        #: keyed on the hook stage's output: distinct candidates often
        #: leave it with identical IR, whose compiles and simulations
        #: are identical under zero noise.  ``flags`` varies backend
        #: options and prepare-stage cases have no hook stage, so they
        #: key on the scheduled binary.  Noise is keyed per candidate
        #: and the differential guard wants a live simulator, so both
        #: switch it off, and it rides the snapshot switch so
        #: ``use_snapshots=False`` is the exact seed path.
        self._phenotypes = _PhenotypeStore((stage or "schedule") if (
            settings.use_snapshots
            and settings.noise_stddev == 0.0
            and not settings.verify_outputs) else None)
        self._baseline_tree = self._baseline_key = None
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

    def _answer(self, priority, benchmark: str, dataset: str,
                priority_key: tuple | None = None) -> Answer:
        """The memo's :class:`Answer`, tallied by layer; ``priority_key``
        when the caller holds it."""
        key = (priority_key or _priority_key(priority), benchmark, dataset)
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
        """Everything below the cycles memo, under ``_miss_lock``: the
        fitness cache, the phenotype store (asked before the compile and
        by its probe), else a compile and a fresh simulation, which the
        store records."""
        _, benchmark, dataset = key
        cache = self.fitness_cache
        address = None if cache is None else cache.address(*key)
        if address is not None:
            stored = cache.get(address)
            if stored is not None:
                return Answer("fitness_cache", stored)

        options = with_artifact(self.case.options_for(_as_hook(priority)))
        store, diverged = self._phenotypes, False
        found = store.lookup(key, options, self._run)
        if found is None:
            scheduled, report = self._compile(options, benchmark,
                                              store.stop_after(key))
            if scheduled is None:
                found = store.lookup(key, options, self._run)
            else:
                simulator, result = self._run(scheduled, key)
                diverged = self.settings.verify_outputs and \
                    self._check_against_reference(
                        benchmark, dataset, simulator, result, scheduled)
                store.record(key, result, scheduled, report)
                found = "sim", result
        layer, result = found
        if address is None:
            return Answer(layer, result, diverged)
        if not diverged:
            # Only a tree-keyed priority has an address: a tree, or a
            # PriorityFunction or a job's Individual holding one.
            text = (expression_text(priority) if isinstance(priority, Node)
                    else priority.text)
            cache.put(address, result, text)
        return Answer(layer, result, diverged, stored=not diverged)

    def _run(self, scheduled: ScheduledModule,
             key: tuple) -> tuple[Simulator, SimResult]:
        """A fresh simulation of ``scheduled`` on the memo key's
        benchmark and dataset."""
        from repro.machine.sim import Simulator

        _, benchmark, dataset = key
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
        return simulator, result

    def _compile(self, options: CompilerOptions, benchmark: str,
                 stop_after=None):
        """``compile_backend``'s (scheduled module, report), through the
        forking layer when on: the shared prefix is restored from the
        program's snapshot and only the hook's suffix runs
        (docs/FORKING.md).  ``stop_after`` is passed through: a probe
        that ends the compile makes the result ``None``.  Runs under
        ``_miss_lock``, so the first compile builds the snapshot once."""
        from repro.passes.snapshot import build_snapshot

        if self.case.steers_prepare:
            # The candidate steers unrolling (or the whole
            # flag set): the "candidate-independent" prefix is rebuilt
            # per genome (the cycles memo above answers repeats).
            prep = self._prepare(benchmark, options)
        else:
            prep = self.prepared(benchmark)
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
        from repro.verify.differential import reference_run

        _interp, result, final_globals, fault = reference_run(
            self.prepared(benchmark).module,
            self._inputs(benchmark, dataset), max_steps=MAX_INTERP_STEPS)
        cached = (result, final_globals, fault)
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
        """The case's baseline expression and its memo key, built once
        per harness: ``baseline_result`` runs inside every ``speedup``."""
        if self._baseline_tree is None:
            self._baseline_tree = self.case.baseline_tree()
            self._baseline_key = _priority_key(self._baseline_tree)
        return self._baseline_tree

    def baseline_result(self, benchmark: str,
                        dataset: str = "train") -> SimResult:
        return self._answer(self.baseline_tree(), benchmark, dataset,
                            self._baseline_key).result

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
            self, jobs: Iterable[tuple[Individual, str]]) -> list[float]:
        """The ``train`` speedups of ``(individual, benchmark)`` jobs,
        in job order: the serial backend, whose values the pool and the
        fleet reproduce bit-identically."""
        return [self.speedup(individual, benchmark)
                for individual, benchmark in jobs]

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
            "binary_hits": counts["binary_hits"],
        }
        if self._phenotypes.stage == "hyperblock":
            counters["decision_vectors"] = self._phenotypes.decision_vectors
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
    """The shared evaluator surface: the fitness of ``(individual,
    benchmark)`` jobs, always the ``train`` speedup of Figure 2.  The
    job record is the engine's :class:`~repro.gp.select.Individual`: a
    backend reads the ``tree``, ``key`` and ``text`` it cached, never
    its own walk.

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
        self, jobs: Iterable[tuple[Individual, str]]) -> list[float]: ...

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
