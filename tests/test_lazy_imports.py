"""A command that compiles nothing loads no compiler.

The frontend, the interpreter, the simulator, the profiler, the
snapshot layer, the IR containers and every compiler pass are imported
where a compile starts, so a campaign the fitness cache answers in
full, and ``repro cache stats``, never load them (DESIGN.md, "What a
command loads").  Each command runs in a fresh interpreter, which then
lists the ``repro`` modules it loaded and the dataclasses they define:
``@dataclass`` generates code for each class it decorates at import,
so a record stays one only where something compares, serialises or
fingerprints it (DESIGN.md, "Which records are dataclasses").
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every compiler pass and the IR analyses and binary form they use.
PASSES = ("repro.passes.hyperblock", "repro.passes.regalloc",
          "repro.passes.prefetch", "repro.passes.unroll",
          "repro.passes.inline", "repro.passes.cleanup",
          "repro.passes.schedule", "repro.ir.cfg", "repro.ir.liveness",
          "repro.ir.loops", "repro.ir.dominators", "repro.machine.vliw")

#: Modules only a compile, a profile, a simulation, a process pool or a
#: DSS campaign needs (a name covers its submodules).
DEFERRED = ("repro.frontend", "repro.ir.block", "repro.ir.function",
            "repro.ir.interp", "repro.machine.sim",
            "repro.machine.cache", "repro.machine.branch", "repro.profile",
            "repro.passes.snapshot", "repro.metaopt.parallel",
            "repro.metaopt.generalize", "repro.gp.dss", "repro.gp.simplify",
            *PASSES)

_LIST_MODULES = (
    "import dataclasses, json, sys\n"
    "from repro.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "modules = sorted(m for m in sys.modules if m.split('.')[0] == 'repro')\n"
    "classes = sorted(f'{m}.{name}' for m in modules\n"
    "                 for name, value in vars(sys.modules[m]).items()\n"
    "                 if isinstance(value, type) and value.__module__ == m\n"
    "                 and dataclasses.is_dataclass(value))\n"
    "with open(sys.argv[1], 'w') as handle:\n"
    "    json.dump({'modules': modules, 'dataclasses': classes}, handle)\n"
    "sys.exit(code)\n")

#: The dataclasses a campaign the cache answers defines: frozen values
#: (options, settings, parameters, registers, the machine and its
#: fingerprint), plus ``SimResult``, whose fields name the fitness
#: cache's entry, and ``BackendReport``, which tests compare.
WARM_DATACLASSES = [
    "repro.experiments.config.ExperimentConfig",
    "repro.gp.engine.GPParams", "repro.gp.engine.GenerationStats",
    "repro.gp.generate.PrimitiveSet", "repro.gp.genome.FlagsSpace",
    "repro.ir.values.Imm", "repro.ir.values.PReg",
    "repro.ir.values.StackSlot", "repro.ir.values.SymRef",
    "repro.ir.values.VReg",
    "repro.machine.descr.CacheLevelConfig",
    "repro.machine.descr.MachineDescription",
    "repro.machine.descr.SimResult",
    "repro.metaopt.harness.CaseStudy", "repro.metaopt.settings.EvalSettings",
    "repro.passes.pipeline.BackendReport",
    "repro.passes.pipeline.CompilerOptions",
    "repro.suite.promoted.PromotedProgram", "repro.suite.registry.Benchmark",
]

#: A cold campaign adds the frontend's source positions and tokens, the
#: records tests compare (run, cache and profile results) and the pass
#: reports tests read with ``dataclasses.asdict``.
COLD_DATACLASSES = sorted([
    *WARM_DATACLASSES,
    "repro.frontend.errors.SourceLocation", "repro.frontend.lexer.Token",
    "repro.ir.interp.RunResult", "repro.machine.cache.CacheStats",
    "repro.passes.hyperblock.HyperblockReport",
    "repro.passes.hyperblock.PathInfo",
    "repro.passes.hyperblock.RegionDecision",
    "repro.passes.inline.InlineDecision",
    "repro.passes.regalloc.AllocationReport",
    "repro.passes.regalloc.AllocationSeed",
    "repro.passes.regalloc.LiveRange",
    "repro.passes.unroll.UnrollDecision",
    "repro.profile.profiler.FunctionProfile",
])

CAMPAIGN = ("evolve", "regalloc", "codrle4", "--pop", "6", "--gens", "2",
            "--seed", "3", "--json")


def run_listing(tmp_path: Path, argv) -> dict[str, list[str]]:
    """Run ``repro argv`` in a fresh interpreter; the ``repro`` modules
    it loaded (``modules``) and the dataclasses they define
    (``dataclasses``)."""
    listing = tmp_path / "modules.json"
    done = subprocess.run(
        [sys.executable, "-c", _LIST_MODULES, str(listing), *argv],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    return json.loads(listing.read_text())


def deferred(modules: list[str]) -> list[str]:
    return [name for name in modules
            if any(name == lazy or name.startswith(lazy + ".")
                   for lazy in DEFERRED)]


def result_without_config(run_dir: Path) -> dict:
    result = json.loads((run_dir / "result.json").read_text())
    result.pop("config")
    return result


def test_warm_campaign_and_cache_stats_load_no_compiler(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main([*CAMPAIGN, "--run-dir", str(tmp_path / "cold"),
                 "--fitness-cache", str(cache)]) == 0
    capsys.readouterr()

    warm = run_listing(tmp_path, [*CAMPAIGN, "--run-dir",
                                  str(tmp_path / "warm"),
                                  "--fitness-cache", str(cache)])
    assert deferred(warm["modules"]) == []
    assert warm["dataclasses"] == WARM_DATACLASSES
    assert (result_without_config(tmp_path / "warm")
            == result_without_config(tmp_path / "cold"))

    stats = run_listing(tmp_path, ["cache", "stats", "--json",
                                   "--fitness-cache", str(cache)])
    assert deferred(stats["modules"]) == []


def test_a_cold_campaign_loads_what_it_compiles_with(tmp_path):
    """The other side: the list above is not vacuous."""
    cold = run_listing(tmp_path, [*CAMPAIGN, "--run-dir",
                                  str(tmp_path / "cold"),
                                  "--fitness-cache", str(tmp_path / "c")])
    compiled_with = set(PASSES) - {"repro.passes.prefetch"}
    assert {"repro.frontend", "repro.machine.sim", "repro.ir.interp",
            "repro.ir.block", "repro.ir.function",
            "repro.profile.profiler", "repro.passes.snapshot",
            *compiled_with} <= set(cold["modules"])
    # a pass is imported where its stage runs, and this case's options
    # turn prefetching off
    assert "repro.passes.prefetch" not in cold["modules"]
    assert cold["dataclasses"] == COLD_DATACLASSES
