"""The per-layer ledger: sort one cProfile dump into layers by file path.

Layers are paths, not function names, so the ledger survives a refactor
that moves code inside a layer and notices one that moves code between
layers.  Each layer gets ``L.<layer>.self_s`` (time spent in the layer's
own frames plus the C functions they call directly) and
``L.<layer>.kcalls`` (calls of those frames and C functions; an exact
count).  A few boundary functions also get ``B.<name>.calls`` and
``B.<name>.incl_s`` (time including callees): the spans at layer
boundaries, read from the same profile.

Every ``src/repro/**/*.py`` maps to exactly one layer; bench/tests fails
when a new module is not listed here.
"""

from __future__ import annotations

import json

#: Whole packages that are one layer.
_PACKAGE_LAYERS = {
    "frontend": "frontend",
    "profile": "profile",
    "experiments": "experiments",
    "obs": "obs",
    "suite": "suite",
    "fleet": "subsystems",
    "surrogate": "subsystems",
    "autopilot": "subsystems",
    "verify": "subsystems",
}

#: Packages split over several layers, file by file.
_FILE_LAYERS = {
    "__init__.py": "cli_import",
    "__main__.py": "cli_import",
    "cli.py": "cli_import",
    "compiler.py": "passes.pipeline",
    "reporting.py": "experiments",
    "ir/__init__.py": "ir.core",
    "ir/block.py": "ir.core",
    "ir/cfg.py": "ir.core",
    "ir/dominators.py": "ir.core",
    "ir/function.py": "ir.core",
    "ir/instr.py": "ir.core",
    "ir/loops.py": "ir.core",
    "ir/values.py": "ir.core",
    "ir/interp.py": "ir.interp",
    "ir/liveness.py": "ir.liveness",
    "passes/__init__.py": "passes.pipeline",
    "passes/pipeline.py": "passes.pipeline",
    "passes/snapshot.py": "passes.snapshot",
    "passes/hyperblock.py": "passes.hyperblock",
    "passes/regalloc.py": "passes.regalloc",
    "passes/schedule.py": "passes.schedule",
    "passes/prefetch.py": "passes.prefetch",
    "passes/inline.py": "passes.inline",
    "passes/unroll.py": "passes.unroll",
    "passes/cleanup.py": "passes.cleanup",
    "machine/__init__.py": "machine.sim",
    "machine/descr.py": "machine.sim",
    "machine/sim.py": "machine.sim",
    "machine/cache.py": "machine.cache",
    "machine/branch.py": "machine.branch",
    "machine/vliw.py": "machine.vliw",
    "gp/nodes.py": "gp.nodes",
    "gp/engine.py": "gp.engine",
    "gp/parse.py": "gp.parse",
    "gp/__init__.py": "gp.breed",
    "gp/crossover.py": "gp.breed",
    "gp/mutate.py": "gp.breed",
    "gp/select.py": "gp.breed",
    "gp/generate.py": "gp.breed",
    "gp/simplify.py": "gp.breed",
    "gp/genome.py": "gp.breed",
    "gp/dss.py": "gp.breed",
    "gp/types.py": "gp.breed",
    "metaopt/harness.py": "metaopt.harness",
    "metaopt/priority.py": "metaopt.priority",
    "metaopt/fitness_cache.py": "metaopt.fitness_cache",
    "metaopt/__init__.py": "metaopt.other",
    "metaopt/baselines.py": "metaopt.other",
    "metaopt/features.py": "metaopt.other",
    "metaopt/generalize.py": "metaopt.other",
    "metaopt/parallel.py": "metaopt.other",
    "metaopt/psets.py": "metaopt.other",
    "metaopt/scheduling.py": "metaopt.other",
    "metaopt/settings.py": "metaopt.other",
    "metaopt/specialize.py": "metaopt.other",
    "serve/__init__.py": "serve.server",
    "serve/server.py": "serve.server",
    "serve/jobs.py": "serve.jobs",
    "serve/registry.py": "serve.registry",
    "serve/artifact.py": "serve.registry",
    "serve/client.py": "serve.client",
}

LAYERS = (
    "cli_import", "frontend", "ir.interp", "ir.liveness", "ir.core",
    "profile", "passes.pipeline", "passes.snapshot", "passes.hyperblock",
    "passes.regalloc", "passes.schedule", "passes.prefetch",
    "passes.inline", "passes.unroll", "passes.cleanup", "machine.sim",
    "machine.sim_generated", "machine.cache", "machine.branch",
    "machine.vliw", "gp.nodes", "gp.engine", "gp.breed", "gp.parse",
    "metaopt.harness", "metaopt.priority", "metaopt.fitness_cache",
    "metaopt.other", "experiments", "serve.server", "serve.jobs",
    "serve.registry", "serve.client", "subsystems", "obs", "suite",
    "dataclass_methods", "stdlib", "other",
)

#: Boundary functions: metric name -> (module path, qualified name).
BOUNDARIES = {
    "compile_source": ("frontend/lower.py", "compile_source"),
    "prepare": ("passes/pipeline.py", "prepare"),
    "compile_backend": ("passes/pipeline.py", "compile_backend"),
    "snapshot.get_or_build": ("passes/snapshot.py",
                              "SnapshotCache.get_or_build"),
    "snapshot.restore": ("passes/snapshot.py", "PipelineSnapshot.restore"),
    "Simulator.run": ("machine/sim.py", "Simulator.run"),
    "Interpreter.run": ("ir/interp.py", "Interpreter.run"),
    "PriorityFunction.call": ("metaopt/priority.py",
                              "PriorityFunction.__call__"),
    "FitnessCache.get": ("metaopt/fitness_cache.py", "FitnessCache.get"),
    "FitnessCache.put": ("metaopt/fitness_cache.py", "FitnessCache.put"),
    "GPEngine.step": ("gp/engine.py", "GPEngine.step"),
    "save_checkpoint": ("experiments/checkpoint.py", "save_checkpoint"),
    "JsonlSink.emit": ("experiments/events.py", "JsonlSink.emit"),
}

_MARKER = "/src/repro/"


def module_layer(relative: str) -> str | None:
    """Layer of a module path relative to ``src/repro``; None when the
    module is not on the map."""
    layer = _FILE_LAYERS.get(relative)
    if layer is None:
        layer = _PACKAGE_LAYERS.get(relative.split("/", 1)[0])
    return layer


def relative_module(filename: str) -> str | None:
    """``src/repro``-relative path of a program file, else None."""
    at = filename.rfind(_MARKER)
    return filename[at + len(_MARKER):] if at >= 0 else None


def layer_of(filename: str, qualname: str) -> str:
    """Layer of one profiled code object."""
    if filename.startswith("<sim:"):
        return "machine.sim_generated"
    if filename.startswith("<frozen importlib"):
        return "cli_import"
    if filename == "<string>" and qualname.startswith("__create_fn__"):
        # generated __init__/__eq__/__hash__: mostly the IR's value
        # classes being hashed and compared, which no path names
        return "dataclass_methods"
    relative = relative_module(filename)
    if relative is None:
        if filename.startswith("<") or "/bench/" in filename:
            return "other"
        return "stdlib"
    if qualname == "<module>":
        return "cli_import"
    return module_layer(relative) or "other"


def build(dump: dict) -> dict:
    """Per-layer and per-boundary numbers of one profile dump.

    Returns ``{"self_s": {layer: s}, "calls": {layer: n},
    "boundaries": {name: (calls, incl_s)}, "total_calls": n,
    "coverage": share of the profiled wall the layers account for}``.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    boundaries = {name: (0, 0.0) for name in BOUNDARIES}
    by_target = {target: name for name, target in BOUNDARIES.items()}
    total_calls = 0
    c_inline = c_calls = 0.0
    for (filename, _line, qualname, callcount, inline, total,
         builtin_calls, builtin_inline) in dump["rows"]:
        total_calls += callcount
        if filename == "~":
            c_inline += inline
            c_calls += callcount
            continue
        layer = layer_of(filename, qualname)
        self_s[layer] += inline + builtin_inline
        calls[layer] += callcount + builtin_calls
        c_inline -= builtin_inline
        c_calls -= builtin_calls
        relative = relative_module(filename)
        name = by_target.get((relative, qualname))
        if name is not None:
            boundaries[name] = (callcount, total)
    # C functions called from C functions (a sort's key, a callback)
    # have no Python caller edge: the interpreter's own, so stdlib.
    self_s["stdlib"] += c_inline
    calls["stdlib"] += int(round(c_calls))
    covered = sum(self_s.values())
    return {
        "self_s": self_s,
        "calls": calls,
        "boundaries": boundaries,
        "total_calls": total_calls,
        "coverage": covered / dump["wall_s"] if dump["wall_s"] else 0.0,
    }


def load(path) -> dict:
    with open(path) as handle:
        return build(json.load(handle))


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every ledger metric, in reporting order."""
    names = []
    for layer in LAYERS:
        names.append((f"L.{layer}.self_s", "s"))
        names.append((f"L.{layer}.kcalls", "kcalls"))
    for name in BOUNDARIES:
        names.append((f"B.{name}.calls", "count"))
        names.append((f"B.{name}.incl_s", "s"))
    return names


def metrics(ledger: dict, per: float = 1.0) -> dict:
    """Flatten a ledger into metric values, each divided by ``per``
    (1 for a campaign op; the request count for the daemon)."""
    values = {}
    for layer in LAYERS:
        values[f"L.{layer}.self_s"] = ledger["self_s"][layer] / per
        values[f"L.{layer}.kcalls"] = ledger["calls"][layer] / 1000 / per
    for name, (count, incl) in ledger["boundaries"].items():
        values[f"B.{name}.calls"] = count / per
        values[f"B.{name}.incl_s"] = incl / per
    return values
