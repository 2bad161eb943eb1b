"""A command that compiles nothing loads no compiler.

The frontend, the interpreter, the simulator, the profiler and the
snapshot layer are imported where a compile starts, so a campaign the
fitness cache answers in full, and ``repro cache stats``, never load
them (DESIGN.md, "What a command loads").  Each command runs in a
fresh interpreter, which then lists the ``repro`` modules it loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules only a compile, a profile, a simulation, a process pool or a
#: DSS campaign needs (a name covers its submodules).
DEFERRED = ("repro.frontend", "repro.ir.interp", "repro.machine.sim",
            "repro.machine.cache", "repro.machine.branch", "repro.profile",
            "repro.passes.snapshot", "repro.metaopt.parallel",
            "repro.metaopt.generalize", "repro.gp.dss", "repro.gp.simplify")

_LIST_MODULES = (
    "import json, sys\n"
    "from repro.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "with open(sys.argv[1], 'w') as handle:\n"
    "    json.dump(sorted(m for m in sys.modules\n"
    "                     if m.split('.')[0] == 'repro'), handle)\n"
    "sys.exit(code)\n")

CAMPAIGN = ("evolve", "regalloc", "codrle4", "--pop", "6", "--gens", "2",
            "--seed", "3", "--json")


def run_listing(tmp_path: Path, argv) -> list[str]:
    """Run ``repro argv`` in a fresh interpreter; its loaded modules."""
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
    assert deferred(warm) == []
    assert (result_without_config(tmp_path / "warm")
            == result_without_config(tmp_path / "cold"))

    stats = run_listing(tmp_path, ["cache", "stats", "--json",
                                   "--fitness-cache", str(cache)])
    assert deferred(stats) == []


def test_a_cold_campaign_loads_what_it_compiles_with(tmp_path):
    """The other side: the list above is not vacuous."""
    cold = run_listing(tmp_path, [*CAMPAIGN, "--run-dir",
                                  str(tmp_path / "cold"),
                                  "--fitness-cache", str(tmp_path / "c")])
    assert {"repro.frontend", "repro.machine.sim", "repro.ir.interp",
            "repro.profile.profiler", "repro.passes.snapshot"} <= set(cold)
