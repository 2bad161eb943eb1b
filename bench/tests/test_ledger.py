from pathlib import Path

import ledger

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_every_program_module_has_exactly_one_named_layer():
    unmapped = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        layer = ledger.module_layer(relative)
        if layer is None:
            unmapped.append(relative)
        else:
            assert layer in ledger.LAYERS, (relative, layer)
            assert layer not in ("stdlib", "other"), relative
    assert not unmapped, (
        f"add these modules to bench/ledger.py's layer map: {unmapped}")


def test_no_stale_entries_in_the_file_map():
    for relative in ledger._FILE_LAYERS:
        assert (SRC / relative).is_file(), relative
    for package in ledger._PACKAGE_LAYERS:
        assert (SRC / package).is_dir(), package


def test_boundaries_point_at_mapped_modules():
    for name, (relative, _qualname) in ledger.BOUNDARIES.items():
        assert ledger.module_layer(relative) is not None, name


def test_code_outside_the_program():
    assert ledger.layer_of("<sim:main>", "__block") == "machine.sim_generated"
    assert ledger.layer_of("<frozen importlib._bootstrap>", "_find") == \
        "cli_import"
    assert ledger.layer_of("/usr/lib/python3.11/json/decoder.py",
                           "decode") == "stdlib"
    assert ledger.layer_of("<string>", "__init__") == "other"
    assert ledger.layer_of(
        "<string>", "__create_fn__.<locals>.__hash__") == "dataclass_methods"
    assert ledger.layer_of("/x/src/repro/gp/nodes.py", "<module>") == \
        "cli_import"
    assert ledger.layer_of("/x/src/repro/gp/nodes.py", "Node.evaluate") == \
        "gp.nodes"
    assert ledger.layer_of("/x/src/repro/passes/brand_new.py", "f") == "other"


def test_build_charges_c_time_to_the_calling_layer():
    dump = {"wall_s": 0.9, "rows": [
        # file, line, qualname, calls, inline, total, c_calls, c_inline
        ["/x/src/repro/machine/sim.py", 232, "Simulator.run",
         2, 0.30, 0.90, 10, 0.10],
        ["<sim:main>", 1, "__block", 100, 0.40, 0.40, 0, 0.0],
        ["~", 0, "<built-in method builtins.len>", 12, 0.12, 0.12, 0, 0.0],
        ["/usr/lib/python3.11/json/decoder.py", 1, "decode",
         1, 0.08, 0.08, 0, 0.0],
    ]}
    books = ledger.build(dump)
    assert books["self_s"]["machine.sim"] == 0.30 + 0.10
    assert books["calls"]["machine.sim"] == 2 + 10
    assert books["self_s"]["machine.sim_generated"] == 0.40
    # the 2 C calls with no Python caller edge fall to stdlib
    assert books["calls"]["stdlib"] == 1 + 2
    assert abs(books["self_s"]["stdlib"] - (0.08 + 0.02)) < 1e-12
    assert books["boundaries"]["Simulator.run"] == (2, 0.90)
    assert books["total_calls"] == 2 + 100 + 12 + 1
    assert abs(books["coverage"] - 1.0) < 1e-9
    flat = ledger.metrics(books)
    assert {name for name, _unit in ledger.metric_names()} == set(flat)
