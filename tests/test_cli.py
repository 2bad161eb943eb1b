"""CLI tests: every subcommand drives the library end to end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import load_checkpoint

PROGRAM = """
int data[16];
int n;
void main() {
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1) { acc = acc + data[i]; }
  out(acc);
}
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(PROGRAM)
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps({"data": list(range(16)), "n": [10]}))
    return str(path), str(inputs)


class TestRun:
    def test_run_prints_counters(self, program_file, capsys):
        program, inputs = program_file
        assert main(["run", program, "--inputs", inputs]) == 0
        output = capsys.readouterr().out
        assert "outputs          : [45]" in output
        assert "cycles" in output

    def test_run_machine_choice(self, program_file, capsys):
        program, inputs = program_file
        assert main(["run", program, "--inputs", inputs,
                     "--machine", "itanium", "--prefetch"]) == 0
        assert "[45]" in capsys.readouterr().out

    def test_bad_inputs_rejected(self, program_file, tmp_path):
        program, _ = program_file
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(SystemExit):
            main(["run", program, "--inputs", str(bad)])


class TestInterpret:
    def test_interpret(self, program_file, capsys):
        program, inputs = program_file
        assert main(["interpret", program, "--inputs", inputs]) == 0
        output = capsys.readouterr().out
        assert "outputs      : [45]" in output
        assert "steps" in output


class TestSuite:
    def test_suite_listing(self, capsys):
        assert main(["suite"]) == 0
        output = capsys.readouterr().out
        assert "codrle4" in output
        assert "101.tomcatv" in output

    def test_suite_filters(self, capsys):
        assert main(["suite", "--category", "fp",
                     "--suite", "spec2000"]) == 0
        output = capsys.readouterr().out
        assert "183.equake" in output
        assert "codrle4" not in output


class TestSimulate:
    def test_simulate_benchmark(self, capsys):
        assert main(["simulate", "codrle4"]) == 0
        output = capsys.readouterr().out
        assert "codrle4" in output
        assert "cycles" in output


class TestEvolve:
    def test_evolve_tiny_run(self, capsys):
        assert main(["evolve", "hyperblock", "codrle4",
                     "--pop", "8", "--gens", "2"]) == 0
        output = capsys.readouterr().out
        assert "train speedup" in output
        assert "expression" in output

    def test_evolve_json_payload(self, capsys):
        assert main(["evolve", "hyperblock", "codrle4",
                     "--pop", "8", "--gens", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "specialize"
        assert payload["benchmark"] == "codrle4"
        assert payload["train_speedup"] >= 1.0 - 1e-9
        assert len(payload["history"]) == 2
        assert payload["config"]["params"]["population_size"] == 8

    def test_evolve_requires_case_and_benchmark(self):
        with pytest.raises(SystemExit):
            main(["evolve", "--pop", "8"])

    def test_evolve_kill_and_resume_byte_identical(self, tmp_path, capsys):
        args = ["evolve", "hyperblock", "codrle4",
                "--pop", "8", "--gens", "2", "--json"]
        assert main(args + ["--run-dir", str(tmp_path / "full")]) == 0
        capsys.readouterr()

        assert main(args + ["--run-dir", str(tmp_path / "killed"),
                            "--stop-after-generation", "0"]) == 0
        interrupted = json.loads(capsys.readouterr().out)
        assert interrupted == {"interrupted": True, "next_generation": 1}

        assert main(["evolve", "--resume", "--json",
                     "--run-dir", str(tmp_path / "killed")]) == 0
        capsys.readouterr()
        assert (tmp_path / "killed/result.json").read_bytes() == \
            (tmp_path / "full/result.json").read_bytes()

    def test_evolve_resume_requires_run_dir(self):
        with pytest.raises(SystemExit):
            main(["evolve", "--resume"])

    def test_evolve_result_independent_of_hash_seed(self, tmp_path):
        """Every set of registers iterates in hash order, so a result
        that depended on that order would differ between hash seeds.
        (bench/driver.py pins ``PYTHONHASHSEED=0``; tier-1 does not.)"""
        src = Path(__file__).resolve().parents[1] / "src"
        results = []
        for seed in ("1", "20261002"):
            run_dir = tmp_path / f"seed{seed}"
            subprocess.run(
                [sys.executable, "-m", "repro", "evolve", "regalloc",
                 "codrle4", "--pop", "6", "--gens", "2",
                 "--no-fitness-cache", "--run-dir", str(run_dir)],
                cwd=tmp_path, check=True, capture_output=True, timeout=300,
                env=dict(os.environ, PYTHONPATH=str(src),
                         PYTHONHASHSEED=seed))
            results.append((run_dir / "result.json").read_bytes())
        assert results[0] == results[1]


class TestGeneralize:
    def test_generalize_tiny_run(self, capsys):
        assert main(["generalize", "hyperblock",
                     "--train", "rawcaudio,codrle4",
                     "--pop", "8", "--gens", "2",
                     "--subset-size", "1"]) == 0
        output = capsys.readouterr().out
        assert "avg train speedup" in output
        assert "rawcaudio" in output

    def test_generalize_json_with_cross_validation(self, capsys):
        assert main(["generalize", "hyperblock",
                     "--train", "rawcaudio,codrle4",
                     "--test", "decodrle4",
                     "--pop", "8", "--gens", "2",
                     "--subset-size", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "generalize"
        assert [s["benchmark"] for s in payload["training"]] == \
            ["rawcaudio", "codrle4"]
        assert payload["cross_validation"]["scores"][0]["benchmark"] == \
            "decodrle4"

    def test_generalize_requires_training_set(self):
        with pytest.raises(SystemExit):
            main(["generalize", "hyperblock", "--pop", "8"])


class TestSimulateJson:
    def test_simulate_json_counters(self, capsys):
        assert main(["simulate", "codrle4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmark"] == "codrle4"
        assert payload["cycles"] > 0
        assert 0.0 <= payload["l1_hit_rate"] <= 1.0


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_machine_rejected(self, program_file):
        program, _ = program_file
        with pytest.raises(SystemExit):
            main(["run", program, "--machine", "cray"])

    def test_building_the_parser_stays_import_light(self):
        """``--case`` choices come from the one name tuple in
        ``repro.machine.descr``, so ``repro --help`` (and every
        subcommand that never compiles) loads no compiler, GP,
        experiments or serving module — nor the interpreter or the
        simulator, which the ``ir`` and ``machine`` packages do not
        re-export."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import json, sys; import repro.cli as cli; "
                "cli.build_parser(); "
                "print(json.dumps(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'repro')))")
        output = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            timeout=60, env=dict(os.environ, PYTHONPATH=str(src))).stdout
        assert json.loads(output) == [
            "repro", "repro.cli", "repro.ir", "repro.ir.instr",
            "repro.ir.values", "repro.machine", "repro.machine.descr"]

    @pytest.mark.parametrize("command", ("simulate",))
    def test_tree_only_commands_ask_the_case(self, command, capsys):
        """No second list of "tree cases": argparse offers every case
        and the case itself says it has no tree to deploy."""
        assert main([command, "codrle4", "--case", "flags", "--json"]) == 2
        failure = json.loads(capsys.readouterr().out)
        assert failure["ok"] is False
        assert "flags" in failure["error"]


class TestVerify:
    def test_clean_program_exits_zero(self, program_file, capsys):
        program, inputs = program_file
        assert main(["verify", program, "--inputs", inputs]) == 0
        assert "agree" in capsys.readouterr().out

    def test_json_schema(self, program_file, capsys):
        program, inputs = program_file
        assert main(["verify", program, "--inputs", inputs,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["equivalent"] is True
        assert payload["divergences"] == []
        assert payload["options"]["machine"] == "epic-default"

    def test_known_bad_case_exits_nonzero_with_report(
            self, program_file, capsys, monkeypatch):
        """Fault injection: a corrupted simulation must produce a
        non-zero exit and a structured JSON divergence report."""
        from repro.machine import sim as sim_mod

        original = sim_mod.Simulator.run

        def corrupted(self, entry="main"):
            result = original(self, entry)
            result.outputs = [value + 1 for value in result.outputs]
            return result

        monkeypatch.setattr(sim_mod.Simulator, "run", corrupted)
        program, inputs = program_file
        assert main(["verify", program, "--inputs", inputs,
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["equivalent"] is False
        first = payload["divergences"][0]
        assert first["channel"] == "out"
        assert first["interp_value"] == 45
        assert first["sim_value"] == 46

    def test_human_divergence_report(self, program_file, capsys,
                                     monkeypatch):
        from repro.machine import sim as sim_mod

        original = sim_mod.Simulator.run

        def corrupted(self, entry="main"):
            result = original(self, entry)
            result.outputs = [value + 1 for value in result.outputs]
            return result

        monkeypatch.setattr(sim_mod.Simulator, "run", corrupted)
        program, inputs = program_file
        assert main(["verify", program, "--inputs", inputs]) == 1
        assert "DIVERGENCE" in capsys.readouterr().err


class TestFuzz:
    def test_clean_campaign_exits_zero(self, capsys):
        assert main(["fuzz", "--count", "3", "--seed", "11"]) == 0
        output = capsys.readouterr().out
        assert "passed        : 3" in output

    def test_json_schema(self, capsys):
        assert main(["fuzz", "--count", "2", "--seed", "11",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["count"] == 2
        assert payload["passed"] == 2
        assert payload["failures"] == []

    def test_injected_failure_saved_and_nonzero(self, tmp_path, capsys,
                                                monkeypatch):
        from repro.machine import sim as sim_mod

        original = sim_mod.Simulator.run

        def corrupted(self, entry="main"):
            result = original(self, entry)
            result.outputs = list(result.outputs) + [777]
            return result

        monkeypatch.setattr(sim_mod.Simulator, "run", corrupted)
        save_dir = tmp_path / "found"
        assert main(["fuzz", "--count", "1", "--seed", "0",
                     "--no-shrink", "--save-dir", str(save_dir),
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["failures"]) == 1
        saved = sorted(path.name for path in save_dir.iterdir())
        assert any(name.endswith(".mc") for name in saved)
        assert any(name.endswith(".inputs.json") for name in saved)
        assert any(name.endswith(".report.json") for name in saved)


class TestObsFlags:
    def test_simulate_metrics_flag(self, capsys):
        assert main(["simulate", "codrle4", "--metrics"]) == 0
        output = capsys.readouterr().out
        assert "simulator counter" in output

    def test_simulate_metrics_prints_tables(self, capsys):
        assert main(["simulate", "codrle4", "--case", "regalloc",
                     "--metrics", "--no-fitness-cache"]) == 0
        output = capsys.readouterr().out
        # per-pass timing table
        for column in ("pass", "runs", "total_s", "mean_s", "ir_delta"):
            assert column in output
        # one row per pass, in pipeline order
        stages = ["inline", "cleanup", "unroll", "profile", "hyperblock",
                  "regalloc", "schedule"]
        rows = [line.split()[0] for line in output.splitlines()
                if line.split() and line.split()[0] in stages]
        assert rows == stages
        # simulator counter table
        assert "simulator counter" in output
        assert "cycles" in output
        # compilation-forking table: regalloc replays from a snapshot
        assert "restore_p50_ms" in output

    def test_simulate_metrics_json_payload(self, capsys):
        assert main(["simulate", "codrle4", "--case", "regalloc",
                     "--metrics", "--no-fitness-cache", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["benchmark"] == "codrle4"
        assert payload["case"] == "regalloc"
        assert payload["cycles"] > 0
        metrics = payload["metrics"]
        assert metrics["counters"]["sim.runs"] == 1
        assert "pipeline.pass_seconds.regalloc" in metrics["histograms"]

    def test_simulate_metrics_writes_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["simulate", "codrle4", "--metrics",
                     "--no-fitness-cache", "--trace", str(trace)]) == 0
        capsys.readouterr()
        loaded = json.loads(trace.read_text())
        assert set(loaded) == {"traceEvents", "displayTimeUnit"}
        names = {event["name"] for event in loaded["traceEvents"]}
        assert "pipeline:backend" in names
        assert "sim:run" in names

    def test_simulate_metrics_leaves_observability_disabled(self, capsys):
        from repro import obs

        assert main(["simulate", "codrle4", "--metrics"]) == 0
        capsys.readouterr()
        assert not obs.enabled()

    def test_simulate_metrics_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--metrics"])

    def test_simulate_json_with_metrics(self, capsys):
        assert main(["simulate", "codrle4", "--metrics", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["counters"]["sim.runs"] == 1

    def test_simulate_json_without_metrics_has_no_key(self, capsys):
        assert main(["simulate", "codrle4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "metrics" not in payload

    def test_evolve_metrics_events_in_run_dir(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["evolve", "hyperblock", "codrle4",
                     "--pop", "8", "--gens", "2", "--metrics",
                     "--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        events = [json.loads(line) for line in
                  (run_dir / "events.jsonl").read_text().splitlines()]
        metrics = [e for e in events if e["event"] == "metrics"]
        assert [e["generation"] for e in metrics] == [0, 1]
        assert metrics[0]["metrics"]["counters"]["gp.evaluations"] > 0

    def test_evolve_trace_flag(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["evolve", "hyperblock", "codrle4",
                     "--pop", "8", "--gens", "2",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        names = {event["name"] for event in
                 json.loads(trace.read_text())["traceEvents"]}
        assert "engine:generation" in names
        assert "engine:evaluation" in names


class TestCacheCommand:
    def warm_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["evolve", "hyperblock", "codrle4",
                     "--pop", "8", "--gens", "2",
                     "--fitness-cache", cache_dir]) == 0
        return cache_dir

    def test_stats_json(self, tmp_path, capsys):
        cache_dir = self.warm_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--fitness-cache", cache_dir,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["entries"] > 0
        assert payload["by_case"] == {"hyperblock": payload["entries"]}
        assert payload["by_benchmark"] == {"codrle4": payload["entries"]}

    def test_stats_human(self, tmp_path, capsys):
        cache_dir = self.warm_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--fitness-cache", cache_dir]) == 0
        output = capsys.readouterr().out
        assert "entries" in output
        assert "hyperblock" in output

    def test_export_json_filters(self, tmp_path, capsys):
        cache_dir = self.warm_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "export", "--fitness-cache", cache_dir,
                     "--case", "hyperblock", "--limit", "3",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 3
        for row in payload["records"]:
            assert row["case"] == "hyperblock"
            assert row["expression"]
            assert row["cycles"] > 0
        capsys.readouterr()
        assert main(["cache", "export", "--fitness-cache", cache_dir,
                     "--case", "no-such-case", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["records"] == []

    def test_cache_without_directory_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_FITNESS_CACHE", raising=False)
        with pytest.raises(SystemExit):
            main(["cache", "stats"])

    @pytest.mark.parametrize("action", ("stats", "export"))
    def test_missing_directory_is_refused_not_created(self, action,
                                                      tmp_path, capsys):
        typo = tmp_path / "typo_cache_dir"
        assert main(["cache", action, "--fitness-cache", str(typo),
                     "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False and str(typo) in payload["error"]
        assert not typo.exists()


class TestSurrogateFlags:
    def test_evolve_surrogate_smoke(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        run_dir = tmp_path / "run"
        assert main(["evolve", "hyperblock", "codrle4",
                     "--pop", "8", "--gens", "2",
                     "--surrogate", "--surrogate-top-k", "3",
                     "--fitness-cache", cache_dir,
                     "--run-dir", str(run_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "specialize"
        state = load_checkpoint(run_dir / "checkpoint.pkl")["surrogate"]
        assert state["top_k"] == 3
