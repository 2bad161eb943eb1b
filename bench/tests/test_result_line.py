import json
from pathlib import Path

import campaign
import ledger
import run
from driver import Outcome

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _outcome() -> Outcome:
    outcome = Outcome(attempted=12)
    outcome.end_to_end = {spec["name"]: 1.5
                          for spec in CONTRACT["end_to_end"]}
    outcome.per_layer = {spec["name"]: 0.0 for spec in CONTRACT["per_layer"]}
    return outcome


def test_result_line_has_exactly_the_contract_keys():
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line(_outcome(), trace, CONTRACT)
        assert list(line) == ["correct", "attempted", "failed", "metrics"]
        assert line["correct"] is True
        assert isinstance(line["attempted"], int) and line["attempted"] >= 1
        assert isinstance(line["failed"], int)
        assert list(line["metrics"]) == [s["name"] for s in CONTRACT[section]]
        for spec in CONTRACT[section]:
            assert line["metrics"][spec["name"]]["unit"] == spec["unit"]
        json.dumps(line)


def test_a_missing_metric_or_a_problem_makes_the_run_incorrect():
    outcome = _outcome()
    del outcome.end_to_end["op_ms"]
    assert run.result_line(outcome, False, CONTRACT)["correct"] is False
    outcome = _outcome()
    outcome.problem("op 3 result digest differs")
    assert run.result_line(outcome, False, CONTRACT)["correct"] is False
    outcome = _outcome()
    outcome.failed = 1
    assert run.result_line(outcome, False, CONTRACT)["correct"] is False


def test_the_contract_names_what_the_code_measures():
    per_layer = [spec["name"] for spec in CONTRACT["per_layer"]]
    ledger_names = [name for name, _unit in ledger.metric_names()]
    assert per_layer[:len(ledger_names)] == ledger_names
    rest = per_layer[len(ledger_names):]
    assert rest[:len(campaign.SERVE_METRICS)] == list(campaign.SERVE_METRICS)
    assert rest[len(campaign.SERVE_METRICS):] == [
        "H.slowdown", "H.ledger_coverage", "H.trace_overhead", "H.ops"]
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)
    assert "setup_s" in {s["name"] for s in CONTRACT["end_to_end"]}


def test_result_digest_ignores_where_the_run_lived():
    payload = {"best_expression": "uses", "evaluations": 47,
               "history": [1, 2], "config": {"fitness_cache_dir": "a"}}
    moved = dict(payload, config={"fitness_cache_dir": "b"},
                 artifact_id="abc")
    assert campaign.result_digest(payload) == campaign.result_digest(moved)
    changed = dict(payload, evaluations=48)
    assert campaign.result_digest(payload) != campaign.result_digest(changed)
