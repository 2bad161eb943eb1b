import json
from pathlib import Path

import compare

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_verdicts_on_synthetic_sets():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.10) == "unchanged"
    slower = [value * 1.2 for value in steady]
    assert compare.verdict(steady, slower, "lower", 0.10) == "regressed"
    assert compare.verdict(slower, steady, "lower", 0.10) == "improved"
    # for a rate, more is better
    assert compare.verdict(steady, slower, "higher", 0.10) == "improved"
    assert compare.verdict(slower, steady, "higher", 0.10) == "regressed"


def test_a_spread_wider_than_the_bound_is_unresolved_when_sets_overlap():
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    shifted = [value * 1.05 for value in noisy]
    assert compare.verdict(noisy, shifted, "lower", 0.10) == "unresolved"
    # ... unless every run of one side beats every run of the other
    far = [value * 2 for value in noisy]
    assert compare.verdict(noisy, far, "lower", 0.10) == "regressed"
    assert compare.verdict(far, noisy, "lower", 0.10) == "improved"


def test_exact_metrics_are_compared_exactly():
    same = [1.0143, 1.0143, 1.0143]
    assert compare.exact_verdict(same, same, "higher") == "unchanged"
    assert compare.exact_verdict(same, [1.0143, 1.0143, 1.0142],
                                 "higher") == "regressed"
    assert compare.exact_verdict(same, [1.02] * 3, "higher") == "improved"


def _set(op_ms, counts):
    runs = []
    for seed, value in enumerate(op_ms):
        metrics = {spec["name"]: 1.0 for spec in CONTRACT["end_to_end"]}
        metrics["op_ms"] = value
        runs.append({"seed": seed, "correct": True, "metrics": metrics,
                     "raw": {}, "counts": dict(counts)})
    return {"warm-rerun": runs}


def test_compare_sets_rows_and_exit_status(capsys):
    a = _set([100.0, 101.0, 99.0], {"L.gp.nodes.kcalls": 98.061})
    b = _set([100.5, 100.0, 99.5], {"L.gp.nodes.kcalls": 98.061})
    rows = compare.compare_sets(a, b, CONTRACT)
    assert [row["metric"] for row in rows][:len(CONTRACT["end_to_end"])] == \
        [spec["name"] for spec in CONTRACT["end_to_end"]]
    assert all(row["verdict"] == "unchanged" for row in rows)
    assert compare.report([a, b], CONTRACT) == 0

    c = _set([130.0, 131.0, 129.0], {"L.gp.nodes.kcalls": 99.0})
    rows = compare.compare_sets(a, c, CONTRACT)
    by_metric = {row["metric"]: row for row in rows}
    assert by_metric["op_ms"]["verdict"] == "regressed"
    assert by_metric["1 per-layer counts"]["moved"] == ["L.gp.nodes.kcalls"]
    assert compare.report([a, c], CONTRACT) == 1
    capsys.readouterr()


def test_an_incorrect_run_fails_the_comparison(capsys):
    a = _set([100.0, 101.0, 99.0], {})
    b = _set([100.0, 101.0, 99.0], {})
    b["warm-rerun"][1]["correct"] = False
    assert compare.report([a, b], CONTRACT) == 1
    capsys.readouterr()
