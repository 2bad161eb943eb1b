"""Compare two sets of runs under the bounds of BENCHMARK.json.

    python bench/compare.py A.json B.json

A set is what ``bench/run.py --aa --out DIR`` writes: ``{workload:
[{"seed", "correct", "metrics": {name: value}, "counts": {name:
value}}, ...]}``.  One row per workload and end-to-end metric: both
medians with their quartiles, the ratio B/A, and a verdict:

* ``unchanged`` / ``improved`` / ``regressed``: B's median against A's,
  under the metric's bound;
* ``unresolved``: a side's quartile spread is wider than the bound and
  the two sets overlap, so the bound cannot be checked.

``champion_speedup`` is compared exactly: all runs of both sets must read
the same.  So are a campaign's per-layer ``kcalls``/``calls``; the row
names the ones that moved, for the reader, and does not fail the
comparison (per-layer metrics have no bound, and the cold campaigns'
counts jitter by themselves, see bench/NOISE.md).  Exits 1 unless every
end-to-end row is ``unchanged`` and every run was correct.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from stats import largest_gap, median, quartile_spread, quartiles

#: End-to-end metrics that must read the same in every run of both sets.
EXACT = ("champion_speedup",)


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> str:
    """Verdict on one timing-like metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    base = median(a)
    worse = sign * (median(b) - base) / base if base else 0.0
    overlap = not (max(b) * sign < min(a) * sign
                   or max(a) * sign < min(b) * sign)
    if overlap and max(quartile_spread(a), quartile_spread(b)) > bound:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def exact_verdict(a: list[float], b: list[float], better: str) -> str:
    if len(set(a) | set(b)) == 1:
        return "unchanged"
    sign = 1.0 if better == "lower" else -1.0
    drift = sum(b) / len(b) - sum(a) / len(a)  # medians may still agree
    return "regressed" if sign * drift > 0 else "improved"


def compare_sets(set_a: dict, set_b: dict, contract: dict) -> list[dict]:
    """One row per workload and end-to-end metric, then one per workload
    for its exact per-layer counts."""
    rows = []
    for workload in set_a:
        runs_a, runs_b = set_a[workload], set_b[workload]
        for spec in contract["end_to_end"]:
            name = spec["name"]
            a = [run["metrics"][name] for run in runs_a]
            b = [run["metrics"][name] for run in runs_b]
            if name in EXACT:
                outcome = exact_verdict(a, b, spec["better"])
            else:
                outcome = verdict(a, b, spec["better"], spec["bound"])
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "a": quartiles(a), "b": quartiles(b),
                "ratio": median(b) / median(a) if median(a) else 0.0,
                "bound": spec["bound"], "verdict": outcome})
        counts = [run["counts"] for run in (*runs_a, *runs_b)
                  if run.get("counts")]
        if counts:
            moved = sorted(name for name in counts[0]
                           if len({c[name] for c in counts}) > 1)
            rows.append({"workload": workload,
                         "metric": f"{len(counts[0])} per-layer counts",
                         "moved": moved,
                         "verdict": "moved" if moved else "unchanged"})
        wrong = [run["seed"] for run in (*runs_a, *runs_b)
                 if not run["correct"]]
        if wrong:
            rows.append({"workload": workload, "metric": "correct",
                         "moved": wrong, "verdict": "incorrect"})
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':15s} {'metric':17s} {'A q1/med/q3':>31s} "
             f"{'B q1/med/q3':>31s} {'B/A':>7s} {'bound':>6s} verdict"]
    for row in rows:
        if "a" not in row:
            lines.append(f"{row['workload']:15s} {row['metric']:17s} "
                         f"{row['verdict']} {' '.join(map(str, row['moved']))}")
            continue
        a = "/".join(f"{value:.5g}" for value in row["a"])
        b = "/".join(f"{value:.5g}" for value in row["b"])
        lines.append(
            f"{row['workload']:15s} {row['metric']:17s} {a:>31s} {b:>31s} "
            f"{row['ratio']:7.4f} {row['bound']:6.2f} {row['verdict']}")
    return "\n".join(lines)


#: (adjusted metric, the raw timing printed beside it).
RAW_BESIDE = (("setup_s", "raw_setup_s"), ("op_ms", "raw_op_ms"),
              ("op_p90_ms", "raw_op_p90_ms"),
              ("evals_per_s", "raw_evals_per_s"))


def noise_table(sets: list[dict]) -> str:
    """Adjusted against raw, per workload and timing metric and set:
    median, quartile spread and largest pairwise gap, as shares of the
    median.  This is the table bench/NOISE.md records."""
    lines = [f"{'workload':15s} {'metric':12s} set "
             f"{'adjusted':>10s} {'iqr%':>6s} {'gap%':>6s}   "
             f"{'raw':>10s} {'iqr%':>6s} {'gap%':>6s}"]
    for workload in sets[0]:
        for adjusted, raw in RAW_BESIDE:
            for label, runs in zip("AB", (s[workload] for s in sets)):
                cells = []
                for values in ([run["metrics"][adjusted] for run in runs],
                               [run["raw"][raw] for run in runs]):
                    cells.append(f"{median(values):10.5g} "
                                 f"{100 * quartile_spread(values):6.2f} "
                                 f"{100 * largest_gap(values):6.2f}")
                lines.append(f"{workload:15s} {adjusted:12s}  {label}  "
                             + "   ".join(cells))
    return "\n".join(lines)


def aa(measure, workloads, runs: int, contract: dict, out: Path) -> int:
    """Two sets of ``runs`` runs per workload of this commit, one set
    after the other as the acceptance driver makes them, each run with
    another seed, the workload order alternating between repeats.
    ``measure(workload, seed)`` returns one entry of a set."""
    sets = []
    for which in range(2):
        current = {workload: [] for workload in workloads}
        for repeat in range(runs):
            order = workloads if repeat % 2 == 0 else tuple(
                reversed(workloads))
            for workload in order:
                seed = 1 + which * runs + repeat
                current[workload].append(measure(workload, seed))
        sets.append(current)
        with open(out / f"{'AB'[which]}.json", "w") as handle:
            json.dump(current, handle, indent=1)
    print(noise_table(sets))
    return report(sets, contract)


def report(sets: list[dict], contract: dict) -> int:
    rows = compare_sets(*sets, contract)
    print(render(rows))
    return 0 if all(row["verdict"] == "unchanged" for row in rows
                    if "bound" in row or row["metric"] == "correct") else 1


def main(argv: list[str]) -> int:
    sets = []
    for path in argv[:2]:
        with open(path) as handle:
            sets.append(json.load(handle))
    with open(Path(__file__).resolve().parent.parent
              / "BENCHMARK.json") as handle:
        contract = json.load(handle)
    return report(sets, contract)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
