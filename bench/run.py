"""The benchmark's one command.

    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints what it measured and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  See bench/README.md.

    python bench/run.py --quick      every workload on a 3 s window
    python bench/run.py --aa         two sets of runs of this commit,
                                     compared under the bounds
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import campaign  # noqa: E402
from driver import ROOT, BenchError, Outcome, Workdir, require_checkout  # noqa: E402

WORKLOADS = (*campaign.CAMPAIGNS, "serve-mixed")


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> Outcome:
    with Workdir(workload) as work:
        if workload in campaign.CAMPAIGNS:
            return campaign.run(campaign.CAMPAIGNS[workload], seconds, work)
        # imported here: a campaign's driver must stay smaller than its
        # smallest op, whose ru_maxrss starts from the driver's image
        import serve_load

        return serve_load.run(seed, seconds, trace, work)


def result_line(outcome: Outcome, trace: bool, contract: dict) -> dict:
    """The run's last line.  Every metric the contract names for this
    kind of run must be there; one that is missing makes the run wrong
    rather than silently shorter."""
    wanted = contract["per_layer" if trace else "end_to_end"]
    measured = outcome.per_layer if trace else outcome.end_to_end
    metrics = {}
    for spec in wanted:
        if spec["name"] not in measured:
            outcome.problem(f"metric {spec['name']} was not measured")
            continue
        metrics[spec["name"]] = {"value": measured[spec["name"]],
                                 "unit": spec["unit"]}
    return {"correct": outcome.correct,
            "attempted": max(1, outcome.attempted),
            "failed": outcome.failed,
            "metrics": metrics}


def report(workload: str, outcome: Outcome, trace: bool) -> None:
    """The human-readable part: raw beside adjusted, then the rest."""
    print(f"# {workload}")
    for name, value in outcome.detail.items():
        print(f"  {name:24s} {value}")
    shown = outcome.per_layer if trace else outcome.end_to_end
    for name, value in shown.items():
        if value:
            print(f"  {name:36s} {value:.6g}")
    for message in outcome.problems:
        print(f"  PROBLEM: {message}")


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             contract: dict, dump: str | None = None) -> dict:
    started = time.perf_counter()
    outcome = measure(workload, seed, seconds, trace)
    outcome.detail["run_s"] = time.perf_counter() - started
    report(workload, outcome, trace)
    line = result_line(outcome, trace, contract)
    if dump:
        with open(dump, "w") as handle:
            json.dump({"seed": seed, "correct": line["correct"],
                       "end_to_end": outcome.end_to_end,
                       "per_layer": outcome.per_layer,
                       "detail": outcome.detail}, handle)
    return line


def aa_entry(workload: str, seed: int, seconds: float, out: Path) -> dict:
    """One run for an A/A set, in a process of its own as the acceptance
    driver starts it: the end-to-end metrics, the raw timings beside
    them, and a campaign's per-layer counts (a campaign run measures its
    ledger either way)."""
    dump = out / "last_run.json"
    subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--dump", str(dump)],
        check=True)
    with open(dump) as handle:
        run = json.load(handle)
    counts = {name: value for name, value in run["per_layer"].items()
              if name.endswith((".kcalls", ".calls"))}
    return {"seed": seed, "correct": run["correct"],
            "metrics": run["end_to_end"],
            "raw": {name: value for name, value in run["detail"].items()
                    if name.startswith("raw_")},
            "counts": counts if workload in campaign.CAMPAIGNS else None}


def quick(contract: dict) -> int:
    """The smoke entry: every workload, short window, both kinds of
    run, every check, and the result lines validated."""
    status = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            line = run_once(workload, 1, 3.0, trace, contract)
            print(json.dumps(line))
            if not line["correct"]:  # a missing metric is incorrect too
                status = 1
    return status


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set and workload under --aa")
    parser.add_argument("--out", default=str(ROOT / ".bench_work" / "aa"),
                        help="directory --aa writes its two sets to")
    parser.add_argument("--dump", help="also write everything the run "
                        "measured, as JSON, to this file")
    args = parser.parse_args(argv)
    try:
        require_checkout()
        contract = load_contract()
        if args.quick:
            return quick(contract)
        seconds = args.seconds or contract["run_seconds"]
        if args.aa:
            import compare

            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            return compare.aa(
                lambda workload, seed: aa_entry(workload, seed, seconds, out),
                WORKLOADS, args.runs, contract, out)
        if args.workload is None:
            parser.error("--workload is required")
        line = run_once(args.workload, args.seed, seconds,
                        bool(args.trace), contract, args.dump)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
