"""Regenerate EXPERIMENTS.md from benchmarks/results/*.json.

Run the bench harness first::

    pytest benchmarks/ --benchmark-only
    python tools/update_experiments.py

The paper-side numbers are constants transcribed from the PLDI 2003
text; the measured side comes from the recorded JSON, so the document
always reflects the most recent run (including its GP scale).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
RESULTS = ROOT / "benchmarks" / "results"


def load(name: str):
    path = RESULTS / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def fmt(value, digits=3):
    return f"{value:.{digits}f}"


def avg(values):
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


def spec_table(data, paper_train, paper_novel):
    lines = ["| benchmark | train | novel |", "|---|---|---|"]
    for name, row in data.items():
        lines.append(f"| {name} | {fmt(row['train'])} | {fmt(row['novel'])} |")
    train_avg = avg(row["train"] for row in data.values())
    novel_avg = avg(row["novel"] for row in data.values())
    lines.append(f"| **average** | **{fmt(train_avg)}** | **{fmt(novel_avg)}** |")
    lines.append("")
    lines.append(f"Paper averages: {paper_train} train / {paper_novel} novel.")
    return "\n".join(lines), train_avg, novel_avg


def pair_table(data):
    lines = ["| benchmark | train | novel |", "|---|---|---|"]
    for name, (train, novel) in data.items():
        lines.append(f"| {name} | {fmt(train)} | {fmt(novel)} |")
    train_avg = avg(v[0] for v in data.values())
    novel_avg = avg(v[1] for v in data.values())
    lines.append(f"| **average** | **{fmt(train_avg)}** | **{fmt(novel_avg)}** |")
    return "\n".join(lines), train_avg, novel_avg


def main() -> int:
    missing = []
    sections: list[str] = []

    sections.append("""# EXPERIMENTS — paper vs. measured

Reproduction record for every table and figure in the paper's
evaluation.  Regenerate after a bench run with
`python tools/update_experiments.py`; the measured numbers below come
from `benchmarks/results/*.json` (committed from a default-scale run:
population 32, 12 generations, fast benchmark subsets — the paper used
population 400 for 50 generations on a cluster; scale up with
`REPRO_POP/REPRO_GENS/REPRO_FULL`).

**Reading guidance.**  Fitness is speedup over the stock heuristic,
exactly as the paper defines.  Our substrate is a first-order cycle
simulator running small re-implemented kernels, so *absolute* speedups
are systematically smaller than the paper's Itanium/Trimaran numbers;
the reproduction targets are the *shapes*: who wins, orderings,
train-vs-novel gaps, and the qualitative claims.  Each section states
its shape criteria; the bench files assert them.
""")

    # Figure 4
    fig04 = load("fig04_hyperblock_specialized")
    if fig04:
        table, train_avg, novel_avg = spec_table(fig04, "1.54", "1.23")
        sections.append(f"""## Figure 4 — hyperblock specialization

{table}

Shape reproduced: every benchmark's specialized heuristic matches or
beats Equation 1 on its training input (the baseline is in the initial
population, so evolution can only improve on it); most of the win
survives on novel data.  The two 1.000 rows are ceilings, not failures
of GP: an exhaustive enumeration of the if-conversion decision vectors
a priority can reach (forcing each region's verdict, noise-free, on
the training input) finds none that beats Equation 1 on `codrle4`
(5 vectors) or `124.m88ksim` (35 vectors).  Magnitudes are compressed
relative to the paper (~1.0–1.1 vs the paper's up to 1.73): our
hammock regions have two paths where IMPACT's regions have many, and
the simulated machine's 5-cycle misprediction penalty bounds how much
predication can recover.
""")
    else:
        missing.append("fig04")

    fig05 = load("fig05_hyperblock_evolution")
    if fig05:
        gen0 = [curve[0] for curve in fig05.values()]
        final = [curve[-1] for curve in fig05.values()]
        sections.append(f"""## Figure 5 — hyperblock evolution

Best-fitness-per-generation curves for the Figure 4 runs.  Measured:
generation-0 champions average {fmt(avg(gen0))} (already at or above
the baseline — the paper: "often, the initial population contains at
least one expression that outperforms the baseline"), final champions
average {fmt(avg(final))}.  Shape reproduced: monotone curves (elitism),
fast early convergence, plateaus thereafter.
""")
    else:
        missing.append("fig05")

    fig06 = load("fig06_hyperblock_general")
    if fig06:
        table, train_avg, novel_avg = pair_table(fig06["scores"])
        sections.append(f"""## Figures 6 & 8 — general-purpose hyperblock priority

One DSS evolution over the training set; best expression applied to
every training benchmark:

{table}

Paper averages: 1.44 train / 1.25 novel.  Shape reproduced: positive
average with per-benchmark wins and losses; novel-data performance
tracks training-data performance (the paper notes the general function
is *less* input-sensitive than the specialists).

Figure 8's qualitative claim — parsimony keeps the winner readable —
also holds; the best evolved expression was:

```
{fig06["simplified"]}
```
""")
    else:
        missing.append("fig06")

    fig07 = load("fig07_hyperblock_crossval")
    if fig07:
        table, train_avg, _ = pair_table(fig07)
        sections.append(f"""## Figure 7 — hyperblock cross-validation

The Figure 6 expression applied to benchmarks it never saw:

{table}

Paper: 1.09 average with three benchmarks slightly below 1.0
(unepic, 023.eqntott, 085.cc1).  Shape reproduced: transfer is
imperfect — near parity on average with individual losses — which is
the paper's own observation about generality at small training-set
sizes.
""")
    else:
        missing.append("fig07")

    fig09 = load("fig09_regalloc_specialized")
    if fig09:
        table, train_avg, novel_avg = spec_table(fig09, "~1.03–1.11", "~1.03–1.15")
        sections.append(f"""## Figure 9 — register-allocation specialization

{table}

Shape reproduced: the smallest gains of the three case studies (the
paper: "Meta Optimization works well, even for well-studied
heuristics" — Chow–Hennessy is hard to beat), and the train/novel gap
is much smaller than hyperblock's because spill decisions are less
data-driven (Section 6.1.1).
""")
    else:
        missing.append("fig09")

    fig10 = load("fig10_regalloc_evolution")
    if fig10:
        ranks = fig10["baseline_ranks"]
        survivors = sum(
            1 for bench_ranks in ranks.values()
            if bench_ranks and bench_ranks[0] is not None
            and all(r is not None for r in bench_ranks[:3])
        )
        sections.append(f"""## Figure 10 — register-allocation evolution

Shape reproduced: gradual/flat fitness curves (contrast Figure 5), and
the paper's observation that "the baseline heuristic typically remained
in the population for several generations" — Equation 2 survived the
first three generations in {survivors}/{len(ranks)} runs, holding rank 1
on several benchmarks (recorded per generation in the results JSON).
""")
    else:
        missing.append("fig10")

    fig11 = load("fig11_regalloc_general")
    if fig11:
        table, train_avg, novel_avg = pair_table(fig11["scores"])
        sections.append(f"""## Figure 11 — general-purpose spill priority

{table}

Paper: ~1.03 on both datasets.  Measured average {fmt(train_avg)} train /
{fmt(novel_avg)} novel.  At the default search scale the DSS run often
cannot beat Equation 2 *jointly* across the suite (the champion
re-ranking then returns the baseline itself, i.e. exactly 1.000
everywhere) — consistent with the paper's point that this is the
hardest of the three problems; per-benchmark wins exist (Figure 9).
Best expression: `{fig11["expression"]}`.
""")
    else:
        missing.append("fig11")

    fig12 = load("fig12_regalloc_crossval")
    if fig12:
        parts = []
        for machine, scores in fig12.items():
            table, train_avg, _ = pair_table(scores)
            parts.append(f"**{machine}**\n\n{table}")
        body = "\n\n".join(parts)
        sections.append(f"""## Figure 12 — regalloc cross-validation (two architectures)

{body}

Paper: ~1.03 overall with a couple of marginal losses.  Shape
reproduced: small, non-destructive transfer on both register-starved
machines.
""")
    else:
        missing.append("fig12")

    fig13 = load("fig13_prefetch_specialized")
    if fig13:
        table, train_avg, novel_avg = spec_table(fig13, "1.35", "1.40")
        sections.append(f"""## Figure 13 — prefetching specialization

Measured with 1% multiplicative timing noise (Section 7.1's
real-machine noise; noise well below attainable speedups, as the paper
requires).

{table}

Shape reproduced: the largest specialist gains of the three studies,
concentrated on kernels where the ORC baseline's choices are wrong in
either direction (over-prefetching cache-resident matmul in 093.nasa7,
under-serving streaming stencils).
""")
    else:
        missing.append("fig13")

    fig14 = load("fig14_prefetch_evolution")
    if fig14:
        sections.append("""## Figure 14 — prefetching evolution

Shape reproduced: monotone curves that plateau early (the paper
attributes the early plateau to parsimony pressure producing small
effective expressions; our winners are likewise tiny — see the
expressions recorded in the Figure 13 JSON).
""")
    else:
        missing.append("fig14")

    fig15 = load("fig15_prefetch_general")
    if fig15:
        table, train_avg, novel_avg = pair_table(fig15["scores"])
        sections.append(f"""## Figure 15 — general-purpose prefetch confidence

{table}

Paper: 1.31 train / 1.36 novel.  Measured average {fmt(train_avg)} /
{fmt(novel_avg)}; best expression `{fig15["expression"]}`.  Directional
agreement with individual losses (one kernel can regress while the
average stays positive); the magnitude gap is the documented
ORC-baseline divergence — see Section 7.2.1 below.
""")
    else:
        missing.append("fig15")

    fig16 = load("fig16_prefetch_crossval")
    if fig16:
        parts = []
        mins, maxs = [], []
        for machine, scores in fig16.items():
            table, train_avg, _ = pair_table(scores)
            values = [v[0] for v in scores.values()]
            mins.append(min(values))
            maxs.append(max(values))
            parts.append(f"**{machine}**\n\n{table}")
        body = "\n\n".join(parts)
        sections.append(f"""## Figure 16 — prefetch cross-validation (SPEC2000-style, two architectures)

{body}

**The generality caveat reproduces sharply.**  The paper: "for a couple
of benchmarks in the SPEC2000 floating point set, we see that
aggressive prefetching is desirable ... unless designers can assert
that the training set provides adequate problem coverage, they cannot
completely trust GP-generated solutions."  Measured: the learned
function swings from {fmt(min(mins))} (large loss) to {fmt(max(maxs))}
(large win) across the unseen kernels — out-of-coverage behaviour is
exactly as untrustworthy as the paper warns.
""")
    else:
        missing.append("fig16")

    claim_rand = load("claim_random_search")
    if claim_rand:
        rows = "\n".join(f"| {name} | {fmt(value)} |"
                         for name, value in claim_rand.items())
        sections.append(f"""## Section 5.4.1 claim — random search already wins

"By simply creating and testing 399 random expressions, we were able to
find a priority function that outperformed Trimaran's."  Measured (best
of a random pool, no baseline seed, no evolution):

| benchmark | best random speedup |
|---|---|
{rows}

Shape reproduced: the random pool matches or beats Equation 1 on most
benchmarks, confirming that the baseline sits well inside the reachable
space.
""")
    else:
        missing.append("claim_random_search")

    claim_np = load("claim_noprefetch")
    if claim_np:
        rows = "\n".join(
            f"| {name} | {fmt(spec)} | {fmt(off)} |"
            for name, (spec, off) in claim_np.items()
        )
        sections.append(f"""## Section 7.2.1 claim — "no-prefetch within 7% of specialists"

| benchmark | specialist | prefetch-off |
|---|---|---|
{rows}

**Documented divergence.**  On the authors' Itanium testbed ORC's
prefetching was a net loss, so disabling it recovered most of the
specialists' gains.  On our simulated hierarchy the SPEC92/95-style
streaming kernels *genuinely profit* from prefetching, so the blanket
off-switch costs real cycles on most of the training set.  The
transferable parts hold and are asserted in the bench: specialists
never lose to the off-switch (that policy is in the search space), and
where prefetching does not pay (093.nasa7's cache-resident matmul) the
off-switch lands within the paper's ~7%.
""")
    else:
        missing.append("claim_noprefetch")

    claim_seed = load("claim_seed_stability")
    if claim_seed:
        values = list(claim_seed.values())
        spread = max(values) - min(values)
        rows = ", ".join(f"seed {s}: {fmt(v)}" for s, v in claim_seed.items())
        sections.append(f"""## Section 5.4.1 claim — seed stability

"Multiple reruns using different initialization seeds reveal minuscule
differences in performance."  Measured final fitnesses across three
independent evolutions: {rows} (spread {fmt(spread)}) — the same
many-solutions-per-fitness landscape the paper describes.
""")
    else:
        missing.append("claim_seed_stability")

    ext = load("ext_scheduling")
    if ext:
        rows = "\n".join(
            f"| {name} | {fmt(values[0])} | {fmt(values[1])} |"
            for name, values in ext["evolved"].items()
        )
        anti = ", ".join(f"{n}: {fmt(v)}" for n, v in ext["anti_depth"].items())
        sections.append(f"""## Extension — evolving the list-scheduling priority

Beyond the paper's evaluation: its Section 2 example (latency-weighted
depth for list scheduling), exposed as a fourth case study on a
dual-issue machine.

| benchmark | train | novel |
|---|---|---|
{rows}

The classic heuristic is near-optimal for greedy list scheduling, so
the evolved functions match it with occasional ~1% wins; the hook is
demonstrably live (an adversarial anti-depth priority costs real
cycles: {anti}).
""")

    abl_scale = load("ablation_scale")
    abl_dss = load("ablation_dss")
    abl_seed = load("ablation_seeding")
    abl_pars = load("ablation_parsimony")
    if abl_dss and abl_seed:
        scale_rows = ""
        if abl_scale:
            scale_rows = "\n".join(
                f"  - population {pop}: best {fmt(fit_evals[0])} "
                f"({fit_evals[1]} evaluations)"
                for pop, fit_evals in abl_scale.items())
        sections.append(f"""## Ablations (the paper's future-work knobs)

- **DSS vs full-suite evaluation** (Gathercole's point): comparable
  champions — full {fmt(abl_dss["full"][0])} with
  {abl_dss["full"][1]} evaluations vs DSS {fmt(abl_dss["dss"][0])} with
  {abl_dss["dss"][1]} — DSS saves
  {100 - round(100 * abl_dss["dss"][1] / abl_dss["full"][1])}% of the
  fitness evaluations.
- **Baseline seeding**: seeded {fmt(abl_seed["seeded"])} vs unseeded
  {fmt(abl_seed["unseeded"])} — for hyperblock formation the seed barely
  matters, the paper's exact observation ("the seed had no impact on
  the final solution"), while seeding guarantees the >= 1.0 floor.
- **Parsimony pressure**: among equally-fit finalists the champion is
  the smallest (size {abl_pars["champion_size"] if abl_pars else "?"}),
  keeping Figure 8-style readability.
- **Elitism**: keeps the best-fitness curve monotone (asserted in
  `test_ablation_gp.py`).
- **Population scale** (Section 9's dependence-on-parameters caveat):
{scale_rows}
""")

    sections.append("""## Tables

* **Table 1** (GP primitives) — implemented verbatim in
  `repro.gp.nodes`; syntax round-trips in `tests/gp/test_parse.py`.
* **Table 2** (GP parameters) — the library defaults
  (`GPParams()`); asserted in `tests/gp/test_engine.py`.
* **Table 3** (EPIC machine) — `DEFAULT_EPIC`; every row asserted in
  `tests/machine/test_descr_cache_branch.py`.
* **Table 4** (hyperblock features) — emitted per path with
  min/mean/max/std aggregates; asserted in
  `tests/passes/test_hyperblock.py`.
* **Table 5** (benchmark suite) — 41 same-named re-implementations;
  coverage asserted in `tests/suite/test_registry.py`, per-benchmark
  baseline statistics regenerated by `benchmarks/test_table5_suite.py`
  (see `benchmarks/results/table5_suite.json`).
""")

    sections.append("""## The evaluation fast path (infrastructure, not a paper figure)

The paper ran fitness evaluations on 15–20 machines; our substitute is
the three-layer fast path (generation batching → process pool →
persistent fitness cache) described in README.md.  How to use it when
regenerating figures:

**Cache layout on disk.**  `--fitness-cache DIR` (CLI) or
`FitnessCache(DIR)` (API) stores one JSON file per simulation under
`DIR/<k₁k₂>/<sha256-key>.json`, where the key digests `(cache format
version, pipeline fingerprint, case name, machine fingerprint, noise
level, expression structural key, benchmark, dataset, verified flag)`
and the payload is the full `SimResult` (cycles plus all counters).
Writes go through the one atomic write path (temp file, `os.replace`;
an entry skips the fsync, since a torn entry reads as a miss), so any
number of worker processes and concurrent figure scripts can share one
directory; racing writers produce identical bytes.

**Invalidation.**  The *pipeline fingerprint* hashes every `.py` file
under `src/repro/`, so editing any pass, the simulator, the IR, a
benchmark program or the GP evaluation semantics silently retires all
old entries (they are simply never addressed again — prune stale
directories whenever convenient, the store is append-only).  Native
(non-tree) priority callables are never persisted: their identity is
process-local.  Noisy harnesses (`noise_stddev > 0`) cache fine —
noise seeds derive from the memo key — but each noise level addresses
its own entries.

**Sharing across figure scripts.**  Export
`REPRO_FITNESS_CACHE=~/.cache/repro-fitness` once and every
`python -m repro simulate/evolve` invocation (and any harness you
construct with `EvalSettings(fitness_cache_dir=resolve_cache_dir())`)
shares one store: all baseline
simulations and every candidate that any previous run already scored
come back without compiling or simulating.  A warm re-run of an entire
specialized search executes **zero** simulator invocations (asserted
in `tests/metaopt/test_parallel.py` and by the `warm-rerun` workload
of `bench/`).

**Measuring.**  `python3 bench/run.py` (see `bench/README.md`) times a
cold specialised campaign, a cold DSS campaign and the warm re-run of
a campaign, each repeated for a fixed window between calibration
slices; that serial, pool and warm-cache runs produce bit-identical
fitness curves and champions is asserted in
`tests/metaopt/test_parallel.py`.  Parallel wall-clock gains require
as many free cores as workers (the simulation is pure CPU) and a
campaign a few seconds long (`docs/FLEET.md` has the measured table);
the warm-cache speedup is hardware-independent.
""")

    if missing:
        sections.append(
            "## Missing results\n\nNo recorded JSON for: "
            + ", ".join(missing)
            + ".  Run `pytest benchmarks/ --benchmark-only` first.\n"
        )

    (ROOT / "EXPERIMENTS.md").write_text("\n".join(sections))
    print(f"EXPERIMENTS.md written ({len(sections)} sections, "
          f"{len(missing)} missing)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
