"""Meta Optimization: GP search over compiler priority functions.

The package wires the GP engine (:mod:`repro.gp`) around the compiler
(:mod:`repro.passes`) exactly as Figure 2 describes: candidates are
installed into a priority-function hook, benchmarks are compiled and
simulated, and fitness is the speedup over the stock heuristic.

Import names from the defining modules (``repro.metaopt.harness``,
``repro.metaopt.fitness_cache``, ...): the package re-exports nothing,
so a campaign answered from the fitness cache loads neither the pool,
the DSS code nor the compiler (DESIGN.md, "What a command loads").
"""
