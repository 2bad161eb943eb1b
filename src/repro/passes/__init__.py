"""Optimization passes: cleanup, inlining, unrolling, hyperblock
formation, prefetching, register allocation, list scheduling, and the
pipeline itself.

Import names from the defining modules (``repro.passes.pipeline``,
``repro.passes.hyperblock``, ...): the package re-exports nothing."""
