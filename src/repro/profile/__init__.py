"""Runtime profiling: edge counts, path frequencies, branch
predictability (feeds Table 4 features).

Import names from :mod:`repro.profile.profiler`: the package
re-exports nothing."""
