"""Genetic-programming engine (the paper's Section 3).

Public surface:

* :class:`~repro.gp.generate.PrimitiveSet` — what the compiler writer
  registers: feature names, result type, constant range.
* :func:`~repro.gp.parse.parse` / :func:`~repro.gp.parse.unparse` —
  the s-expression syntax of Table 1.
* :class:`~repro.gp.engine.GPEngine` / :class:`~repro.gp.engine.GPParams`
  — the generational loop with the Table 2 defaults.
* :class:`~repro.gp.dss.DSSState` — Gathercole's dynamic subset
  selection for multi-benchmark training.
* :func:`~repro.gp.simplify.simplify` — presentation-quality cleanup of
  evolved expressions.

Exports are resolved lazily (PEP 562): ``from repro.gp import
GPParams`` loads :mod:`repro.gp.engine` alone, not the DSS code or
the simplifier a campaign may never call.
"""

from __future__ import annotations

_EXPORTS = {
    "DSSState": "repro.gp.dss",
    "GenerationStats": "repro.gp.engine",
    "GPEngine": "repro.gp.engine",
    "GPParams": "repro.gp.engine",
    "GPResult": "repro.gp.engine",
    "PrimitiveSet": "repro.gp.generate",
    "TreeGenerator": "repro.gp.generate",
    "Node": "repro.gp.nodes",
    "ParseError": "repro.gp.parse",
    "infix": "repro.gp.parse",
    "parse": "repro.gp.parse",
    "unparse": "repro.gp.parse",
    "Individual": "repro.gp.select",
    "find_introns": "repro.gp.simplify",
    "simplify": "repro.gp.simplify",
    "BOOL": "repro.gp.types",
    "REAL": "repro.gp.types",
    "GPType": "repro.gp.types",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
