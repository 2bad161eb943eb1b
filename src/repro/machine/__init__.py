"""EPIC machine model: description (Table 3), caches, branch predictor,
VLIW containers, and the cycle-level simulator.

Import names from the defining modules (``repro.machine.descr``,
``repro.machine.sim``, ...): the package re-exports nothing, so a
module that needs only a machine description or a ``SimResult`` does
not load the simulator (DESIGN.md, "What a command loads")."""
