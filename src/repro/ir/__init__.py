"""Compiler IR substrate: values, instructions, CFG, analyses, interpreter.

Import names from the defining modules (``repro.ir.function``,
``repro.ir.instr``, ``repro.ir.interp``, ...): the package re-exports
nothing, so a module that needs only the IR data types does not load
the interpreter (DESIGN.md, "What a command loads")."""
