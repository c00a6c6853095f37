"""MIR: the mid-level intermediate representation.

Our MIR mirrors rustc's: each function body is a control-flow graph of
basic blocks whose statements include explicit ``StorageLive`` /
``StorageDead`` markers and ``Drop`` events, with ownership moves visible
as ``Move`` operands.  This is exactly the representation the paper's
detectors consume ("our detector maintains the state of each variable by
monitoring when MIR calls StorageLive or StorageDead", §7.1).

One deliberate simplification versus rustc: ``Drop`` is a *statement*, not
a terminator, which keeps block counts small without changing the event
order any analysis observes.  This deviation is documented in DESIGN.md.

The package re-exports nothing: import from its submodules
(``repro.mir.interp.run_program``, ``repro.mir.build.build_program``, ...),
so that a check never loads the interpreter it does not run.
"""
