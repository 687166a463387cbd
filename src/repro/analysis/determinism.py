"""Determinism pass.

A TiMR job's correctness story (Section III-C.1) rests on reducers being
pure functions of their input partition: M-R re-runs a failed reducer
and must get byte-identical output, and the same CQ must produce the
same answer offline (files) and live (feeds), over any partition count
and after a resume. Any user callable that reads a clock, draws
randomness, or keeps hidden state across rows breaks all of that —
silently.

This pass statically inspects every runtime callable in the plan
(predicates, projections, join residual/select, UDO functions, custom
lifetime functions, callables handed to aggregates) for the classic
hazards:

* references to ``random`` / ``secrets`` / ``uuid`` / ``time.time`` /
  ``datetime.now`` / ``os.urandom`` and friends → ``determinism.impure-call``
* mutable default arguments (the canonical Python state leak) →
  ``determinism.mutable-default``
* closure cells capturing a mutable list/dict/set →
  ``determinism.mutable-closure`` (a warning: mutating it is the bug,
  capturing it is the smell)
* builtin ``hash()`` → ``determinism.unstable-hash`` (string hashes
  change per process under PYTHONHASHSEED, so output is not comparable
  across runs)
* a mutable module global (shared by every partition and every run),
  or an accumulation into a global or captured variable →
  ``determinism.shared-state``: output changes with the partition count
  and on resume
* ``os.environ`` / ``os.getenv`` reads not routed through the run
  context → ``determinism.ambient-env``

``ScanUDO`` state is exempt by design: its ``state_factory`` exists
precisely to create per-run mutable state that the engine scopes
correctly, so only the factory's *own* captured state is inspected.
"""

from __future__ import annotations

from .callables import (
    ambient_env_reads,
    callable_location,
    impure_references,
    mutable_closure_cells,
    mutable_defaults,
    mutable_global_refs,
    node_callables,
    order_dependent_writes,
    uses_builtin_hash,
)


def determinism_pass(ctx) -> None:
    for node in ctx.all_nodes():
        for fn, what in node_callables(node):
            location = callable_location(fn) or node.source_location

            def report(rule: str, message: str) -> None:
                ctx.report(rule, node, f"{what} {message}", location=location)

            for ref in impure_references(fn):
                report(
                    "determinism.impure-call",
                    f"references {ref}; results would differ across "
                    "reducer restarts and offline/live runs",
                )
            for arg in mutable_defaults(fn):
                report(
                    "determinism.mutable-default",
                    f"has mutable default argument {arg!r}, which "
                    "persists state across events",
                )
            for cell in mutable_closure_cells(fn):
                report(
                    "determinism.mutable-closure",
                    f"captures mutable object {cell!r} in its closure; "
                    "mutating it would leak state across events and restarts",
                )
            if uses_builtin_hash(fn):
                report(
                    "determinism.unstable-hash",
                    "calls builtin hash(), whose value for strings "
                    "changes across processes (PYTHONHASHSEED)",
                )
            writes = order_dependent_writes(fn)
            for _name, desc in writes:
                report(
                    "determinism.shared-state",
                    f"{desc}; which rows reach it, in which order, follows "
                    "the partitioning, so output changes with the partition "
                    "count and on resume",
                )
            written = {name for name, _ in writes}
            for name in mutable_global_refs(fn):
                if name not in written:  # the write already names it
                    report(
                        "determinism.shared-state",
                        f"references mutable module global {name!r}, "
                        "which every partition and every run shares",
                    )
            for ref in ambient_env_reads(fn):
                report(
                    "determinism.ambient-env",
                    f"reads {ref}: ambient per-process state that is not "
                    "routed through RunContext, so a rerun or a resumed "
                    "job can observe another value",
                )
