"""Introspection of the user callables embedded in a CQ plan.

TiMR's determinism guarantee (Section III-C.1: restarted reducers and
offline/live re-runs produce byte-identical output) only holds when every
lambda and UDO in the plan is a pure function of payloads and lifetimes.
These helpers inspect callables *statically* — bytecode via
:mod:`dis`, default arguments, closure cells — so hazards surface before
a job runs rather than as silently divergent output.

Everything here is best-effort and conservative: when a callable cannot
be introspected (a C builtin, a ``functools.partial`` over one, ...) the
helpers return "don't know" and the passes stay silent rather than
guessing.
"""

from __future__ import annotations

import builtins
import dis
import types
from typing import Iterable, List, Optional, Set, Tuple

from ..temporal.plan import (
    AlterLifetimeNode,
    AntiSemiJoinNode,
    PlanNode,
    ProjectNode,
    ScanUDONode,
    SnapshotUDONode,
    TemporalJoinNode,
    WhereNode,
    WindowedUDONode,
)

#: (attribute holding a callable, human name) per node type. Only
#: *runtime* callables appear here — GroupApply's subquery builder runs
#: at plan-construction time and is irrelevant to execution determinism.
_CALLABLE_ATTRS = {
    WhereNode: (("predicate", "predicate"),),
    ProjectNode: (("fn", "projection"),),
    TemporalJoinNode: (("residual", "join residual"), ("select", "join select")),
    AntiSemiJoinNode: (("residual", "join residual"),),
    WindowedUDONode: (("fn", "windowed UDO"),),
    SnapshotUDONode: (("fn", "snapshot UDO"),),
    ScanUDONode: (("state_factory", "scan state factory"), ("fn", "scan UDO")),
}


def node_callables(node: PlanNode) -> List[Tuple[object, str]]:
    """The runtime callables a node will invoke during execution."""
    out: List[Tuple[object, str]] = []
    for node_type, attrs in _CALLABLE_ATTRS.items():
        if isinstance(node, node_type):
            for attr, name in attrs:
                fn = getattr(node, attr, None)
                if fn is not None:
                    out.append((fn, name))
    if isinstance(node, AlterLifetimeNode) and node.kind == "custom":
        for key in ("le_fn", "re_fn"):
            fn = node.params.get(key)
            if fn is not None:
                out.append((fn, f"custom lifetime {key}"))
    return out


def unwrap(fn):
    """Follow functools.partial / __wrapped__ chains to the inner function."""
    seen = 0
    while seen < 10:
        if hasattr(fn, "func") and not hasattr(fn, "__code__"):  # partial
            fn = fn.func
        elif hasattr(fn, "__wrapped__"):
            fn = fn.__wrapped__
        else:
            break
        seen += 1
    return fn


def function_code(fn) -> Optional[types.CodeType]:
    fn = unwrap(fn)
    return getattr(fn, "__code__", None)


def all_codes(code: types.CodeType) -> Iterable[types.CodeType]:
    """A code object and every code object nested in its constants."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from all_codes(const)


# ---------------------------------------------------------------------------
# Payload-column access extraction (schema pass)
# ---------------------------------------------------------------------------


def accessed_payload_keys(fn) -> Optional[Set[str]]:
    """String keys the callable reads via ``x[...]`` or ``x.get(...)``.

    A callable may declare its reads explicitly by carrying a
    ``_repro_reads`` attribute (an iterable of column names) — the
    StreamSQL parser annotates its closure-built predicates this way,
    and user code can too. Otherwise a bytecode heuristic applies: a
    string constant consumed directly by a subscript load, or passed
    right after a ``.get`` attribute load, is treated as a payload
    column read. Returns ``None`` when the callable cannot be
    introspected at all; an empty set means "introspectable but no
    constant-key reads found" (e.g. iterating ``p.items()``).
    """
    declared = getattr(fn, "_repro_reads", None)
    if declared is not None:
        return set(declared)
    code = function_code(fn)
    if code is None:
        return None
    keys: Set[str] = set()
    for c in all_codes(code):
        instructions = list(dis.get_instructions(c))
        for i, ins in enumerate(instructions):
            if ins.opname == "BINARY_SUBSCR" and i > 0:
                prev = instructions[i - 1]
                if prev.opname == "LOAD_CONST" and isinstance(prev.argval, str):
                    keys.add(prev.argval)
            # 3.12+ folds BINARY_SUBSCR into BINARY_OP ([] variant)
            elif ins.opname == "BINARY_OP" and ins.argrepr == "[]" and i > 0:
                prev = instructions[i - 1]
                if prev.opname == "LOAD_CONST" and isinstance(prev.argval, str):
                    keys.add(prev.argval)
            elif (
                ins.opname == "LOAD_CONST"
                and isinstance(ins.argval, str)
                and i > 0
                and instructions[i - 1].opname in ("LOAD_METHOD", "LOAD_ATTR")
                and instructions[i - 1].argval == "get"
            ):
                keys.add(ins.argval)
    return keys


# ---------------------------------------------------------------------------
# Determinism hazards
# ---------------------------------------------------------------------------

#: Mutable container types whose presence in defaults/closures is a hazard.
MUTABLE_TYPES = (list, dict, set, bytearray)

#: Modules any reference to which is nondeterministic across restarts.
_IMPURE_MODULES = {"random", "secrets", "uuid"}

#: (module name, attribute) pairs that read wall-clock/OS entropy.
_IMPURE_ATTRS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("time", "process_time_ns"),
    ("time", "clock_gettime"),
    ("time", "localtime"),
    ("time", "gmtime"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("os", "urandom"),
    ("os", "getrandom"),
    ("os", "getpid"),
}


def mutable_defaults(fn) -> List[str]:
    """Names of parameters whose default value is a mutable container."""
    inner = unwrap(fn)
    code = getattr(inner, "__code__", None)
    defaults = getattr(inner, "__defaults__", None)
    if code is None or not defaults:
        return []
    argnames = code.co_varnames[: code.co_argcount]
    bad = []
    for name, value in zip(argnames[-len(defaults):], defaults):
        if isinstance(value, MUTABLE_TYPES):
            bad.append(name)
    return bad


def mutable_closure_cells(fn) -> List[str]:
    """Free-variable names bound to mutable containers in the closure."""
    inner = unwrap(fn)
    code = getattr(inner, "__code__", None)
    closure = getattr(inner, "__closure__", None)
    if code is None or not closure:
        return []
    bad = []
    for name, cell in zip(code.co_freevars, closure):
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell
            continue
        if isinstance(value, MUTABLE_TYPES):
            bad.append(name)
    return bad


def resolve_global(fn, name: str):
    """What ``name`` is in the callable's module globals, else in builtins."""
    inner = unwrap(fn)
    globs = getattr(inner, "__globals__", None) or {}
    if name in globs:
        return globs[name]
    return getattr(builtins, name, None)


def impure_flag(value, attr: Optional[str]) -> Optional[str]:
    """A human description when (value, attr) is an impure reference."""
    if isinstance(value, types.ModuleType):
        mod = value.__name__
        if mod in _IMPURE_MODULES:
            return f"{mod}.{attr}" if attr else mod
        if attr is not None and (mod, attr) in _IMPURE_ATTRS:
            return f"{mod}.{attr}"
        return None
    mod = getattr(value, "__module__", None)
    if mod in _IMPURE_MODULES:
        name = getattr(value, "__name__", "?")
        return f"{mod}.{name}"
    # `from datetime import datetime` / `date` then .now()/.today()
    if mod == "datetime" and attr is not None and ("datetime", attr) in _IMPURE_ATTRS:
        return f"datetime.{getattr(value, '__name__', 'datetime')}.{attr}"
    # `from time import time` style direct function imports
    if mod == "time" and attr is None:
        name = getattr(value, "__name__", None)
        if name is not None and ("time", name) in _IMPURE_ATTRS:
            return f"time.{name}"
    return None


def impure_references(fn) -> List[str]:
    """Nondeterministic globals the callable's bytecode can reach."""
    code = function_code(fn)
    if code is None:
        return []
    findings: List[str] = []
    seen: Set[str] = set()
    for c in all_codes(code):
        instructions = list(dis.get_instructions(c))
        for i, ins in enumerate(instructions):
            if ins.opname != "LOAD_GLOBAL":
                continue
            name = ins.argval
            value = resolve_global(fn, name)
            if value is None:
                continue
            # follow up to two chained attribute loads (datetime.datetime.now)
            attrs: List[str] = []
            j = i + 1
            while j < len(instructions) and len(attrs) < 2:
                nxt = instructions[j]
                if nxt.opname in ("LOAD_ATTR", "LOAD_METHOD"):
                    attrs.append(nxt.argval)
                    j += 1
                else:
                    break
            flagged = impure_flag(value, attrs[0] if attrs else None)
            if flagged is None and len(attrs) == 2:
                # e.g. LOAD_GLOBAL datetime; LOAD_ATTR datetime; LOAD_ATTR now
                inner_value = getattr(value, attrs[0], None)
                if inner_value is not None:
                    flagged = impure_flag(inner_value, attrs[1])
            if flagged is not None and flagged not in seen:
                seen.add(flagged)
                findings.append(flagged)
    return findings


# ---------------------------------------------------------------------------
# Parallel-safety hazards (the concurrency pass)
# ---------------------------------------------------------------------------

#: Methods that mutate their receiver in place. A call on a captured or
#: global container is a cross-schedule write once chains fan out.
_MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "remove",
    "discard",
    "pop",
    "popitem",
    "clear",
    "setdefault",
    "sort",
    "reverse",
}

#: os attributes that read or write ambient process environment.
_ENV_ATTRS = {"environ", "getenv", "putenv", "unsetenv"}


def closure_map(fn) -> dict:
    """Free-variable name -> captured value (empty cells skipped)."""
    inner = unwrap(fn)
    code = getattr(inner, "__code__", None)
    closure = getattr(inner, "__closure__", None)
    if code is None or not closure:
        return {}
    out = {}
    for name, cell in zip(code.co_freevars, closure):
        try:
            out[name] = cell.cell_contents
        except ValueError:  # empty cell
            continue
    return out


def mutable_global_refs(fn) -> List[str]:
    """Module-global names the bytecode loads that hold mutable containers.

    Module globals are shared by every thread and inherited by every
    forked worker, so even a *read* of a mutable one couples otherwise
    independent GroupApply key chains and map partitions.
    """
    code = function_code(fn)
    if code is None:
        return []
    found: List[str] = []
    seen: Set[str] = set()
    globs = getattr(unwrap(fn), "__globals__", None) or {}
    for c in all_codes(code):
        for ins in dis.get_instructions(c):
            if ins.opname != "LOAD_GLOBAL" or ins.argval in seen:
                continue
            # builtins are never mutable containers; only module globals
            if ins.argval in globs and isinstance(globs[ins.argval], MUTABLE_TYPES):
                seen.add(ins.argval)
                found.append(ins.argval)
    return found


def _fork_unsafe_kind(value) -> Optional[str]:
    """A short description when ``value`` cannot cross a fork/pickle."""
    import io
    import socket

    if isinstance(value, io.IOBase):
        return "an open file handle"
    if isinstance(value, socket.socket):
        return "a socket"
    if isinstance(value, types.GeneratorType):
        return "a live generator"
    tmod = type(value).__module__
    if tmod in ("_thread", "threading") and not isinstance(value, type):
        return f"a {type(value).__name__} threading primitive"
    return None


def fork_unsafe_captures(fn) -> List[Tuple[str, str]]:
    """(name, kind) pairs for captured values a ProcessExecutor cannot use.

    Open files, sockets, locks, and live generators are duplicated (or
    silently invalidated) by ``fork`` and cannot be pickled; a callable
    holding one in a closure cell, default argument, or referenced
    module global is not viable under the process executor.
    """
    inner = unwrap(fn)
    code = getattr(inner, "__code__", None)
    if code is None:
        return []
    candidates: List[Tuple[str, object]] = list(closure_map(fn).items())
    defaults = getattr(inner, "__defaults__", None) or ()
    argnames = code.co_varnames[: code.co_argcount]
    candidates.extend(zip(argnames[-len(defaults):], defaults))
    globs = getattr(inner, "__globals__", None) or {}
    global_names: Set[str] = set()
    for c in all_codes(code):
        for ins in dis.get_instructions(c):
            if ins.opname == "LOAD_GLOBAL" and ins.argval in globs:
                global_names.add(ins.argval)
    candidates.extend((name, globs[name]) for name in sorted(global_names))
    found = []
    seen: Set[str] = set()
    for name, value in candidates:
        kind = _fork_unsafe_kind(value)
        if kind is not None and name not in seen:
            seen.add(name)
            found.append((name, kind))
    return found


def ambient_env_reads(fn) -> List[str]:
    """References to ``os.environ`` / ``os.getenv`` in the bytecode.

    Environment reads are ambient per-process state: forked workers see
    a snapshot, threads see live mutations, and neither is routed
    through the run context — so results can differ across executors.
    """
    import os as _os

    code = function_code(fn)
    if code is None:
        return []
    found: List[str] = []
    seen: Set[str] = set()
    for c in all_codes(code):
        instructions = list(dis.get_instructions(c))
        for i, ins in enumerate(instructions):
            if ins.opname != "LOAD_GLOBAL":
                continue
            value = resolve_global(fn, ins.argval)
            ref = None
            if isinstance(value, types.ModuleType) and value is _os:
                if i + 1 < len(instructions):
                    nxt = instructions[i + 1]
                    if (
                        nxt.opname in ("LOAD_ATTR", "LOAD_METHOD")
                        and nxt.argval in _ENV_ATTRS
                    ):
                        ref = f"os.{nxt.argval}"
            elif value is _os.environ:
                ref = "os.environ"
            elif value is _os.getenv:
                ref = "os.getenv"
            if ref is not None and ref not in seen:
                seen.add(ref)
                found.append(ref)
    return found


def order_dependent_writes(fn) -> List[Tuple[str, str]]:
    """(name, description) pairs for writes to shared/captured state.

    Three shapes are caught: rebinding a module global
    (``STORE_GLOBAL``), rebinding a variable captured from an enclosing
    scope (``STORE_DEREF`` on an outer free variable), and in-place
    mutation of a captured or global container (``.append()`` /
    ``obj[k] = v`` on a name that resolves to a mutable container).
    Each is an accumulation whose result depends on the order
    concurrent schedules interleave — the classic commutativity
    red flag for merge/reduce functions.
    """
    code = function_code(fn)
    if code is None:
        return []
    outer_free = set(code.co_freevars)
    closure = closure_map(fn)
    globs = getattr(unwrap(fn), "__globals__", None) or {}

    def _container(opname: str, name: str):
        if opname == "LOAD_DEREF":
            return closure.get(name)
        return globs.get(name)

    found: List[Tuple[str, str]] = []
    seen: Set[Tuple[str, str]] = set()

    def add(name: str, desc: str) -> None:
        if (name, desc) not in seen:
            seen.add((name, desc))
            found.append((name, desc))

    for c in all_codes(code):
        instructions = list(dis.get_instructions(c))
        for i, ins in enumerate(instructions):
            if ins.opname == "STORE_GLOBAL":
                add(ins.argval, f"rebinds module global {ins.argval!r}")
            elif ins.opname == "STORE_DEREF" and ins.argval in outer_free:
                add(ins.argval, f"rebinds captured variable {ins.argval!r}")
            elif (
                ins.opname in ("LOAD_ATTR", "LOAD_METHOD")
                and ins.argval in _MUTATING_METHODS
                and i > 0
            ):
                prev = instructions[i - 1]
                if prev.opname in ("LOAD_DEREF", "LOAD_GLOBAL"):
                    value = _container(prev.opname, prev.argval)
                    if isinstance(value, MUTABLE_TYPES):
                        add(
                            prev.argval,
                            f"calls .{ins.argval}() on captured "
                            f"{type(value).__name__} {prev.argval!r}",
                        )
            elif ins.opname == "STORE_SUBSCR" and i >= 2:
                prev = instructions[i - 2]
                if prev.opname in ("LOAD_DEREF", "LOAD_GLOBAL"):
                    value = _container(prev.opname, prev.argval)
                    if isinstance(value, MUTABLE_TYPES):
                        add(
                            prev.argval,
                            f"assigns into captured "
                            f"{type(value).__name__} {prev.argval!r}",
                        )
    return found


#: dict methods that mutate their receiver in place. ``pop`` doubles as
#: a list method, but every payload argument this detector watches is a
#: mapping, so the receiver-is-a-payload-param guard disambiguates.
_DICT_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear"}

#: opcodes that push a local variable (3.11 spells plain LOAD_FAST;
#: LOAD_DEREF covers a payload parameter captured by a nested lambda)
_LOCAL_LOADS = ("LOAD_FAST", "LOAD_FAST_CHECK", "LOAD_DEREF")


def payload_param_mutations(fn, param_indexes) -> List[Tuple[str, str]]:
    """(param name, description) pairs for in-place payload mutation.

    Events share their payload mappings: every branch of a multicast
    reads the same source events, pass-through operators forward the
    dict they were given, and join synopses alias payload dicts across
    stored and emitted events. A callable that writes into its payload
    argument (``p[k] = v``, ``del p[k]``, ``p.update(...)``, ...)
    therefore corrupts what other operators read or have emitted. This
    best-effort bytecode scan flags exactly those shapes on the
    parameters named by ``param_indexes`` (positions into the
    callable's positional arguments — e.g. a scan UDO's *state*
    argument is deliberately not listed, since mutating it is the whole
    point of a fold).
    """
    code = function_code(fn)
    if code is None:
        return []
    argnames = code.co_varnames[: code.co_argcount]
    params = {argnames[i] for i in param_indexes if i < len(argnames)}
    if not params:
        return []
    found: List[Tuple[str, str]] = []
    seen: Set[Tuple[str, str]] = set()

    def add(name: str, desc: str) -> None:
        if (name, desc) not in seen:
            seen.add((name, desc))
            found.append((name, desc))

    for c in all_codes(code):
        instructions = list(dis.get_instructions(c))
        for i, ins in enumerate(instructions):
            if ins.opname == "STORE_SUBSCR" and i >= 2:
                prev = instructions[i - 2]
                if prev.opname in _LOCAL_LOADS and prev.argval in params:
                    add(
                        prev.argval,
                        f"assigns into payload argument {prev.argval!r}",
                    )
            elif ins.opname == "DELETE_SUBSCR" and i >= 2:
                prev = instructions[i - 2]
                if prev.opname in _LOCAL_LOADS and prev.argval in params:
                    add(
                        prev.argval,
                        f"deletes a key from payload argument {prev.argval!r}",
                    )
            elif (
                ins.opname in ("LOAD_ATTR", "LOAD_METHOD")
                and ins.argval in _DICT_MUTATORS
                and i > 0
            ):
                prev = instructions[i - 1]
                if prev.opname in _LOCAL_LOADS and prev.argval in params:
                    add(
                        prev.argval,
                        f"calls .{ins.argval}() on payload argument "
                        f"{prev.argval!r}",
                    )
    return found


def mutable_captures(fn) -> List[Tuple[str, object]]:
    """(label, object) for every mutable container the callable can reach.

    Union of mutable closure cells, mutable default arguments, and
    referenced mutable module globals — the watch-list the dynamic
    :class:`~repro.runtime.racecheck.ShadowRaceChecker` fingerprints
    between task schedules.
    """
    inner = unwrap(fn)
    code = getattr(inner, "__code__", None)
    if code is None:
        return []
    out: List[Tuple[str, object]] = []
    for name, value in closure_map(fn).items():
        if isinstance(value, MUTABLE_TYPES):
            out.append((f"closure {name!r}", value))
    defaults = getattr(inner, "__defaults__", None) or ()
    argnames = code.co_varnames[: code.co_argcount]
    for name, value in zip(argnames[-len(defaults):], defaults):
        if isinstance(value, MUTABLE_TYPES):
            out.append((f"default {name!r}", value))
    globs = getattr(inner, "__globals__", None) or {}
    for name in mutable_global_refs(fn):
        out.append((f"global {name!r}", globs[name]))
    return out


def uses_builtin_hash(fn) -> bool:
    """True when the callable references the builtin ``hash``."""
    code = function_code(fn)
    if code is None:
        return False
    for c in all_codes(code):
        for ins in dis.get_instructions(c):
            if ins.opname == "LOAD_GLOBAL" and ins.argval == "hash":
                if resolve_global(fn, "hash") is builtins.hash:
                    return True
    return False


def callable_location(fn) -> Optional[Tuple[str, int]]:
    """(filename, first line) of a Python callable, if available."""
    code = function_code(fn)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno)
