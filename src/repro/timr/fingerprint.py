"""Code-aware fragment fingerprints, the key of a TiMR's stage store (ReStore).

A fragment is a deterministic function of its plan and its input files
(Section III-C.1). The fingerprint is a Merkle hash of exactly that:
every plan node's type and parameters, every callable's bytecode with
the defaults, closure values and module globals it reaches (recursively),
the partitioning key, partition count and span layout — and, per source,
the fingerprint of the lower fragment it names or the ``serial`` of the
file *object* held under that name, never the name.

What cannot be hashed *by value* makes a fragment :class:`Unfingerprintable`:
it always runs and is never stored. A wrong hit would be silent wrong
output; a refusal costs only time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import types
from typing import Dict, List, Optional, Sequence

from ..analysis.callables import (
    all_codes,
    closure_map,
    impure_flag,
    impure_references,
    resolve_global,
)
from ..mapreduce.fs import DistributedFileSystem
from ..temporal.operators import AggSpec
from ..temporal.plan import PlanNode, SourceNode, topological_order
from .fragments import Fragment

_PRIMITIVES = (type(None), type(...), bool, int, float, complex, str, bytes)
#: hashed by qualified name: their code is the interpreter's or a library's
_BY_NAME = (type, types.ModuleType, types.BuiltinFunctionType)
#: PlanNode attributes that say where a node sits, not what it computes
_NOT_PARAMETERS = frozenset({"inputs", "node_id", "source_location"})


class Unfingerprintable(ValueError):
    """No by-value serialisation, or impure code; names the node and the value."""


def _sha(parts: Sequence[str]) -> str:
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


class PlanHasher:
    """Merkle-hashes plans; a source is the dataset name it reads."""

    def __init__(self):
        self._where = "plan"  # the node being hashed, for refusal messages
        self._nodes: Dict[int, str] = {}  # node_id -> digest
        self._stack: List[int] = []  # ids of the functions being hashed

    def source_ident(self, name: str) -> str:
        return name

    def plan(self, root: PlanNode) -> str:
        """Digest of the sub-plan under ``root``, children before parents."""
        outer = self._where
        try:
            for node in topological_order(root):
                if node.node_id in self._nodes:
                    continue
                self._where = f"{type(node).__name__} {node.describe()!r}"
                if isinstance(node, SourceNode):
                    parts = [self.source_ident(node.name), self.value(node.columns)]
                else:
                    params = {k: v for k, v in vars(node).items() if k not in _NOT_PARAMETERS}
                    parts = [self._nodes[c.node_id] for c in node.inputs]
                    parts.append(self.value(params))
                self._nodes[node.node_id] = _sha([type(node).__name__, *parts])
        finally:
            self._where = outer
        return self._nodes[root.node_id]

    def value(self, v) -> str:
        """Canonical by-value serialisation of a parameter or capture."""
        if isinstance(v, _PRIMITIVES):
            return f"{type(v).__name__}:{v!r}"
        if isinstance(v, (tuple, list)):
            return f"{type(v).__name__}[{','.join(map(self.value, v))}]"
        if isinstance(v, (set, frozenset)):
            return f"set[{','.join(sorted(map(self.value, v)))}]"
        if isinstance(v, dict):
            items = (f"{self.value(k)}={self.value(x)}" for k, x in v.items())
            return f"dict[{','.join(items)}]"
        if isinstance(v, types.FunctionType):
            return self._function(v)
        if isinstance(v, _BY_NAME):
            impure = impure_flag(v, None)  # a captured `random`, `uuid.uuid4`, ...
            if impure:
                raise Unfingerprintable(f"{self._where}: reaches {impure}")
            name = getattr(v, "__qualname__", None) or v.__name__
            if "<locals>" in name:  # one factory's classes differ by what they capture
                raise Unfingerprintable(f"{self._where}: class {name} has no global name")
            # a builtin bound to an object (`rows.append`) is that object's state
            owner = getattr(v, "__self__", None)
            bound = "" if isinstance(owner, (type(None), *_BY_NAME)) else self.value(owner)
            return f"name:{getattr(v, '__module__', '')}.{name}{bound}"
        if isinstance(v, PlanNode):
            return self.plan(v)
        if isinstance(v, AggSpec):
            return self.value(("AggSpec", v.kind, v.into, v.column, v.params))
        if dataclasses.is_dataclass(v):
            fields = [(f.name, getattr(v, f.name)) for f in dataclasses.fields(v)]
            return self.value((type(v), fields))
        kind = type(v).__name__
        raise Unfingerprintable(f"{self._where}: cannot serialise {kind} {repr(v)[:60]} by value")

    def _function(self, fn) -> str:
        if id(fn) in self._stack:  # a call cycle: the outer visit covers the body
            return f"recursive:{fn.__qualname__}"
        # the analyzer's helpers read through a decorator to the function
        # it wraps; the call runs the wrapper, whose code they never see
        if hasattr(fn, "__wrapped__"):
            raise Unfingerprintable(f"{self._where}: {fn.__qualname__} is a decorated function")
        impure = ", ".join(impure_references(fn))
        if impure:
            raise Unfingerprintable(f"{self._where}: {fn.__qualname__} reads {impure}")
        self._stack.append(id(fn))
        try:
            parts = [self.value((fn.__defaults__, fn.__kwdefaults__, closure_map(fn)))]
            for code in all_codes(fn.__code__):
                shape = (code.co_code, code.co_names, code.co_varnames, code.co_freevars,
                         code.co_argcount, code.co_kwonlyargcount, code.co_flags)
                consts = [c for c in code.co_consts if not isinstance(c, types.CodeType)]
                parts += [repr(shape), self.value(consts)]
                for name in code.co_names:  # attribute names resolve to nothing
                    ref = resolve_global(fn, name)
                    if ref is not None:
                        parts.append(f"{name}={self.value(ref)}")
        finally:
            self._stack.pop()
        return "fn:" + _sha(parts)


class JobFingerprints(PlanHasher):
    """Fingerprints of one job's stages, lower fragments first: a source is
    the fingerprint of the lower fragment it names, or the ``serial`` of the
    file object held under its name now (the name rewritten is another)."""

    def __init__(self, all_fragments: Sequence[Fragment], stages: Sequence[Fragment],
                 fs: DistributedFileSystem):
        super().__init__()
        self._by_name = {f.output_name: f for f in all_fragments}
        self._stage_names = {f.output_name for f in stages}
        self._fs = fs
        self._done: Dict[str, str] = {}  # stage output name -> fingerprint
        self.refusals: List[str] = []  # one line per stage without a fingerprint

    def source_ident(self, name: str) -> str:
        lower = self._by_name.get(name)
        if lower is None:
            if not self._fs.exists(name):
                return "missing"  # equals no stored key: the stage runs and says so
            return f"file:{self._fs.read(name).serial}"
        if name not in self._stage_names:  # folded into this stage's map phase
            return "folded:" + self.plan(lower.root)
        if name not in self._done:
            raise Unfingerprintable(f"reads {name!r}, which has no fingerprint")
        return "stage:" + self._done[name]

    def of(self, fragment: Fragment, num_partitions: int, span_layout) -> Optional[str]:
        """The stage's fingerprint, or ``None`` (and one more refusal)."""
        try:
            layout = self.value((fragment.key, num_partitions, span_layout))
            key = _sha([self.plan(fragment.root), layout])
        except Unfingerprintable as exc:
            self.refusals.append(f"{fragment.output_name}: {exc}")
            return None
        self._done[fragment.output_name] = key
        return key
