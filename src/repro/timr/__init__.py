"""``repro.timr`` — the TiMR framework (the paper's first contribution).

TiMR transparently combines the temporal DSMS of :mod:`repro.temporal`
with the map-reduce platform of :mod:`repro.mapreduce`: temporal queries
are annotated with exchange operators (explicitly via ``Query.exchange``
or by the cost-based optimizer), cut into fragments, and executed as M-R
stages whose reducers embed unmodified DSMS instances. Key-less
fragments with bounded windows can be scaled out with temporal (span)
partitioning.
"""

from ..temporal.event import SRC_COLUMN
from .compile import CompiledStage, compile_fragment, make_reducer
from .fragments import Fragment, FragmentationError, describe_fragments, make_fragments
from .optimizer import (
    RANDOM,
    SINGLE,
    AnnotationResult,
    Statistics,
    annotate_plan,
    candidate_keys,
    estimate_rows,
)
from .recovery import (
    JobManifest,
    ResumeError,
    StageCheckpoint,
    load_manifest,
    manifest_path,
    plan_fingerprint,
    save_manifest,
)
from .runner import TiMR, TiMRResult
from .temporal_partition import SpanLayout, plan_spans

__all__ = [
    "JobManifest",
    "ResumeError",
    "StageCheckpoint",
    "load_manifest",
    "manifest_path",
    "plan_fingerprint",
    "save_manifest",
    "AnnotationResult",
    "CompiledStage",
    "Fragment",
    "FragmentationError",
    "RANDOM",
    "SINGLE",
    "SRC_COLUMN",
    "SpanLayout",
    "Statistics",
    "TiMR",
    "TiMRResult",
    "annotate_plan",
    "candidate_keys",
    "compile_fragment",
    "describe_fragments",
    "estimate_rows",
    "make_fragments",
    "make_reducer",
    "plan_spans",
]
