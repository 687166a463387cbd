"""End-to-end TiMR execution (Figure 5).

``TiMR.run`` takes an unmodified temporal query and an unmodified
cluster and does the paper's four steps: parse (the query already *is* a
CQ plan), annotate (cost-based optimizer or the user's explicit
``.exchange()`` hints), make fragments, and convert each fragment into an
M-R stage whose reducer embeds a DSMS instance. Query sources are bound
to equally named datasets in the cluster's distributed file system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..mapreduce.cluster import Cluster
from ..mapreduce.cost import JobReport
from ..mapreduce.fs import DistributedFile
from ..temporal.event import decode_row
from ..temporal.plan import ExchangeNode, PlanNode, topological_order
from ..temporal.query import Query
from ..temporal.time import TICK
from .compile import (
    CompiledStage,
    InputBinding,
    compile_fragment,
    fold_stateless_fragments,
)
from .fingerprint import JobFingerprints
from .fragments import Fragment, make_fragments
from .optimizer import AnnotationResult, Statistics, annotate_plan
from .temporal_partition import SpanLayout, plan_spans


@dataclass
class TiMRResult:
    """Everything a TiMR run produced."""

    output: DistributedFile
    fragments: List[Fragment]
    stages: List[CompiledStage]
    report: JobReport
    annotation: Optional[AnnotationResult]
    resumed_stages: int = 0
    #: stages served from an equal stage this TiMR already ran; a served
    #: stage cost no simulated cluster time and adds no ``StageReport``
    reused_stages: int = 0
    quarantined_rows: int = 0
    #: ``EngineStats.resolutions`` shape: ``"timr.fragment_reused"`` names each
    #: served stage and its origin, ``"timr.reuse_refused"`` each stage that ran
    #: without a fingerprint, with the node and the value that refused, and
    #: ``"executor.serial"`` a context naming a parallel executor
    resolutions: Dict[str, dict] = field(default_factory=dict)

    def output_rows(self) -> List[dict]:
        return self.output.all_rows()


def _reuse_resolutions(served: List[str], refusals: List[str]) -> Dict[str, dict]:
    """Served and unfingerprintable stages as counted, named events."""
    out: Dict[str, dict] = {}
    if served:
        reason = "an equal plan over the same files already ran on this TiMR; no StageReport"
        reason = f"{', '.join(served)}: {reason}"
        out["timr.fragment_reused"] = {"count": len(served), "reason": reason}
    if refusals:
        reason = "; ".join(refusals) + ": ran, and was not stored"
        out["timr.reuse_refused"] = {"count": len(refusals), "reason": reason}
    return out


def _has_exchanges(plan: PlanNode) -> bool:
    return any(isinstance(n, ExchangeNode) for n in topological_order(plan))


class TiMR:
    """The TiMR framework bound to a simulated cluster.

    A run is configured by the cluster's :class:`~repro.runtime.
    RunContext` alone: the cluster, TiMR and every reducer's embedded
    engine read the same tracer, fault, checkpoint and validation
    settings from ``cluster.context``.
    """

    def __init__(
        self,
        cluster: Cluster,
        statistics: Optional[Statistics] = None,
    ):
        self.cluster = cluster
        self.statistics = statistics or Statistics(
            num_machines=cluster.cost_model.num_machines
        )
        # fingerprint -> output of a stage this instance ran: an equal later
        # stage is served from here, not run
        self._store: Dict[str, DistributedFile] = {}

    def run(
        self,
        query: Union[Query, PlanNode],
        job_name: str = "timr",
        num_partitions: Optional[int] = None,
        span_width: Optional[int] = None,
        auto_annotate: bool = True,
        validate: Optional[bool] = None,
    ) -> TiMRResult:
        """Execute a temporal query over datasets in the cluster's FS.

        Args:
            query: the CQ; its source names must match FS dataset names.
            job_name: prefix for intermediate/output dataset names.
            num_partitions: reduce partitions per payload-partitioned
                stage (default: one per simulated machine).
            span_width: enables temporal partitioning for key-less
                fragments whose lifetime extent is bounded on both sides
                (Section III-B).
            auto_annotate: run the cost-based optimizer when the plan has
                no explicit ``.exchange()`` hints.
            validate: run the static pre-flight analyzer and reject plans
                with error-severity findings before any stage executes.
                ``None`` defers to the run context (default: on).

        Checkpointing comes from the cluster's context: with
        ``checkpoint_dir`` set, every completed stage's output is
        persisted there with a job manifest (crash-safe); ``resume``
        skips the stages whose checkpointed output verifies, and
        ``verify_replay`` re-executes the last of them and requires its
        re-hashed output to match the manifest — the determinism check
        that makes reuse sound.
        """
        if num_partitions is not None and num_partitions < 1:
            raise ValueError(f"num_partitions must be at least 1, not {num_partitions!r}")
        context = self.cluster.context
        if context.resume and context.checkpoint_dir is None:
            raise ValueError("resume=True requires a checkpoint_dir")
        plan = query.to_plan() if isinstance(query, Query) else query
        validating = validate if validate is not None else context.validate
        if validating:
            from ..analysis import validate_plan

            validate_plan(plan)
        # one pause over every stage's map/shuffle/sort and every
        # reducer's embedded Engine.run (which nests inside it)
        with context.quiet():
            return self._run_job(
                plan, job_name, num_partitions, span_width, auto_annotate, context
            )

    def _run_job(
        self, plan, job_name, num_partitions, span_width, auto_annotate, context
    ):
        checkpoint_dir = context.checkpoint_dir
        annotation: Optional[AnnotationResult] = None
        if not _has_exchanges(plan) and auto_annotate:
            annotation = annotate_plan(plan, self.statistics)
            plan = annotation.plan

        all_fragments = make_fragments(plan, job_name)
        fragments, fold_plans = fold_stateless_fragments(all_fragments)
        if num_partitions is None:
            num_partitions = self.cluster.cost_model.num_machines

        manifest = None
        resume_upto = 0
        if checkpoint_dir is not None:
            from . import recovery

            fingerprint = recovery.plan_fingerprint(all_fragments)
            if context.resume:
                manifest = recovery.load_manifest(checkpoint_dir, job_name)
                if manifest is not None and manifest.fingerprint != fingerprint:
                    code_only = manifest.fingerprint[:64] == fingerprint[:64]  # the skeleton half
                    raise recovery.ResumeError(
                        f"checkpoint under {checkpoint_dir!r} was written by a different "
                        f"plan for job {job_name!r} ("
                        + ("same datasets and keys, different code or Python version"
                           if code_only else "different datasets or keys")
                        + "); refusing to reuse its stage outputs"
                    )
                resume_upto = len(manifest.entries) if manifest is not None else 0
            if manifest is None:
                manifest = recovery.JobManifest(job=job_name, fingerprint=fingerprint)

        quarantine_name = f"{job_name}.quarantine"
        report = JobReport()
        stages: List[CompiledStage] = []
        output: Optional[DistributedFile] = None
        resumed = 0
        fs = self.cluster.fs
        fingerprints = JobFingerprints(all_fragments, fragments, fs)
        # the store keeps no rows the file system has let go of
        self._store = {
            k: f for k, f in self._store.items() if fs.exists(f.name) and fs.read(f.name) is f
        }
        served: List[str] = []  # "<stage output> (= <dataset it was served from>)"
        tracer = context.tracer
        with tracer.span(
            "timr.job", category="timr", job=job_name, fragments=len(fragments)
        ) as job_span:
            for i, fragment in enumerate(fragments):
                bindings, extent = fold_plans[fragment.output_name]
                compiled = self._compile(
                    fragment, bindings, extent, num_partitions, span_width
                )
                stages.append(compiled)
                with tracer.span(
                    "timr.fragment",
                    category="timr",
                    fragment=fragment.output_name,
                    key=",".join(fragment.key) if fragment.key else "",
                ) as frag_span:
                    key = fingerprints.of(
                        fragment, compiled.stage.num_partitions, compiled.span_layout
                    )
                    if i < resume_upto:
                        with tracer.span(
                            "timr.restore",
                            category="timr",
                            fragment=fragment.output_name,
                        ):
                            output = self._restore_stage(
                                checkpoint_dir, manifest.entries[i], compiled, fragment
                            )
                        resumed += 1
                        frag_span.set("resumed", True)
                        if i == resume_upto - 1 and context.verify_replay:
                            with tracer.span(
                                "timr.verify_replay",
                                category="timr",
                                fragment=fragment.output_name,
                            ):
                                self._verify_replay(manifest.entries[i], compiled, fragment)
                        continue
                    stored = self._store.get(key)
                    if stored is not None:
                        output = self.cluster.fs.write_partitioned(
                            fragment.output_name, stored.partitions
                        )
                        served.append(f"{fragment.output_name} (= {stored.name})")
                        frag_span.set("reused", True)
                    else:
                        output = self.cluster.run_stage(
                            compiled.stage,
                            compiled.inputs,
                            fragment.output_name,
                            quarantine_name=quarantine_name,
                        )
                        # a stage that quarantined rows also wrote dead
                        # letters, which serving it would not
                        if key is not None and not self.cluster.last_quarantined:
                            self._store[key] = output
                        report.stages.extend(self.cluster.last_report.stages)
                    if tracer.enabled:
                        frag_span.set("rows_out", output.num_rows)
                        tracer.metrics.counter(
                            "timr.fragment_rows", fragment=fragment.output_name
                        ).inc(output.num_rows)
                    if checkpoint_dir is not None:
                        with tracer.span(
                            "timr.checkpoint",
                            category="timr",
                            fragment=fragment.output_name,
                        ):
                            self._checkpoint_stage(
                                checkpoint_dir, manifest, compiled, output
                            )

            assert output is not None, "make_fragments always yields >= 1 fragment"
            quarantined = 0
            if self.cluster.fs.exists(quarantine_name):
                quarantined = self.cluster.fs.read(quarantine_name).num_rows
            if tracer.enabled:
                job_span.set("rows_out", output.num_rows)
                job_span.set("resumed", resumed)
                job_span.set("quarantined", quarantined)
                metrics = tracer.metrics
                metrics.counter("timr.fragments", job=job_name).inc(len(fragments))
                metrics.counter("timr.resumed_stages", job=job_name).inc(resumed)
                metrics.counter("timr.quarantined_rows", job=job_name).inc(quarantined)
            resolutions = {
                **context.executor_resolutions(),
                **_reuse_resolutions(served, fingerprints.refusals),
            }
            if tracer.enabled:
                for name, entry in resolutions.items():
                    tracer.metrics.counter(name, job=job_name).inc(entry["count"])
                    tracer.event(
                        "resolution", category="resolution",
                        resolution=name, **entry,
                    )
        return TiMRResult(
            output=output,
            fragments=fragments,
            stages=stages,
            report=report,
            annotation=annotation,
            resumed_stages=resumed,
            reused_stages=len(served),
            quarantined_rows=quarantined,
            resolutions=resolutions,
        )

    def run_many(
        self,
        queries: Dict[str, Union[Query, PlanNode]],
        job_name: str = "timr",
        **kwargs,
    ) -> Dict[str, List[dict]]:
        """Run several queries as ONE job with shared work (Section III-C.4).

        The multi-output transformation of the paper: each query's output
        is tagged with an extra column naming its logical output stream,
        the tagged streams are unioned into a single job output, and the
        rows are split back per query afterwards. Sub-queries shared
        between the input queries (the same ``Query`` object) are
        computed once — multicast across outputs.

        Returns ``{name: output rows}`` (the tag column removed).
        """
        if not queries:
            raise ValueError("run_many needs at least one query")
        tag = "_out"
        for name in sorted(queries):
            query = queries[name]
            q = query if isinstance(query, Query) else Query(query)
            cols = q.to_plan().output_columns()
            if cols is not None and tag in cols:
                raise ValueError(
                    f"query {name!r} already outputs a column named {tag!r}, "
                    "which run_many uses to tag each query's rows; rename "
                    "that payload column (the tag would silently overwrite it)"
                )
        combined: Optional[Query] = None
        for name in sorted(queries):
            query = queries[name]
            q = query if isinstance(query, Query) else Query(query)
            cols = q.to_plan().output_columns()
            tagged = q.project(
                lambda p, _n=name: {**p, tag: _n},
                label=f"tag:{name}",
                columns=None if cols is None else sorted(cols) + [tag],
            )
            combined = tagged if combined is None else combined.union(tagged)
        result = self.run(combined, job_name=job_name, **kwargs)
        outputs: Dict[str, List[dict]] = {name: [] for name in queries}
        for row in result.output_rows():
            row = dict(row)
            outputs[row.pop(tag)].append(row)
        return outputs

    # -- checkpoint/resume --------------------------------------------------

    def _checkpoint_stage(self, checkpoint_dir, manifest, compiled, output) -> None:
        """Persist a completed stage's output and extend the manifest.

        The dataset is written first (atomically), the manifest entry
        after — a crash between the two just recomputes that stage on
        resume.
        """
        from ..mapreduce import persist
        from . import recovery

        persist.save_file(output, checkpoint_dir)
        manifest.entries.append(
            recovery.StageCheckpoint(
                stage=compiled.stage.name,
                dataset=output.name,
                sha256=persist.dataset_sha256(output),
                rows=output.num_rows,
                num_partitions=output.num_partitions,
            )
        )
        recovery.save_manifest(manifest, checkpoint_dir)

    def _restore_stage(self, checkpoint_dir, entry, compiled, fragment):
        """Load one checkpointed stage output back into the cluster FS."""
        from ..mapreduce import persist
        from . import recovery

        if entry.dataset != fragment.output_name or entry.stage != compiled.stage.name:
            raise recovery.ResumeError(
                f"manifest entry {entry.stage!r} -> {entry.dataset!r} does not "
                f"line up with fragment {fragment.output_name!r}; the plan "
                "changed since the checkpoint was written"
            )
        try:
            dfile = persist.load_file(checkpoint_dir, entry.dataset)
        except (FileNotFoundError, persist.CorruptDatasetError) as exc:
            raise recovery.ResumeError(
                f"checkpointed dataset {entry.dataset!r} is missing or corrupt: {exc}"
            ) from exc
        if persist.dataset_sha256(dfile) != entry.sha256:
            raise recovery.ResumeError(
                f"checkpointed dataset {entry.dataset!r} hashes differently from "
                "its manifest entry; refusing to resume from it"
            )
        return self.cluster.fs.write_partitioned(entry.dataset, dfile.partitions)

    def _verify_replay(self, entry, compiled, fragment) -> None:
        """Re-run the last checkpointed stage; its output must re-hash equal.

        This is the paper's determinism claim (Section III-C.1) checked
        at the exact moment it is relied upon: if the replayed stage
        hashes differently — non-deterministic reducer, changed input
        data, changed user code — resuming would splice incompatible
        halves of a job together, so we refuse.
        """
        from ..mapreduce import persist
        from . import recovery

        replay_name = f"{fragment.output_name}.replay"
        replayed = self.cluster.run_stage(compiled.stage, compiled.inputs, replay_name)
        replay_hash = persist.dataset_sha256(replayed)
        self.cluster.fs.delete(replay_name)
        if replay_hash != entry.sha256:
            raise recovery.ResumeError(
                f"replaying checkpointed stage {entry.stage!r} produced different "
                "output than the manifest records — the stage is not "
                "deterministic over the current inputs, so its checkpoint "
                "cannot be reused"
            )

    # -- internals ---------------------------------------------------------

    def _compile(
        self,
        fragment: Fragment,
        bindings: List[InputBinding],
        extent,
        num_partitions: int,
        span_width: Optional[int],
    ) -> CompiledStage:
        layout: Optional[SpanLayout] = None
        if (
            not fragment.is_payload_partitioned
            and span_width is not None
            and None not in extent
        ):
            layout = self._layout_spans(bindings, extent, span_width)
        return compile_fragment(
            fragment, num_partitions, layout, bindings, context=self.cluster.context
        )

    def _layout_spans(
        self, bindings: List[InputBinding], extent, span_width: int
    ) -> Optional[SpanLayout]:
        """Spans over the inputs' lifetimes. A row that does not decode
        is the map phase's to reject or quarantine."""
        les, res = [], []
        for binding in bindings:
            for part in self.cluster.fs.read(binding.physical).partitions:
                for row in part:
                    try:
                        le, re, _ = decode_row(row)
                    except (KeyError, ValueError):
                        continue
                    les.append(le)
                    res.append(re)
        if not les:
            return None
        return plan_spans(min(les), max(res) - TICK, span_width, extent)
