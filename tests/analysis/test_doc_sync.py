"""Doc-sync self-tests: code registries and their docs must agree.

Every rule id registered in ``repro.analysis.diagnostics.RULES`` must
have a catalog section in docs/LINTING.md (headed ``### `rule.id`
(severity)``), and every documented rule id must still be registered —
so a renamed or removed rule cannot leave stale documentation behind,
and a new rule cannot ship undocumented. No ``REPRO_*`` environment
knob is read anywhere in ``src/``, and a knob, flag or export that was
removed must not linger in the docs.
"""

import re
from pathlib import Path

from repro.analysis import RULES

ROOT = Path(__file__).resolve().parents[2]
DOCS_DIR = ROOT / "docs"
DOC = DOCS_DIR / "LINTING.md"

#: ### `rule.id` (severity)
_HEADING = re.compile(r"^### `([a-z]+\.[a-z-]+)` \((error|warning)\)$", re.M)


def documented_rules():
    return {m.group(1): m.group(2) for m in _HEADING.finditer(DOC.read_text())}


class TestDocSync:
    def test_catalog_exists(self):
        assert DOC.is_file()
        assert documented_rules(), "no rule headings found in docs/LINTING.md"

    def test_every_registered_rule_is_documented(self):
        missing = sorted(set(RULES) - set(documented_rules()))
        assert not missing, (
            f"rules registered but missing from docs/LINTING.md: {missing}"
        )

    def test_every_documented_rule_is_registered(self):
        stale = sorted(set(documented_rules()) - set(RULES))
        assert not stale, (
            f"rules documented in docs/LINTING.md but not registered: {stale}"
        )

    def test_documented_severity_matches_registry(self):
        docs = documented_rules()
        mismatched = {
            rid: (docs[rid], RULES[rid].severity)
            for rid in set(docs) & set(RULES)
            if docs[rid] != RULES[rid].severity
        }
        assert not mismatched, (
            f"severity drift (documented, registered): {mismatched}"
        )


def user_docs():
    """README.md plus docs/*.md, as ``{relative path: text}``."""
    paths = [ROOT / "README.md", *sorted(DOCS_DIR.glob("*.md"))]
    return {str(p.relative_to(ROOT)): p.read_text() for p in paths}


class TestNoEnvKnobs:
    """Run settings live on ``RunContext``; the environment sets none."""

    def test_no_repro_knob_is_read_in_src(self):
        found = sorted(
            (str(path.relative_to(ROOT)), knob)
            for path in (ROOT / "src").rglob("*.py")
            for knob in re.findall(r"REPRO_[A-Z_]+", path.read_text())
        )
        assert not found, f"REPRO_* knobs still read in src/: {found}"


class TestRemovedKnobsStayRemoved:
    """Wave batching, the shard workers, the columnar batch format, the
    in-engine thread fan-out with its shadow race checker, and the
    thread/process pool with its supervision, gate and chaos sites are
    gone; nothing a user reads, and nothing ``repro.runtime`` or
    ``repro.temporal`` exports, may still offer them."""

    REMOVED = (
        "REPRO_WAVE_BATCH",
        "--wave-batch",
        "supports_shards",
        "spawn_workers",
        "REPRO_BATCH",
        "batch_format",
        "EventBatch",
        "supports_columnar",
        "BATCH_FORMAT.md",
        "REPRO_RACE_CHECK",
        "race_check",
        "--dynamic",
        "ShadowRaceChecker",
        "RaceWarning",
        "last_race_findings",
        "parallel.dynamic-race",
        "parallel.schedule-divergence",
        "run_chain_tasks",
        "REPRO_EXECUTOR",
        "REPRO_WORKERS",
        "REPRO_FORCE_PARALLEL",
        "REPRO_PARALLEL_TIMEOUT",
        "REPRO_WORKER_RETRIES",
        "--executor",
        "--workers",
        "--force-parallel",
        "--worker-kill-rate",
        "--parallel",
        "ThreadExecutor",
        "ProcessExecutor",
        "Supervision",
        "ParallelSafetyWarning",
        "ExecutorDegradedWarning",
        "worker-kill",
        "reply-drop",
        "task-transient",
        "parallel.fork-unsafe-capture",
        "parallel.shared-mutable-capture",
        "parallel.ambient-env",
        "parallel.order-dependent-reduce",
        "attribution.py",
    )

    def test_removed_names_do_not_linger_in_docs(self):
        lingering = sorted(
            (path, name)
            for path, text in user_docs().items()
            for name in self.REMOVED
            if name in text
        )
        assert not lingering, f"removed knobs still documented: {lingering}"

    def test_removed_names_are_not_exported(self):
        import repro.runtime as runtime
        import repro.temporal as temporal

        source = (ROOT / "src/repro/runtime/__init__.py").read_text()
        source += (ROOT / "src/repro/temporal/__init__.py").read_text()
        for name in self.REMOVED + (
            "WaveBatcher",
            "resolve_waves_per_dispatch",
            "resolve_batch_format",
            "BatchRowView",
            "MISSING",
            "Executor",
            "SerialExecutor",
            "ParallelStats",
            "resolve_executor",
        ):
            assert name not in source, name
            assert not hasattr(runtime, name), name
            assert not hasattr(temporal, name), name
        for gone in (
            "temporal/batch.py",
            "runtime/racecheck.py",
            "runtime/parallel.py",
            "obs/attribution.py",
        ):
            assert not (ROOT / "src/repro" / gone).exists(), gone

    def test_removed_race_checking_has_no_hooks_left(self):
        from repro.runtime import RunContext
        from repro.runtime.dataflow import Dataflow
        from repro.temporal import Engine

        for name in self.REMOVED:
            assert name not in RULES, name
        assert not hasattr(RunContext(), "race_check")
        assert not hasattr(Engine(), "last_race_findings")
        assert not hasattr(Dataflow, "run_chain_tasks")

    def test_removed_pool_has_no_hooks_left(self):
        from repro.mapreduce import Cluster
        from repro.runtime import RunContext
        from repro.timr import TiMR

        for name in self.REMOVED:
            assert name not in RULES, name
        context = RunContext()
        for field in (
            "force_parallel",
            "worker_timeout",
            "worker_retry_budget",
            "resolve_executor",
        ):
            assert not hasattr(context, field), field
        assert not hasattr(Cluster(), "last_parallel")
        assert not hasattr(TiMR, "_parallel_gate")

    def test_waves_per_dispatch_is_documented_once_as_inert(self):
        # the keywords outlive the pool only because the repo benchmark
        # passes them; one place says so, for all three
        mentions = [
            (path, " ".join(paragraph.split()))
            for path, text in user_docs().items()
            for paragraph in text.split("\n\n")
            if "waves_per_dispatch" in paragraph
        ]
        assert [path for path, _ in mentions] == ["docs/EXECUTION.md"]
        paragraph = mentions[0][1]
        assert "accepted, ignored, leaves with the benchmark's keyword" in paragraph
        assert "executor=" in paragraph and "max_workers=" in paragraph
