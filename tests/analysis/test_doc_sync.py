"""Doc-sync self-tests: code registries and their docs must agree.

Every rule id registered in ``repro.analysis.diagnostics.RULES`` must
have a catalog section in docs/LINTING.md (headed ``### `rule.id`
(severity)``), and every documented rule id must still be registered —
so a renamed or removed rule cannot leave stale documentation behind,
and a new rule cannot ship undocumented. The same discipline covers the
runtime's environment knobs: every ``ENV_*`` constant in
``repro.runtime.parallel`` must appear in the docs — and a knob, flag or
export that was removed must not linger in them.
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


class TestEnvKnobDocSync:
    """Every runtime env knob must be documented."""

    @staticmethod
    def _env_constants():
        import repro.runtime.parallel as parallel

        return {
            value
            for name, value in vars(parallel).items()
            if name.startswith("ENV_") and isinstance(value, str)
        }

    def test_every_env_knob_appears_in_docs(self):
        corpus = "\n".join(
            p.read_text() for p in sorted(DOCS_DIR.glob("*.md"))
        )
        missing = sorted(
            knob for knob in self._env_constants() if knob not in corpus
        )
        assert not missing, (
            f"env knobs defined in repro.runtime.parallel but absent "
            f"from docs/*.md: {missing}"
        )


class TestRemovedKnobsStayRemoved:
    """Wave batching, the shard workers, the columnar batch format and
    the in-engine thread fan-out with its shadow race checker are gone;
    nothing a user reads, and nothing ``repro.runtime`` or
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
        from repro.runtime import Executor

        source = (ROOT / "src/repro/runtime/__init__.py").read_text()
        source += (ROOT / "src/repro/temporal/__init__.py").read_text()
        for name in self.REMOVED + (
            "WaveBatcher",
            "resolve_waves_per_dispatch",
            "resolve_batch_format",
            "BatchRowView",
            "MISSING",
        ):
            assert name not in source, name
            assert not hasattr(runtime, name), name
            assert not hasattr(temporal, name), name
            assert not hasattr(Executor, name), name
        assert not (ROOT / "src/repro/temporal/batch.py").exists()
        assert not (ROOT / "src/repro/runtime/racecheck.py").exists()

    def test_removed_race_checking_has_no_hooks_left(self):
        from repro.runtime import RunContext
        from repro.runtime.dataflow import Dataflow
        from repro.temporal import Engine

        for name in self.REMOVED:
            assert name not in RULES, name
        assert not hasattr(RunContext(), "race_check")
        assert not hasattr(Engine(), "last_race_findings")
        assert not hasattr(Dataflow, "run_chain_tasks")

    def test_waves_per_dispatch_is_documented_once_as_inert(self):
        # the keyword outlives the knob only because the repo benchmark
        # passes it; one place says so, and says nothing else
        mentions = [
            (path, " ".join(paragraph.split()))
            for path, text in user_docs().items()
            for paragraph in text.split("\n\n")
            if "waves_per_dispatch" in paragraph
        ]
        assert [path for path, _ in mentions] == ["docs/PARALLELISM.md"]
        assert (
            "accepted, ignored, leaves with the benchmark's keyword"
            in mentions[0][1]
        )
