PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test test-oracle record-digests lint selflint ruff chaos examples bench-e2e bench-pairs bench-smoke test-bench-harness profile profile-bt loc

# everything CI gates
check: test test-oracle selflint chaos ruff test-bench-harness examples bench-smoke

test:
	$(PYTHON) -m pytest -x -q

# the heavy profile of the whole-plan oracle (tests/runtime/test_plan_oracle.py):
# every GroupApply shape through Engine.run, StreamingEngine and TiMR.run
# against relation.ref_plan, many histories per cell (~2 min); tier-1
# runs the light profile, and pyproject's addopts deselect this marker
test-oracle:
	$(PYTHON) -m pytest -q -m oracle tests/runtime/test_plan_oracle.py

# print the per-call digest tables the runtime tests check (BATCH_DIGESTS,
# PUSH_DIGESTS, TOP_*; tests/runtime/record_digests.py): run it on the
# parent of a change that must keep per-call behaviour, and paste what it
# prints; it records and checks nothing, so it is not part of `check`
record-digests:
	$(PYTHON) -m tests.runtime.record_digests

# end-to-end fault-tolerance suite: full BT pipeline fault-free vs under
# a seeded fault schedule vs killed-and-resumed; asserts byte-identical
# output (see docs/FAULT_TOLERANCE.md)
chaos:
	$(PYTHON) -m repro chaos

# the examples that build Engine, Cluster and TiMR through the public API
# and finish in seconds (behavioral_targeting.py and keyword_trends.py
# take ~20 s each and are left to run by hand)
examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/realtime_replay.py
	$(PYTHON) examples/streamsql_tour.py

# the repo benchmark (BENCHMARK.json): every workload once, each in a
# fresh process, outputs checked, end-to-end metrics printed by name.
# `--runs N --out A.json` then `--compare A.json B.json` is how two
# commits are compared (benchmarks/e2e/README.md).
bench-e2e:
	$(PYTHON) benchmarks/e2e/run.py --workload all

# a git revision against the working tree: PAIRS alternating runs of
# every workload per side, seeds 0..PAIRS-1, then `run.py --compare`
# (benchmarks/pairs.py; A.json and B.json stay in pairs_out/). About
# three minutes a pair, so it is not part of `check`. `WORKLOAD=bt_timr`
# pairs one workload while iterating on it; without it, every workload
BASE ?= HEAD
PAIRS ?= 10
PAIR_WORKLOAD = $(if $(filter file undefined,$(origin WORKLOAD)),all,$(WORKLOAD))
bench-pairs:
	$(PYTHON) benchmarks/pairs.py --base $(BASE) --pairs $(PAIRS) --workload $(PAIR_WORKLOAD)

# src/ lines per package at BASE and in the working tree, and the net
# change (tools/loc.py): the count ROADMAP items state their acceptance in
loc:
	@$(PYTHON) tools/loc.py --base $(BASE)

# the benchmark harness's own tests; benchmarks/e2e is not in tier-1's
# testpaths
test-bench-harness:
	$(PYTHON) -m pytest benchmarks/e2e -q

# every repo-benchmark workload at smoke size; run.py exits non-zero when
# a workload's output differs from benchmarks/e2e/expected.json
# - bt_timr (~3 s): the LR weights are solved densely (bt/model.py) and
#   the chain serves train.out from kez.frag0 (timr/fingerprint.py): both
#   lean on this digest, floats at 9 significant digits
# - scale_sliding, scale_par and scale_hopping: Engine.run keeps its
#   result as columns (EventColumns); these hash and mass-check every row
# - stream_push: bot elimination pushed row by row, its per-user plan on
#   flat GroupApply chains: the check asserts pushed + flushed output
#   equals Engine.run over the same rows
SMOKE = --size smoke --seed 0 --seconds 2
bench-smoke:
	$(PYTHON) benchmarks/e2e/run.py --workload bt_timr $(SMOKE)
	$(PYTHON) benchmarks/e2e/run.py --workload scale_sliding $(SMOKE)
	$(PYTHON) benchmarks/e2e/run.py --workload scale_par $(SMOKE)
	$(PYTHON) benchmarks/e2e/run.py --workload scale_hopping $(SMOKE)
	$(PYTHON) benchmarks/e2e/run.py --workload stream_push $(SMOKE)

# where one pass of a repo-benchmark workload spends its time, layer by
# layer: `make profile WORKLOAD=scale_hopping` is one traced run cut down
# to the rows of the layers that workload runs — timr.*, cluster.*,
# engine.run_s and bt.* for bt_timr (EXPERIMENTS.md, "bt_timr, layer by
# layer"), engine.*, dataflow.*, op.* and heap.* for the others;
# everything run.py printed stays in profile_out/
WORKLOAD ?= bt_timr
PROFILE_ROWS = $(if $(filter bt_timr,$(WORKLOAD)),timr\.|cluster\.|engine\.run_s|bt\.,engine\.|dataflow\.|op\.|heap\.)
profile:
	@mkdir -p profile_out
	$(PYTHON) benchmarks/e2e/run.py --workload $(WORKLOAD) --seed 0 --trace 1 \
		> profile_out/$(WORKLOAD)_profile.txt
	@grep -E '^metric +($(PROFILE_ROWS))' profile_out/$(WORKLOAD)_profile.txt

# ... then, per job of the chain, the stages that ran, the stages served
# from an equal fragment this TiMR already ran, and any refused fingerprint
profile-bt:
	@$(MAKE) --no-print-directory profile WORKLOAD=bt_timr
	@$(PYTHON) benchmarks/profile_bt_reuse.py

selflint:
	$(PYTHON) -m repro lint --builtin --no-plan
	$(PYTHON) -m repro lint examples/*.py --no-plan

# ruff is optional in the dev container; the committed config in
# pyproject.toml is authoritative wherever it IS available (CI).
ruff:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests; \
	elif command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping (CI runs it)"; \
	fi
