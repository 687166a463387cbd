PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test test-stress lint selflint ruff chaos chaos-parallel bench-smoke bench-compare bench-trend bench-e2e test-bench-harness profile profile-bt

check: test selflint chaos ruff

test:
	$(PYTHON) -m pytest -x -q

# opt-in stress/soak tier: the combined BT job through TiMR under the
# process pool with seeded map/reduce worker kills, repeatedly, plus
# leaked-process / leaked-fd checks.
# Deselected from the default run by addopts (-m "not stress").
test-stress:
	$(PYTHON) -m pytest -x -q -m stress tests/stress

# end-to-end fault-tolerance suite: full BT pipeline fault-free vs under
# a seeded fault schedule vs killed-and-resumed; asserts byte-identical
# output (see docs/FAULT_TOLERANCE.md)
chaos:
	$(PYTHON) -m repro chaos

# the same suite under the supervised process executor, plus the
# executor-chaos phase: seeded kills of map/reduce pool workers
# mid-run, asserting the output hash matches the unfailed baseline
# (docs/PARALLELISM.md, "Worker failure semantics"); the JSON report
# carries phase timings and is folded into the CI benchmark artifact
# upload
chaos-parallel:
	@mkdir -p profile_out
	$(PYTHON) -m repro chaos --executor process --workers 4 \
		--json > profile_out/chaos_parallel.json
	@$(PYTHON) -c "import json; d = json.load(open('profile_out/chaos_parallel.json')); \
		assert d['passed'], d; ec = d['executor_chaos']; \
		print('chaos-parallel passed:', ec['injected'], 'worker fault(s),', \
		'byte_identical =', ec['byte_identical'])"

# fast machine-readable benchmark: events/sec + peak heap per builtin
# BT query, a memory-scaling series and per-stage wall times of the
# combined TiMR job, written to
# profile_out/BENCH_current.json (profile_out/ is git-ignored; CI
# uploads it as a non-gating artifact). Committed reference baselines
# live in benchmarks/baselines/.
bench-smoke:
	@mkdir -p profile_out
	$(PYTHON) benchmarks/bench_smoke.py --out profile_out/BENCH_current.json

# re-measure into a scratch artifact and compare per-query events/sec
# against the committed baseline (noisy, loose threshold)
bench-compare:
	@mkdir -p profile_out
	$(PYTHON) benchmarks/bench_smoke.py --out profile_out/BENCH_current.json \
		--baseline benchmarks/baselines/BENCH_pr10.json

# run-over-run tracking: append the current artifact to
# profile_out/BENCH_history.jsonl and compare against the best-known
# per-query events/sec across every committed baseline and prior
# history entry. Always exits 0 (the report is advisory; pass --strict
# to gate).
bench-trend: bench-smoke
	$(PYTHON) benchmarks/trend.py

# the repo benchmark (BENCHMARK.json): every workload once, each in a
# fresh process, outputs checked, end-to-end metrics printed by name.
# `--runs N --out A.json` then `--compare A.json B.json` is how two
# commits are compared (benchmarks/e2e/README.md).
bench-e2e:
	$(PYTHON) benchmarks/e2e/run.py --workload all

# the benchmark harness's own tests; benchmarks/e2e is not in tier-1's
# testpaths
test-bench-harness:
	$(PYTHON) -m pytest benchmarks/e2e -q

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
