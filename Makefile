# Convenience targets for the IFECC reproduction.

.PHONY: install test test-sanitized tier-guard bench bench-smoke bench-e2e-smoke bench-pairs bench-parallel bench-msbfs bench-store bench-guard obs-overhead examples results clean lint typecheck check

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/
	PYTHONPATH=src python -m pytest --doctest-modules src/repro -q

# Guard: the weighted and directed suites ride in the default pytest
# tier (pyproject testpaths = ["tests"]).  Fails if a config change
# silently stops collecting them — the metric-generic solver's
# value-identity guarantees live in those suites.
tier-guard:
	@out=$$(pytest tests/weighted tests/directed --collect-only -q); \
	echo "$$out" | grep -Eq "tests/weighted/.+: [1-9]" \
		&& echo "$$out" | grep -Eq "tests/directed/.+: [1-9]" \
		|| { echo "tier-guard: tests/weighted + tests/directed collect no tests"; exit 1; }

# Invariant-aware static analysis (tools/reprolint); exits non-zero on
# any rule violation.  Self-lints tools/reprolint.  Run
# `python -m reprolint --list-rules` for the rule catalogue.
lint:
	python -m reprolint src tests benchmarks tools

# Tier-1 suite with the runtime workspace sanitizer armed: pooled
# buffers become guarded loans, CSR arrays trap writes, stale reads
# raise SanitizerError.  CI runs this as a separate job.
test-sanitized:
	REPRO_SANITIZE=1 pytest tests/

# mypy under the [tool.mypy] config in pyproject.toml.  Skips (exit 0)
# when mypy is not installed; `pip install -e .[dev]` provides it.
# reprolint's R7 rule enforces annotation coverage even without mypy.
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else \
		echo "mypy not installed (pip install -e '.[dev]'); skipping typecheck"; \
	fi

# Everything a PR must pass: tier-1 tests (weighted/directed tier
# membership included), the sanitized rerun, reprolint, the type gate,
# the benchmark regression gate over the committed scorecards, and the
# end-to-end benchmark smoke run with its seed-0 digests.
check: test test-sanitized tier-guard lint typecheck bench-guard bench-e2e-smoke

bench:
	pytest benchmarks/ --benchmark-only

# Quick BFS-engine perf check (CI runs this and uploads the files):
# seed kernel vs. top-down-only vs. direction-optimizing hybrid on the
# generator suite, then the backend shootout (seed vs. hybrid vs.
# process backend).  Writes BENCH_bfs_engine.json,
# BENCH_parallel_backend.json, and the structured run-record artifact
# BENCH_trace_ifecc.jsonl at the repo root.
bench-smoke:
	python benchmarks/bench_bfs_engine.py --smoke --workers 1,2

# End-to-end benchmark smoke tests (CI's e2e-smoke job): every workload
# at smoke size, traced and untraced, with the seed-0 digests checked.
bench-e2e-smoke:
	PYTHONPATH=src python -m pytest benchmarks/e2e -q

# Paired A/B of the end-to-end benchmark: BASE (a git ref, checked out
# as a temporary worktree) against the working tree, PAIRS alternating
# pairs per workload; prints each side's median and quartiles and the
# change's wins.  E.g. `make bench-pairs BASE=HEAD~1 WORKLOADS="ed-powerlaw batch-ecc"`.
BASE ?= HEAD
PAIRS ?= 10
SEED ?= 0
WORKLOADS ?= ed-powerlaw ed-web-large anytime-mix batch-ecc
bench-pairs:
	python tools/bench_pairs.py --base $(BASE) --pairs $(PAIRS) --seed $(SEED) $(foreach w,$(WORKLOADS),--workload $(w))

# Backend shootout only, at full scale (powerlaw-50k, sampled sources).
# Honest on constrained hosts: the JSON records effective_cpus.
bench-parallel:
	python benchmarks/bench_bfs_engine.py --shootout-only --repeats 1

# MS-BFS engine shootout at full scale: seed lane kernel vs. the
# direction-optimizing lane engine vs. the looped single-source hybrid
# on 64-source batches (plus the 128/256-lane width-scaling ladder).
# Writes BENCH_msbfs_engine.json; exits non-zero if the hybrid lanes
# miss the 2x ecc-batch target on the power-law graph.
bench-msbfs:
	PYTHONPATH=src:benchmarks python benchmarks/bench_msbfs_engine.py

# Graph-store cold-open ladder (parse vs. npz vs. mmap open) on the
# full stand-in ladder; writes BENCH_graph_store.json at the repo root
# and exits non-zero if store open drops below 10x faster than parse.
# CI runs the --smoke variant and uploads the JSON.
bench-store:
	python benchmarks/bench_graph_store.py

# Benchmark regression gate (`repro bench check`):
# parses every committed BENCH_*.json, re-verifies the recorded
# speedup/bit-identity claims, and exits non-zero on any failure.
# `repro bench compare fresh.json baseline.json` adds the A/B leg.
bench-guard:
	PYTHONPATH=src python -m repro.cli bench check

# Tracing-overhead gate: A/Bs a null-sink IFECC run against a fully
# captured one (interleaved, min-of-CPU-time) and fails if capture
# exceeds the documented 3% budget.  Writes BENCH_obs_overhead.json.
obs-overhead:
	PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke

examples:
	python examples/quickstart.py
	python examples/facility_placement.py
	python examples/anytime_estimation.py
	python examples/diameter_case_study.py
	python examples/weighted_travel_times.py
	python examples/centrality_comparison.py

results:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_benchmark .benchmarks
