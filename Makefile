# Test tiers.
#
# `make test` is tier 1 — the full suite, the command CI and the
# acceptance gate run.  `make quicktest` skips tests marked `slow`
# (bench smoke runs and hypothesis-heavy property suites; see
# pytest.ini) for a fast inner-loop signal.
#
# `make perf` runs the perf ledger (benchmarks/perf/) at smoke scale;
# `make perf-compare A=old.json B=new.json` prints the per-workload,
# per-metric verdict table for two ledger result files (base A);
# `make perf-trajectory SET=docs/perf/prNN_set_head.json [LABEL=prNN]`
# appends (or replaces) that set's line in docs/perf/trajectory.jsonl;
# `make perf-pairs A=<parent checkout> B=<change checkout> W=<workload>
# SEED=<n> [PAIRS=10] [OUT=pairs.json]` runs the driver form on both
# checkouts in alternating order and prints, per end-to-end metric, the
# pairs, medians, quartiles, wins and the gain / worse / no-claim verdict.
#
# `make sloc [PATHS="src/repro/serve src/repro/comm/faults.py"]` prints the
# code lines (no blanks, comments or docstrings) per file and in total,
# for `src` by default.

PYTEST = PYTHONPATH=src python -m pytest -x -q
LEDGER = python3 benchmarks/perf/run.py

.PHONY: test quicktest perf perf-compare perf-trajectory perf-pairs sloc

test:
	$(PYTEST)

quicktest:
	$(PYTEST) -m "not slow"

perf:
	$(LEDGER) --smoke

perf-compare:
	$(LEDGER) compare $(A) $(B)

perf-trajectory:
	python3 tools/perf_trajectory.py $(SET) $(if $(LABEL),--label $(LABEL))

perf-pairs:
	python3 tools/perf_pairs.py $(A) $(B) --workload $(W) --seed $(SEED) \
		$(if $(PAIRS),--pairs $(PAIRS)) $(if $(OUT),--out $(OUT))

sloc:
	python3 tools/sloc.py $(or $(PATHS),src)
