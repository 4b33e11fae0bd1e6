# Test tiers.
#
# `make test` is tier 1 — the full suite, the command CI and the
# acceptance gate run.  `make quicktest` skips tests marked `slow`
# (hypothesis-heavy property suites and the perf ledger smoke; see
# pytest.ini) for a fast inner-loop signal.
#
# `make perf` runs the perf ledger (benchmarks/perf/) at smoke scale;
# `make perf-compare A=old.json B=new.json` prints the per-workload,
# per-metric verdict table for two ledger result files (base A);
# `make perf-trajectory SET=docs/perf/prNN_set_head.json [LABEL=prNN]`
# appends (or replaces) that set's line in docs/perf/trajectory.jsonl;
# `make perf-pairs A=<parent checkout> B=<change checkout> W=<workload>
# SEED=<n> [PAIRS=10] [OUT=pairs.json]` runs the driver form on both
# checkouts in alternating order and prints, per end-to-end metric, per
# uncalibrated `bench.raw_*` timing, for the calibration slice's median
# `bench.calib_ms` and for `bench.warmup_s`, the pairs, medians, quartiles,
# wins and the gain / worse / no-claim verdict.
#
# `make sloc [PATHS="src/repro/serve src/repro/comm/faults.py"]` prints the
# code lines (no blanks, comments or docstrings) per file and in total,
# for `src` by default.
#
# `make knobs` prints the independently settable values of the public
# configuration surface (config dataclass fields, constructor keywords and
# function parameters with a default) per class or function and in total.
#
# `make rss W=<workload> SEED=<n> [SCALE=full|smoke]` prints the process's
# VmRSS and VmHWM after import, inputs, every eager capture, heap trim and
# slab (re)allocation, warm-up and a few steady cycles of one ledger
# workload (tools/rss_phases.py).

PYTEST = PYTHONPATH=src python -m pytest -x -q
LEDGER = python3 benchmarks/perf/run.py

# make exports command-line variables into every recipe's environment, both
# as variables and inside MAKEFLAGS, and the ledger's children read their
# environment (its size shifts their heap layout, and with it the
# calibration slice): keep them out of it.  `$(A)` and the rest still
# expand in the recipes; no recipe here runs a sub-make.
unexport A B W SEED PAIRS OUT SET LABEL PATHS SCALE
MAKEOVERRIDES =

.PHONY: test quicktest perf perf-compare perf-trajectory perf-pairs rss sloc knobs

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

rss:
	python3 tools/rss_phases.py $(W) --seed $(SEED) $(if $(SCALE),--scale $(SCALE))

sloc:
	python3 tools/sloc.py $(or $(PATHS),src)

knobs:
	python3 tools/knobs.py
