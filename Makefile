PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench bench-smoke bench-e2e bench-split bench-telemetry bench-serve bench-stream bench-simpoint clean-cache verify verify-fuzz refresh-golden

# seeded fuzz iterations for the long loop (override: make verify-fuzz FUZZ_ITERS=5000)
FUZZ_ITERS ?= 1000
FUZZ_SEED ?= 0

# tier-1 verification: the full unit / integration / property suite;
# the 20 slowest tests are listed so outliers show in CI logs
test:
	$(PYTHON) -m pytest -x -q --durations=20

# regenerate every paper table & figure (writes benchmarks/results/*.txt)
bench:
	$(PYTHON) -m pytest benchmarks -q --benchmark-only

# one small experiment through the parallel (2 jobs) + cached path,
# plus the e2e, profile-stage and split throughput guards; exports the
# stitched trace + metrics series to benchmarks/results/
bench-smoke:
	$(PYTHON) -m pytest benchmarks -q -k smoke

# end-to-end trace-pipeline speedup over the full corpus: every run's
# trace, intervals and BBVs checked against perfbench/refs/pipeline.json,
# then timed against the committed BENCH_e2e_legacy.json (never re-run);
# a passing run is written to benchmarks/results/BENCH_e2e_run.json
# (gitignored), never over the committed BENCH_e2e_fast.json baseline
bench-e2e:
	$(PYTHON) -m pytest benchmarks -q -k e2e

# split-stage speedup: the span-index split (the index built on a bare
# copy, and read from an attached one), its intervals checked against
# perfbench/refs/pipeline.json, timed against the committed
# BENCH_split_legacy.json (never re-run); a passing run is written to
# benchmarks/results/BENCH_split_run.json (gitignored), never over the
# committed BENCH_split_fast.json baseline
bench-split:
	$(PYTHON) -m pytest benchmarks -q -k bench_split

# telemetry-overhead smoke check: spans + cross-worker stitching + the
# background sampler together must stay within 10% of an uninstrumented
# run; also reconciles stats --critical-path attribution with the wall
bench-telemetry:
	$(PYTHON) -m pytest benchmarks -q -k telemetry

# serving benchmark: repro serve under the loadgen Server + SingleStream
# scenarios with byte verification; refreshes
# benchmarks/results/BENCH_serve_*.json and the stitched serve trace
bench-serve:
	$(PYTHON) -m pytest benchmarks -q -k serve

# streaming-feed overhead + bounded-memory gates against the committed
# benchmarks/results/BENCH_stream_*.json; a passing run is written to
# benchmarks/results/BENCH_stream_run.json (gitignored), never over them
bench-stream:
	$(PYTHON) -m pytest benchmarks -q -k bench_stream

# SimPoint-evaluation gates: stack depths over 16 ref traces and lucas/mgrid
# clustering, bit-identical to the per-event cache loop and plain k-means,
# each cell within 25% of the committed baseline (HostClock-scaled), and
# the one-set stream within 1.5x of the reference loop; a passing run
# is written to benchmarks/results/BENCH_simpoint_run.json (gitignored)
bench-simpoint:
	$(PYTHON) -m pytest benchmarks -q -k bench_simpoint

# differential-oracle verification: the corpus pass (golden, streaming
# and split checks on every workload's train run) + short fuzz smoke
# (~CI budget); `repro verify --iters 0` runs the corpus pass alone
verify:
	$(PYTHON) -m repro verify --seed $(FUZZ_SEED) --iters 50

# the long seeded fuzz loop (nightly-style; corpus pass skipped —
# diff_streaming and diff_split still ride every fuzz iteration)
verify-fuzz:
	$(PYTHON) -m repro verify --skip-corpus --seed $(FUZZ_SEED) --iters $(FUZZ_ITERS)

# ratify intentional algorithm changes by regenerating tests/golden/
refresh-golden:
	$(PYTHON) -m repro verify --refresh-golden --iters 0

# drop the default on-disk profile cache
clean-cache:
	$(PYTHON) -c "from repro.runner import ProfileCache; c = ProfileCache(); c.clear(); print('cleared', c.root)"
