# Developer entry points. Everything runs from the repository root with the
# library on PYTHONPATH; no install step required.

PYTHON ?= python
export PYTHONPATH := src

# Modules whose docstring examples are part of the documented API surface.
DOCTEST_MODULES := src/repro/service \
	src/repro/flows/incremental.py \
	src/repro/flows/kernel.py \
	src/repro/flows/registry.py \
	src/repro/graph/network.py \
	src/repro/analog/solver.py \
	src/repro/circuit/linsolve.py \
	src/repro/circuit/nonlinear.py \
	src/repro/circuit/stamps.py \
	src/repro/obs/metrics.py \
	src/repro/obs/trace.py

.PHONY: test test-conformance bench-smoke perfbench-smoke docs-check perf-gate perf-gate-streaming perf-gate-shard perf-gate-problems perf-gate-kernel perf-gate-resilience perf-gate-obs perf-gate-serving perf-gate-all bench-serving bench-check serve-demo ci

## tier-1 suite plus the documented-API doctests
test:
	$(PYTHON) -m pytest -x -q
	$(PYTHON) -m pytest --doctest-modules $(DOCTEST_MODULES) -q

## the cross-backend conformance gate, the flat-array kernel's differential
## fuzz gate + reduction property suites, with the heavy randomized cases
## enabled (REPRO_TEST_SEED replays a red run)
test-conformance:
	$(PYTHON) -m pytest \
		tests/test_backend_conformance.py \
		tests/test_kernel_differential.py \
		tests/test_problems_properties.py \
		tests/test_problems_service.py \
		--runslow -q

## fast benchmark smoke at a small scale (service batch + Fig. 8 + assembly
## + streaming + sharding + Section 6.4 two-way decomposition + problem
## reductions + flow kernel + resilience + telemetry overhead + serving
## front door)
bench-smoke:
	REPRO_BENCH_SCALE=0.05 $(PYTHON) -m pytest \
		benchmarks/bench_service_batch.py \
		benchmarks/bench_fig08_quantization.py \
		benchmarks/bench_assembly.py \
		benchmarks/bench_streaming.py \
		benchmarks/bench_shard.py \
		benchmarks/bench_sec64_decomposition.py \
		benchmarks/bench_problems.py \
		benchmarks/bench_kernel.py \
		benchmarks/bench_resilience.py \
		benchmarks/bench_obs.py \
		benchmarks/bench_serving.py \
		-o python_files='bench_*.py' -q -s

## served-request benchmark smoke: the three BENCHMARK.json workloads for
## 4 s each with the layer tracer on, so a renamed probe target or a probe
## that never fires on its workload fails the target
perfbench-smoke:
	for workload in serve-large serve-analog stream-edit; do \
		$(PYTHON) perfbench/run.py --workload $$workload --seconds 4 --trace 1 \
			|| exit 1; \
	done

## record assembly/DC-iteration medians to BENCH_assembly.json (perf trajectory)
perf-gate:
	$(PYTHON) tools/perf_gate.py

## record warm-vs-cold streaming re-solve medians to BENCH_streaming.json
## (scale 0.5 so the Fig. 10-style instances are large enough to be
## representative; the acceptance thresholds live in bench_streaming.py)
perf-gate-streaming:
	$(PYTHON) tools/perf_gate.py --suite streaming --scale 0.5

## record 1-shard-cold vs sequential-2-way vs N-way-parallel sharding to
## BENCH_shard.json (scale 1.0: instances large enough that N-way parallel
## beats sequential 2-way; thresholds live in bench_shard.py)
perf-gate-shard:
	$(PYTHON) tools/perf_gate.py --suite shard --scale 1.0

## record problem-reduction stage medians (reduce / solve / decode) to
## BENCH_problems.json; correctness thresholds live in bench_problems.py
perf-gate-problems:
	$(PYTHON) tools/perf_gate.py --suite problems --scale 1.0

## record flat-array-kernel vs reference-Dinic medians to BENCH_kernel.json
## (the default scale IS the headline 96x96-grid size; the >=10x floor is
## enforced by bench_kernel.py)
perf-gate-kernel:
	$(PYTHON) tools/perf_gate.py --suite kernel

## record fault-free resilience overhead + per-fault-class recovery latency
## to BENCH_resilience.json (the <5% overhead ceiling is enforced by
## bench_resilience.py on the same kernel-corpus grid)
perf-gate-resilience:
	$(PYTHON) tools/perf_gate.py --suite resilience

## record the telemetry layer's overhead (raw vs obs-off vs obs-on) to
## BENCH_obs.json (the <2% disabled / <10% enabled ceilings are enforced
## by bench_obs.py on the same kernel-corpus grid)
perf-gate-obs:
	$(PYTHON) tools/perf_gate.py --suite obs

## record the serving front door's mixed-workload RPS / latency percentiles
## and the coalescing on-vs-off speedup to BENCH_serving.json (the >=2x
## coalescing floor is enforced by bench_serving.py)
perf-gate-serving:
	$(PYTHON) tools/perf_gate.py --suite serving

## refresh every registered BENCH_*.json record at its canonical scale
## (minutes of wall clock; run before committing a perf-relevant change)
perf-gate-all: perf-gate perf-gate-streaming perf-gate-shard perf-gate-problems perf-gate-kernel perf-gate-resilience perf-gate-obs perf-gate-serving

## serving perf sentinel alone: fresh smoke-scale serving run judged
## against the committed BENCH_serving.json history
bench-serving:
	$(PYTHON) tools/bench_watch.py --suite serving --run --scale 0.05 --repeats 1

## demo client: seeded mixed load with deadlines through the async server
serve-demo:
	$(PYTHON) tools/load_gen.py --requests 60 --scale 0.1

## perf-regression sentinel: judge a fresh smoke-scale run of every suite
## against the same-scale entries committed in the BENCH_*.json histories
## (suites without smoke-scale history pass as new-baseline; nothing is
## written — tools/perf_gate.py --history-only records new entries)
bench-check:
	$(PYTHON) tools/bench_watch.py --suite all --run --scale 0.05 --repeats 1

## broken intra-doc links + docstring coverage of repro.service, repro.shard
## and repro.resilience
docs-check:
	$(PYTHON) tools/docs_check.py

## the full local CI chain: tests + doctests, conformance gate, doc health,
## benchmark smoke, served-request benchmark smoke, perf-regression sentinel
ci: test test-conformance docs-check bench-smoke perfbench-smoke bench-check
