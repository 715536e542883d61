# Developer entry points.  The tier-1 gate is `make test` (identical to the
# ROADMAP's verify line); `make test-batch` is the fast smoke slice covering
# the repro.batch subsystem, for quick iteration on batching changes;
# `make trace-smoke` exercises the tracing pipeline end to end (generate an
# instance, solve it traced, validate the merged Chrome-trace JSON).
# `make metrics-smoke` runs the canonical metrics workload and validates the
# Prometheus exposition; `make gate` re-runs it and compares the snapshot
# against the committed baseline, failing on any metric regression.
# `make sparse-smoke` exercises the sparse solver path end to end (generate
# a sparse instance, solve it with the dense and both sparse revised
# backends and with gpu-revised, which prices sparse input through the same
# device SpMVᵀ, and assert the four objectives agree).
# `make serve-smoke` replays a small arrival trace whose arrivals outpace one
# stream through the serving layer (fleet beats sequential, warm-start cache
# hits land).
# `make pdlp-smoke` runs the first-order (PDLP) backends on a sparse
# instance and asserts they agree with the revised simplex, and that
# method="auto" sends that 80x120 instance to gpu-revised and a 400x600
# sparse one to gpu-pdlp.
# `make obs-smoke` replays a trace with the repro.obs span recorder on,
# validates span-tree containment, checks the attribution buckets sum to
# each job's latency, and validates the exported Chrome span trace.
# `make fuse-smoke` solves the same LP with launch-plan fusion off and on,
# asserts the fp64 results are bit-identical while the fused run issues
# strictly fewer kernel launches, that a fused ratio test over at most 512
# rows is one launch, and checks mixed precision recovers the fp64
# objective.
# `make batch-smoke` solves 8 small LPs as one lockstep batch and asserts
# per-LP objectives match solo solves, a one-LP batch reproduces its solo
# clock, and lockstep beats the stream-interleaved makespan.
# `make bench-gate` compares the two newest committed points of the
# end-to-end benchmark trajectory (benchmarks/trajectory/BENCH_<n>.json,
# each written by `python3 benchmarks/e2e/run.py --repeat 3 --out FILE`)
# with benchmarks/e2e/compare.py and the BENCHMARK.json bounds.
# `make lint` enforces the layering architecture (no direct
# trace/metrics/obs imports inside solver backends; serve modules reach
# metrics and spans only through the instrument façade); `make verify` is
# the single pre-commit entry point: tier-1 tests + lint + the trace,
# sparse, serve, pdlp, obs, fuse and batch smokes + the metrics regression
# gate.

PYTHONPATH_SRC := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),)

METRICS_BASELINE := benchmarks/baselines/metrics-smoke.json

TRAJECTORY := benchmarks/trajectory

.PHONY: test test-batch trace-smoke sparse-smoke serve-smoke pdlp-smoke \
	obs-smoke fuse-smoke batch-smoke metrics-smoke gate gate-baseline bench \
	bench-batch bench-gate lint verify

test:  ## tier-1: the full test suite
	$(PYTHONPATH_SRC) python -m pytest -x -q

lint:  ## architecture lint: backend/serve import layering rules
	python tools/lint_backend_imports.py

verify: test lint trace-smoke sparse-smoke serve-smoke pdlp-smoke obs-smoke \
	fuse-smoke batch-smoke gate  ## pre-commit: tests + lint + smokes + gate

test-batch:  ## fast smoke: batch subsystem tests only
	$(PYTHONPATH_SRC) python -m pytest -x -q -k "batch"

trace-smoke:  ## end-to-end: repro trace -> merged Chrome JSON -> validate
	$(PYTHONPATH_SRC) python -m repro generate dense 24 32 --out /tmp/trace-smoke.mps
	$(PYTHONPATH_SRC) python -m repro trace /tmp/trace-smoke.mps \
		--method gpu-revised --out /tmp/trace-smoke.json
	$(PYTHONPATH_SRC) python -c "from repro.trace import validate_chrome_trace; \
		doc = validate_chrome_trace(open('/tmp/trace-smoke.json').read()); \
		cats = {e.get('cat') for e in doc['traceEvents']}; \
		assert 'solver-phase' in cats and 'kernel' in cats, cats; \
		print('trace-smoke ok:', len(doc['traceEvents']), 'events')"

sparse-smoke:  ## end-to-end: sparse instance -> dense + sparse solvers agree
	$(PYTHONPATH_SRC) python -m repro generate sparse 80 120 --density 0.05 \
		--seed 11 --out /tmp/sparse-smoke.mps
	$(PYTHONPATH_SRC) python -c "\
	from repro.lp.mps import read_mps; \
	from repro import solve; \
	lp = read_mps('/tmp/sparse-smoke.mps'); \
	res = {m: solve(lp, method=m) \
	       for m in ('revised', 'revised-sparse', 'gpu-revised', \
	                 'gpu-revised-sparse')}; \
	objs = {m: r.objective for m, r in res.items()}; \
	ref = objs['revised']; \
	assert any('spmv_csc_t' in k for k in res['gpu-revised'].extra['by_kernel']); \
	assert all(abs(o - ref) <= 1e-6 * max(1.0, abs(ref)) for o in objs.values()), objs; \
	print('sparse-smoke ok:', objs)"

serve-smoke:  ## end-to-end: arrival trace -> fleet serving -> invariants
	$(PYTHONPATH_SRC) python -c "\
	from repro.serve import ServeConfig, serve_trace, synthetic_trace; \
	trace = synthetic_trace(n_jobs=16, seed=7, mean_interarrival=0.0005); \
	seq = serve_trace(trace, ServeConfig(n_devices=1, n_streams=1, cache_capacity=1)); \
	fleet = serve_trace(trace, ServeConfig(n_devices=2)); \
	assert seq.jobs[-1].queue_seconds > 0.0, 'arrivals do not queue on one stream'; \
	assert fleet.all_optimal and seq.all_optimal; \
	assert fleet.span_seconds < seq.span_seconds, (fleet.span_seconds, seq.span_seconds); \
	assert fleet.cache_hits >= 1, fleet.cache.summary(); \
	print('serve-smoke ok:', fleet.summary())"

pdlp-smoke:  ## end-to-end: first-order backends agree with simplex + auto dispatch
	$(PYTHONPATH_SRC) python -m repro generate sparse 80 120 --density 0.05 \
		--seed 11 --out /tmp/pdlp-smoke.mps
	$(PYTHONPATH_SRC) python -c "\
	from repro.lp.mps import read_mps; \
	from repro import solve; \
	from repro.solve import choose_method; \
	from repro.lp.generators import random_sparse_lp; \
	lp = read_mps('/tmp/pdlp-smoke.mps'); \
	ref = solve(lp, method='revised').objective; \
	objs = {m: solve(lp, method=m).objective for m in ('pdlp', 'gpu-pdlp')}; \
	assert all(abs(o - ref) <= 1e-4 * max(1.0, abs(ref)) for o in objs.values()), (ref, objs); \
	big = random_sparse_lp(400, 600, density=0.02, seed=1); \
	assert choose_method(big) == 'gpu-pdlp', choose_method(big); \
	assert choose_method(lp) == 'gpu-revised', choose_method(lp); \
	auto = solve(lp, method='auto'); \
	assert auto.status.value == 'optimal'; \
	print('pdlp-smoke ok:', {'revised': ref, **objs}, 'auto->', choose_method(lp))"

obs-smoke:  ## end-to-end: spans on -> attribution exact -> Chrome validates
	$(PYTHONPATH_SRC) python -c "\
	from repro.obs import observing, serve_chrome_trace, to_json, from_json; \
	from repro.serve import ServeConfig, serve_trace, synthetic_trace; \
	from repro.trace.chrome import validate_chrome_trace; \
	trace = synthetic_trace(n_jobs=8, seed=7); \
	ctx = observing(); rec_ = ctx.__enter__(); \
	report = serve_trace(trace, ServeConfig(n_devices=2)); \
	ctx.__exit__(None, None, None); \
	recording = report.obs_recording; \
	recording.validate(); \
	attr = report.attribution(); \
	assert attr.jobs, 'no attributed jobs'; \
	bad = [j for j in attr.jobs if abs(sum(j.buckets.values()) - j.latency_seconds) > 1e-9]; \
	assert not bad, bad; \
	assert from_json(to_json(recording)).kept_traces == recording.kept_traces; \
	validate_chrome_trace(serve_chrome_trace(recording)); \
	print('obs-smoke ok:', recording.kept_traces, 'traces,', len(recording.spans), 'spans,', len(attr.jobs), 'jobs attributed')"
	$(PYTHONPATH_SRC) python -m repro explain --jobs 6 --seed 3 \
		--tree slowest --chrome-out /tmp/obs-smoke.chrome.json > /tmp/obs-smoke.txt
	@grep -q "fleet-wide latency attribution" /tmp/obs-smoke.txt
	@$(PYTHONPATH_SRC) python -c "from repro.trace import validate_chrome_trace; \
		validate_chrome_trace(open('/tmp/obs-smoke.chrome.json').read())"
	@echo "obs-smoke explain ok"

fuse-smoke:  ## end-to-end: fused == unfused bit-identical, fewer launches
	$(PYTHONPATH_SRC) python tools/fuse_smoke.py

batch-smoke:  ## end-to-end: lockstep batch == solo answers, beats interleaving
	$(PYTHONPATH_SRC) python tools/batch_smoke.py

metrics-smoke:  ## end-to-end: smoke workload -> Prometheus text -> validate
	$(PYTHONPATH_SRC) python -m repro metrics --format prometheus \
		--out /tmp/metrics-smoke.prom
	$(PYTHONPATH_SRC) python -c "from repro.metrics import validate_prometheus_text; \
		n = validate_prometheus_text(open('/tmp/metrics-smoke.prom').read()); \
		print('metrics-smoke ok:', n, 'samples')"

gate:  ## bench regression gate: smoke snapshot vs committed baseline
	$(PYTHONPATH_SRC) python -m repro metrics --format json \
		--out /tmp/metrics-gate.json --gate $(METRICS_BASELINE)

gate-baseline:  ## re-record the committed gate baseline (review the diff!)
	$(PYTHONPATH_SRC) python -m repro metrics --format json \
		--out /tmp/metrics-gate.json --write-baseline $(METRICS_BASELINE)

bench:  ## regenerate every evaluation experiment's tables
	$(PYTHONPATH_SRC) python -m pytest benchmarks/ --benchmark-only -q

bench-batch:  ## the B1 batched-LP throughput experiment only
	$(PYTHONPATH_SRC) python -m pytest benchmarks/bench_b1_batch_throughput.py --benchmark-only -q

bench-gate:  ## e2e benchmark: newest trajectory point vs the one before
	python3 benchmarks/e2e/compare.py \
		$$(ls $(TRAJECTORY)/BENCH_*.json | sort -V | tail -n 2)
