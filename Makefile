# Convenience targets for the TFMAE reproduction.

.PHONY: install test lint lockcheck check bench bench-tables bench-figures perf jit-bench robustness chaos serve serve-bench multiproc-bench perfbench examples clean

install:
	python setup.py develop

test:
	pytest tests/

test-verbose:
	pytest tests/ -v

lint:
	PYTHONPATH=src python -m repro analyze lint

# Runtime lock-order checking: tier-1 + chaos run with every threading
# lock instrumented (repro.analysis.lockcheck); session teardown fails
# on any observed lock-order cycle or a lock held across process spawn.
lockcheck:
	PYTHONPATH=src REPRO_LOCKCHECK=1 pytest tests/ -q
	PYTHONPATH=src REPRO_LOCKCHECK=1 pytest -m chaos tests/ -q

check:
	PYTHONPATH=src python -m repro analyze --all
	PYTHONPATH=src python -m pytest -x -q

bench:
	pytest benchmarks/ --benchmark-only -s

bench-tables:
	pytest benchmarks/bench_table2_datasets.py benchmarks/bench_table3_main.py \
	       benchmarks/bench_table4_ablation.py benchmarks/bench_table5_masking.py \
	       --benchmark-only -s

bench-figures:
	pytest benchmarks/bench_fig1_motivation.py benchmarks/bench_fig6_masking_ratios.py \
	       benchmarks/bench_fig7_hyperparams.py benchmarks/bench_fig8_case_study.py \
	       benchmarks/bench_fig9_distribution_shift.py benchmarks/bench_fig10_efficiency.py \
	       --benchmark-only -s

perf:
	PYTHONPATH=src python benchmarks/bench_nn_kernels.py
	PYTHONPATH=src pytest tests/nn/test_fused.py tests/core/test_batched_scoring.py -q
	PYTHONPATH=src pytest benchmarks/bench_nn_kernels.py --benchmark-only -s

# Trace-compiled scoring: jit vs interpreted score_last.  Point
# REPRO_BENCH_JIT_BASELINE at a pre-JIT checkout's src/ to also measure
# the historical interpreted baseline (see bench_jit_scoring.py).
jit-bench:
	PYTHONPATH=src pytest tests/nn/test_jit.py -q
	PYTHONPATH=src python benchmarks/bench_jit_scoring.py

robustness:
	PYTHONPATH=src pytest tests/core/test_fault_tolerance.py \
	       tests/test_robustness_stream.py tests/test_property_nonfinite.py -q
	PYTHONPATH=src REPRO_BENCH_STREAM=300 REPRO_BENCH_EPOCHS=4 \
	       pytest benchmarks/bench_robustness_faults.py --benchmark-only -s

# Fault-injection suite + lifecycle recovery bench (detection-to-rollback
# latency and per-fault availability; see docs/serving.md fault matrix).
chaos:
	PYTHONPATH=src pytest -m chaos tests/ -q
	PYTHONPATH=src python benchmarks/bench_lifecycle_recovery.py

serve:
	PYTHONPATH=src python -m repro serve --demo

serve-bench:
	PYTHONPATH=src pytest tests/serve/ -q
	PYTHONPATH=src pytest benchmarks/bench_serving_throughput.py --benchmark-only -s

# Process-pool tier: throughput/p99 vs worker count over live HTTP, plus
# the shared-memory single-copy RSS verification (BENCH_multiproc.json).
multiproc-bench:
	PYTHONPATH=src python benchmarks/bench_multiproc_serving.py

# The repository benchmark (perfbench/README.md): one workload, one seed,
# end-to-end metrics.  make perfbench WORKLOAD=burst-score SEED=7
WORKLOAD ?= http-score
SEED ?= 1
perfbench:
	python3 perfbench/run.py --workload $(WORKLOAD) --seed $(SEED) --seconds 25 --trace 0

examples:
	for f in examples/*.py; do echo "=== $$f ==="; python $$f; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
