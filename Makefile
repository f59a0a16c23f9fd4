# Convenience targets for the UPP reproduction.

PYTHON ?= python

.PHONY: install test test-fast check mc witness bench bench-figs bench-full examples examples-smoke service-smoke lint clean

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/unit tests/property

# static deadlock-freedom certification + repo-specific AST lint
check:
	PYTHONPATH=src $(PYTHON) -m repro check --preset all --faults 2
	$(PYTHON) tools/repro_lint.py src

# bounded protocol model checker x certifier matrix, witness replayed
# on the real simulator under both datapaths
mc:
	PYTHONPATH=src $(PYTHON) -m repro mc --replay

# render counterexample witnesses: certifier SCC cycles as channel
# chains, and the model checker's minimal deadlock trace
witness:
	PYTHONPATH=src $(PYTHON) -m repro check --preset baseline --witness
	PYTHONPATH=src $(PYTHON) -m repro mc --preset mc-2x1 --scheme none

# the repo's benchmark (BENCHMARK.json): all four workloads, one
# repetition each, correctness checks on; see benchmarks/e2e/README.md
bench:
	python3 benchmarks/e2e/run.py --smoke

bench-figs:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-full:
	REPRO_BENCH_FULL=1 REPRO_BENCH_SCALE=4 \
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	for ex in examples/*.py; do echo "== $$ex =="; $(PYTHON) $$ex; done

# quick CI variant: the two orchestration examples at reduced scale,
# fanned out over the experiment runner's worker processes
examples-smoke:
	PYTHONPATH=src REPRO_JOBS=2 $(PYTHON) examples/quickstart.py
	PYTHONPATH=src REPRO_JOBS=2 $(PYTHON) examples/coherence_workload.py blackscholes 0.05

# boot a real `python -m repro serve` subprocess and drive it with
# repro.client: submit, stream SSE progress (the cold result() must send
# no request), warm-resubmit (must execute zero simulations, wait zero
# seconds, take exactly one request for submit + wait + result, carry the
# job record in its `done` event), graceful SIGTERM shutdown, reboot and
# wait() on the finished job
service-smoke:
	PYTHONPATH=src $(PYTHON) tools/service_smoke.py

lint:
	$(PYTHON) -m ruff check src tests benchmarks examples

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -prune -exec rm -rf {} \;
