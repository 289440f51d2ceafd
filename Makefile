# Developer entry points.  `make check` is the tier-1 gate: the full test
# suite on the primary interpreter plus, when one is available with the
# test dependencies installed, a second pass on the 3.9 floor (pyproject
# pins requires-python >= 3.9, where int.bit_count does not exist — the
# popcount fallback must stay exercised).  Each pass reports wall-clock.
# Only tier-1 runs on both: serve-smoke, results-check, e2e-smoke,
# e2e-trace and torture are functions of seeded simulated time, not of the
# interpreter, and CI runs each once, on the primary one.

PYTHON ?= python
PY39 ?= python3.9

.PHONY: check test test39 bench results-check serve-smoke e2e-smoke e2e-trace e2e-ab torture clean

check: test test39

test:
	@echo "== tier-1 ($$($(PYTHON) --version 2>&1)) =="
	time PYTHONPATH=src $(PYTHON) -m pytest -x -q

test39:
	@if command -v $(PY39) >/dev/null 2>&1 \
	    && $(PY39) -c "import pytest, hypothesis, numpy" >/dev/null 2>&1; then \
	    echo "== tier-1 ($$($(PY39) --version 2>&1)) =="; \
	    time PYTHONPATH=src $(PY39) -m pytest -x -q; \
	else \
	    echo "== tier-1 (3.9): skipped — no $(PY39) with pytest/hypothesis/numpy =="; \
	    echo "   (the 3.9 popcount fallback is still covered in-suite:"; \
	    echo "    tests/filters/test_bitarray.py::TestPopcount)"; \
	fi

# The one experiment runner: every registered experiment at full scale,
# its paper claim asserted, results/<name>.{txt,json} rewritten (~4.5 min).
bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_experiments.py -q

# `make bench`, then fail if any committed report changed: a report is a
# function of its run() arguments (simulated time, seeded RNG), so a diff
# is a stale file, an order dependence or a simulated-time drift.  The
# reports with wall-clock columns are excluded by name.
WALL_CLOCK_REPORTS = server ablation-backend mixed-workload defense
results-check: bench
	git diff --exit-code -- results/ \
	    $(foreach r,$(WALL_CLOCK_REPORTS),':!results/$(r).txt' ':!results/$(r).json')

# The e2e benchmark's self-tests plus one short traced + untraced pass of
# all five workloads (~15 s).  The tracer patches every layer's public
# callables by name, so a refactor that moves or renames one fails here
# with PatchTargetMissing (or a silent span) instead of at benchmark time.
e2e-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e/test_e2e.py -q
	$(PYTHON) benchmarks/e2e/run.py --smoke

# One full-size traced pass of one workload (~13 s for surf_point).  The
# smoke skips the silent-span check (at smoke sizes an attack may find no
# prefix to extend); this is where a span that stops recording — a layer
# whose calls moved out from under its patched name — fails the run.
#   make e2e-trace WORKLOAD=surf_point
e2e-trace:
	$(PYTHON) benchmarks/e2e/run.py --workload $(WORKLOAD) --seed 0 --trace 1

# The measurement a performance claim needs (benchmarks/ab_pairs.py):
# ten alternating parent/change runs of the registered e2e command per
# seed, quartiles, pair wins, golden/exact-count identity (~8 min a seed).
#   make e2e-ab BASE=HEAD~1 WORKLOAD=range_descent [SEEDS=0,1] [OUT=file.json]
SEEDS ?= 0,1
e2e-ab:
	$(PYTHON) benchmarks/ab_pairs.py --base $(BASE) --workload $(WORKLOAD) \
	    --seeds $(SEEDS) $(if $(OUT),--out $(OUT))

# One real TCP round trip through the wire server (the event loop's
# listener path): build a small store, serve it, ping + get + one
# GET_MANY + one PUT_MANY + stats from a client, shut down cleanly.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli serve --keys 2000 --width 4 --smoke

# Exhaustive crash-point sweep over a fixed seed matrix: every device
# mutation of a 200-op workload, under sync and then under background
# compaction, is crashed (torn final write), recovered, and diffed against
# a dict oracle of the acknowledged ops.  Nonzero exit on the first lost
# or resurrected write.
torture:
	PYTHONPATH=src $(PYTHON) -m repro.cli doctor --torture --ops 200 \
	    --seeds 0,1,2

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis .benchmarks
