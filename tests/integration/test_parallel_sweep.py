"""End-to-end: a real multi-point sweep is bit-identical whether run
serially, across worker processes, or replayed warm from the cache — the
core guarantee the experiment runner sells."""

import multiprocessing

import pytest

from repro import api
from repro.exp import ExperimentRunner, ResultCache
from repro.sim.experiment import sweep_to_rows

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

RATES = (0.02, 0.04)
WINDOW = dict(warmup=200, measure=600)


def small_sweep(runner):
    return api.run_sweep(
        "baseline", "upp", "uniform_random", RATES, runner=runner, **WINDOW
    )


@needs_fork
def test_parallel_sweep_bit_identical_to_serial(tmp_path):
    serial = small_sweep(ExperimentRunner(jobs=1))
    parallel_runner = ExperimentRunner(
        jobs=2, cache=ResultCache(tmp_path), mp_context="fork"
    )
    parallel = small_sweep(parallel_runner)
    assert sweep_to_rows(parallel) == sweep_to_rows(serial)
    assert parallel_runner.stats.executed == len(RATES)


@needs_fork
def test_warm_cache_executes_zero_simulations(tmp_path):
    cold = ExperimentRunner(jobs=2, cache=ResultCache(tmp_path), mp_context="fork")
    first = small_sweep(cold)
    warm = ExperimentRunner(jobs=2, cache=ResultCache(tmp_path), mp_context="fork")
    replay = small_sweep(warm)
    assert sweep_to_rows(replay) == sweep_to_rows(first)
    assert warm.stats.executed == 0
    assert warm.stats.cached == len(RATES)


def test_legacy_datapath_reads_a_vector_filled_cache(tmp_path):
    """The engine is not part of a point's identity: a legacy-datapath
    sweep over a cache a vector sweep filled simulates nothing."""
    import dataclasses

    preset = api.load_preset("baseline")

    def on(datapath):
        return dataclasses.replace(
            preset, config=dataclasses.replace(preset.config, datapath=datapath)
        )

    cold = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path))
    first = api.run_sweep(
        on("vector"), "upp", "uniform_random", RATES, runner=cold, **WINDOW
    )
    assert cold.stats.executed == len(RATES)
    warm = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path))
    replay = api.run_sweep(
        on("legacy"), "upp", "uniform_random", RATES, runner=warm, **WINDOW
    )
    assert warm.stats.executed == 0
    assert sweep_to_rows(replay) == sweep_to_rows(first)


def test_unregistered_workload_matches_registered():
    """An ad-hoc topology callable runs through the same executor as the
    registered name and reproduces it exactly."""
    from repro.noc.config import NocConfig
    from repro.sim.experiment import run_workload
    from repro.topology.chiplet import baseline_system
    from repro.traffic.workloads import get_workload

    cfg = NocConfig(vcs_per_vnet=1)
    profile = get_workload("blackscholes", scale=0.05)
    via_runner = run_workload(
        "baseline", cfg, "upp", profile, runner=ExperimentRunner(jobs=1)
    )
    unregistered = run_workload(lambda: baseline_system(), cfg, "upp", profile)
    assert via_runner == unregistered


def test_sweep_early_stop_preserved_through_runner():
    """Serial sweeps stop at saturation; an unregistered topology's sweep
    must return the identically truncated series."""
    from repro.noc.config import NocConfig
    from repro.sim.experiment import latency_sweep
    from repro.topology.chiplet import baseline_system

    cfg = NocConfig(vcs_per_vnet=1)
    rates = (0.02, 0.3, 0.5)  # 0.3 is far past saturation

    via_runner = latency_sweep(
        "baseline", cfg, "upp", "uniform_random", rates,
        warmup=200, measure=600, runner=ExperimentRunner(jobs=1),
    )
    unregistered = latency_sweep(
        lambda: baseline_system(), cfg, "upp", "uniform_random", rates,
        warmup=200, measure=600,
    )
    assert sweep_to_rows(via_runner) == sweep_to_rows(unregistered)
    assert len(via_runner) < len(rates)
