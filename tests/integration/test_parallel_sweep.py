"""End-to-end: a real multi-point sweep is bit-identical whether run
serially, across worker processes, or replayed warm from the cache — the
core guarantee the experiment runner sells."""

import dataclasses
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


@pytest.mark.parametrize("same", ["baseline", {}, {"boundary_per_chiplet": 4}])
def test_alias_and_parameter_dicts_share_spec_and_cache_key(same):
    """Equal topologies give equal specs: an alias, the empty dict and a
    dict spelling out a default are one point with one cache entry."""
    from repro.exp.cache import cache_key
    from repro.exp.tasks import sweep_point_spec
    from repro.noc.config import NocConfig

    def spec(topology):
        return sweep_point_spec(
            topology, NocConfig(), "upp", "uniform_random", 0.02, 200, 600
        )

    assert spec(same) == spec("baseline")
    assert cache_key(spec(same)) == cache_key(spec("baseline"))
    assert cache_key(spec({"boundary_per_chiplet": 2})) != cache_key(spec("baseline"))


@needs_fork
def test_faulty_topology_sweep_fans_out_and_replays(tmp_path):
    """A Fig. 11-style seeded fault set is a spec parameter: its sweep is
    identical at jobs=1 and jobs=2, and a warm re-run simulates nothing."""
    preset = api.load_preset("baseline")

    def sweep(runner, topology=None):
        faulty = dataclasses.replace(
            preset, topology=topology or {"faults": 5, "fault_seed": 11}
        )
        return sweep_to_rows(api.run_sweep(
            faulty, "upp", "uniform_random", RATES, runner=runner, **WINDOW,
        ))

    serial = sweep(ExperimentRunner(jobs=1))
    assert serial != sweep(ExperimentRunner(jobs=1), "baseline")  # faults applied
    cold = ExperimentRunner(jobs=2, cache=ResultCache(tmp_path), mp_context="fork")
    assert sweep(cold) == serial
    assert cold.stats.executed == len(RATES)
    warm = ExperimentRunner(jobs=2, cache=ResultCache(tmp_path), mp_context="fork")
    assert sweep(warm) == serial
    assert warm.stats.executed == 0


def test_sweep_early_stop_preserved_through_runner():
    """Serial sweeps stop at saturation; a parameter-dict topology's sweep
    returns the series its alias does, identically truncated."""
    preset = api.load_preset("baseline")
    rates = (0.02, 0.3, 0.5)  # 0.3 is far past saturation

    via_alias = api.run_sweep(
        preset, "upp", "uniform_random", rates,
        warmup=200, measure=600, runner=ExperimentRunner(jobs=1),
    )
    via_params = api.run_sweep(
        dataclasses.replace(preset, topology={"chiplet_grid": (2, 2)}),
        "upp", "uniform_random", rates, warmup=200, measure=600,
    )
    assert sweep_to_rows(via_alias) == sweep_to_rows(via_params)
    assert len(via_alias) < len(rates)
