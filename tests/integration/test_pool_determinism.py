"""Pool-size invariance: row assignment is pure bookkeeping.

The flit pool's row indices and growth schedule are storage-layer
details — shrinking the initial capacity to a handful of rows (forcing
constant recycling and repeated growth) or preallocating far more rows
than ever needed must not change a single simulated outcome.  A
divergence here means batch code made a decision based on *which* row a
flit landed in, which is exactly the class of bug this suite pins down.
"""

import pytest

from repro.metrics.stats import result_fingerprint
from repro.noc.config import NocConfig
from repro.sim.experiment import make_scheme
from repro.sim.presets import table2_config, table2_upp_config
from repro.sim.simulator import Simulation
from repro.topology.chiplet import baseline_system
from repro.traffic.adversarial import install_adversarial_traffic, witness_flows
from repro.traffic.synthetic import install_synthetic_traffic

#: tiny forces recycling + several growth doublings mid-run; huge never
#: recycles nor grows.  Both must fingerprint identically to the default.
POOL_SIZES = (4, 1 << 16)


def _run_uniform():
    cfg = table2_config()  # datapath defaults to "vector"
    sim = Simulation(
        baseline_system(), cfg, make_scheme("upp", table2_upp_config())
    )
    install_synthetic_traffic(sim.network, "uniform_random", 0.06)
    result = sim.run(200, 1000)
    engine = getattr(sim.network, "vector", None)
    return result_fingerprint(result), engine


def _run_recovery():
    cfg = NocConfig(vcs_per_vnet=1)
    sim = Simulation(
        baseline_system(), cfg, make_scheme("upp", table2_upp_config()),
        watchdog_window=2500,
    )
    install_adversarial_traffic(sim.network, witness_flows(sim.network))
    result = sim.run(warmup=0, measure=3000)
    engine = getattr(sim.network, "vector", None)
    return result_fingerprint(result), engine


@pytest.mark.parametrize("runner", [_run_uniform, _run_recovery])
def test_pool_size_is_unobservable(monkeypatch, runner):
    import repro.noc.vector as vector

    baseline, engine = runner()
    if engine is None:
        pytest.skip("vector datapath not selected (REPRO_DATAPATH override)")
    for size in POOL_SIZES:
        monkeypatch.setattr(vector, "POOL_INITIAL", size)
        fp, engine = runner()
        assert fp == baseline, f"pool size {size} changed simulated results"
        assert engine.pool.capacity >= size
        if size == 4:
            # the tiny pool must actually have exercised growth for the
            # equality above to mean anything
            assert engine.pool.grows >= 1
    assert baseline["summary"]["packets"] > 0
