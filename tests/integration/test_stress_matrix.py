"""Cross-configuration stress matrix.

One long mixed-load run per (scheme, VCs, flow control) cell, asserting
the full invariant set at once: conservation, drain, no reservation
leaks, no popup overflows, bounded signal buffers.  This is the
repository's broadest single safety net.
"""

import pytest

from repro.noc.config import NocConfig
from repro.schemes.registry import make_scheme
from repro.sim.simulator import Simulation
from repro.topology.chiplet import baseline_system
from repro.traffic.synthetic import install_synthetic_traffic

MATRIX = [
    ("upp", 1, "wormhole"),
    ("upp", 4, "wormhole"),
    ("upp", 1, "vct"),
    ("composable", 1, "wormhole"),
    ("composable", 4, "wormhole"),
    ("remote_control", 1, "wormhole"),
    ("remote_control", 4, "wormhole"),
]


@pytest.mark.parametrize("scheme_name,vcs,flow", MATRIX)
def test_stress_cell(scheme_name, vcs, flow):
    depth = 5 if flow == "vct" else 4
    cfg = NocConfig(vcs_per_vnet=vcs, vc_depth=depth, flow_control=flow, seed=17)
    sim = Simulation(baseline_system(), cfg, make_scheme(scheme_name))
    endpoints = install_synthetic_traffic(sim.network, "uniform_random", 0.15)
    net = sim.network
    net.run(3000)

    generated = sum(e.generated for e in endpoints if hasattr(e, "generated"))
    never = 0
    for e in endpoints:
        if hasattr(e, "enabled"):
            e.enabled = False
            never += len(e._backlog)
            e._backlog.clear()
    assert net.drain(max_cycles=250_000), f"{scheme_name}/{vcs}/{flow} wedged"
    never += sum(len(q) for ni in net.nis.values() for q in ni.injection_queues)
    ejected = sum(ni.ejected_packets for ni in net.nis.values())

    # conservation
    assert generated == ejected + never
    # protocol hygiene
    assert sum(ni.popup_overflows for ni in net.nis.values()) == 0
    leaks = sum(1 for ni in net.nis.values() for r in ni.reservations if r >= 0)
    assert leaks == 0
    assert max(r.sig_high_water for r in net.routers.values()) <= 4
    # nothing left anywhere
    assert net.occupancy() == 0
