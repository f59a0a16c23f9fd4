"""Per-cycle engines: bit-identical results.

The struct-of-arrays datapath (``NocConfig.datapath="vector"``) must be
behaviourally unobservable: every configuration produces exactly the
same :func:`repro.metrics.stats.result_fingerprint` under all three
per-cycle engines — vector, the scalar active-set core
(``datapath="legacy"``) and the exhaustive full sweep
(``full_sweep=True``, the reference semantics).  Coverage:

* seven representative workloads: the 8-chiplet large system under UPP
  from low load to past saturation (uniform random and hotspot), a
  closed-loop coherence workload run to completion, and a 1-VC
  adversarial deadlock recovered by UPP;
* every registered protection scheme under uniform-random load;
* the UPP deadlock-recovery path and the unprotected deadlock outcome;
* fault scenarios: statically injected fault sets and a mid-run
  ``reconfigure_routing`` fault event replayed under every engine,
  checked down to per-router energy counters;
* packets planted straight into router VCs before the run.
"""

import dataclasses
import random

import pytest

from repro.metrics.stats import install_stats, result_fingerprint
from repro.noc.config import NocConfig
from repro.noc.flit import Packet, Port
from repro.sim.experiment import make_scheme
from repro.sim.presets import large_topology, table2_config, table2_upp_config
from repro.sim.simulator import Simulation
from repro.topology.chiplet import baseline_system, build_system
from repro.topology.faults import inject_faults
from repro.traffic.adversarial import install_adversarial_traffic, witness_flows
from repro.traffic.coherence import install_coherence_workload, workload_finished
from repro.traffic.synthetic import install_synthetic_traffic
from repro.traffic.workloads import get_workload

SCHEMES = ("upp", "composable", "remote_control", "none")

#: the three per-cycle engines; every ``run(mode)`` below takes one.
MODES = ("vector", "legacy", "full_sweep")


def engine_config(cfg: NocConfig, mode: str) -> NocConfig:
    """``cfg`` with the engine of ``mode`` selected (the full sweep
    always runs the scalar core)."""
    return dataclasses.replace(
        cfg,
        datapath="vector" if mode == "vector" else "legacy",
        full_sweep=mode == "full_sweep",
    )


def _synthetic(pattern, rate):
    """Large system under UPP, 100 warm-up + 400 measured cycles."""

    def run(mode):
        cfg = engine_config(table2_config(), mode)
        sim = Simulation(large_topology(), cfg, make_scheme("upp", table2_upp_config()))
        install_synthetic_traffic(sim.network, pattern, rate)
        return sim.run(100, 400)

    return run


def _coherence_canneal(mode):
    """Closed-loop MESI canneal at scale 0.05, run to completion."""
    cfg = engine_config(table2_config(), mode)
    sim = Simulation(baseline_system(), cfg, make_scheme("upp", table2_upp_config()))
    endpoints = install_coherence_workload(sim.network, get_workload("canneal", scale=0.05))
    result = sim.run(
        warmup=0,
        measure=400_000,
        stop_when=lambda net: workload_finished(endpoints),
        max_cycles=400_000,
    )
    assert workload_finished(endpoints)
    return result


def _deadlock_recovery(mode):
    """1-VC ``witness_flows`` deadlock recovered by UPP over 3000 cycles."""
    cfg = engine_config(NocConfig(vcs_per_vnet=1), mode)
    sim = Simulation(
        baseline_system(), cfg, make_scheme("upp", table2_upp_config()),
        watchdog_window=2500,
    )
    install_adversarial_traffic(sim.network, witness_flows(sim.network))
    return sim.run(warmup=0, measure=3000)


WORKLOADS = {
    "uniform_r0.02": _synthetic("uniform_random", 0.02),
    "uniform_r0.05": _synthetic("uniform_random", 0.05),
    "uniform_r0.08": _synthetic("uniform_random", 0.08),
    "uniform_r0.10": _synthetic("uniform_random", 0.10),
    "hotspot_r0.06": _synthetic("hotspot", 0.06),
    "coherence_canneal": _coherence_canneal,
    "deadlock_recovery": _deadlock_recovery,
}


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_workload_identical(self, name):
        fps = {mode: result_fingerprint(WORKLOADS[name](mode)) for mode in MODES}
        assert fps["legacy"] == fps["vector"]
        assert fps["full_sweep"] == fps["vector"]
        assert fps["vector"]["summary"]["packets"] > 0


class TestSchemeEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_uniform_random_identical(self, scheme):
        def run(mode):
            cfg = engine_config(table2_config(), mode)
            upp_cfg = table2_upp_config() if scheme == "upp" else None
            sim = Simulation(large_topology(), cfg, make_scheme(scheme, upp_cfg))
            install_synthetic_traffic(sim.network, "uniform_random", 0.04)
            result = sim.run(200, 1000, allow_deadlock=(scheme == "none"))
            return result_fingerprint(result)

        vector = run("vector")
        assert run("legacy") == vector
        assert run("full_sweep") == vector
        assert vector["summary"]["packets"] > 0

    def test_upp_recovery_identical(self):
        """Deadlock detection timers, popups and signal traffic must be
        engine-invariant."""

        def run(mode):
            cfg = engine_config(NocConfig(vcs_per_vnet=1), mode)
            sim = Simulation(
                baseline_system(), cfg, make_scheme("upp", table2_upp_config()),
                watchdog_window=2500,
            )
            install_adversarial_traffic(sim.network, witness_flows(sim.network))
            return result_fingerprint(sim.run(warmup=0, measure=4000))

        vector = run("vector")
        assert run("legacy") == vector
        assert run("full_sweep") == vector
        assert vector["scheme_stats"]["upward_packets"] > 0

    def test_unprotected_deadlock_outcome_identical(self):
        """An unprotected run that deadlocks must deadlock at the same
        cycle with the same final state under every engine."""

        def run(mode):
            cfg = engine_config(NocConfig(vcs_per_vnet=1), mode)
            sim = Simulation(
                baseline_system(), cfg, make_scheme("none"),
                watchdog_window=500,
            )
            install_adversarial_traffic(sim.network, witness_flows(sim.network))
            return result_fingerprint(
                sim.run(warmup=0, measure=6000, allow_deadlock=True)
            )

        vector = run("vector")
        legacy = run("legacy")
        sweep = run("full_sweep")
        assert legacy == vector
        assert sweep == vector
        assert vector["deadlocked"]
        assert vector["deadlock_cycle"] == legacy["deadlock_cycle"]


class TestFaultEquivalence:
    @pytest.mark.parametrize("seed", (3, 23))
    def test_static_fault_set_identical(self, seed):
        """Statically injected fault sets (irregular up*/down* routing)
        replay identically under every engine."""

        def run(mode):
            topo = build_system()
            inject_faults(topo, 4, random.Random(seed))
            cfg = engine_config(NocConfig(vcs_per_vnet=1), mode)
            sim = Simulation(
                topo, cfg, make_scheme("upp", table2_upp_config()),
                watchdog_window=2500,
            )
            install_synthetic_traffic(sim.network, "uniform_random", 0.12)
            return result_fingerprint(sim.run(warmup=300, measure=2500))

        vector = run("vector")
        assert run("legacy") == vector
        assert run("full_sweep") == vector
        assert vector["summary"]["packets"] > 0
        assert not vector["deadlocked"]

    def test_midrun_fault_reconfiguration_identical(self):
        """A mid-run fault event (route caches dropped, routing rebuilt,
        every component woken with traffic in flight) replays identically
        — checked down to per-router energy counters.  The fault set is
        chosen by :func:`inject_faults` with a seed known to keep every
        in-flight packet routable after the rebuild."""

        def run(mode):
            topo = baseline_system()
            cfg = engine_config(table2_config(), mode)
            sim = Simulation(topo, cfg, make_scheme("upp", table2_upp_config()))
            net = sim.network
            stats = install_stats(net)
            install_synthetic_traffic(net, "uniform_random", 0.05)
            stats.begin_window(0)
            net.run(400)
            before = set(topo.faulty)
            inject_faults(topo, 2, random.Random(11))
            net.reconfigure_routing(topo.faulty - before)
            net.run(800)
            stats.end_window(net.cycle)
            return {
                "summary": stats.summary(net.cycle),
                "cycle": net.cycle,
                "occupancy": net.occupancy(),
                "energy": {
                    rid: r.energy.snapshot() for rid, r in net.routers.items()
                },
            }

        vector = run("vector")
        assert run("legacy") == vector
        assert run("full_sweep") == vector
        assert vector["summary"]["packets"] > 0


class TestPlantedStateEquivalence:
    def test_planted_state_identical(self):
        """Packets planted straight into a chiplet router's and an
        interposer router's injection VC (``vc.push`` then
        ``Router.wake``, which re-derives the vector mirrors through
        ``resync_router``) replay identically under every engine —
        checked down to per-router energy counters.  The injecting NI's
        credit state is charged as if it had sent the flits, so the
        credit protocol holds when they drain."""

        def plant(net, rid, dst):
            router = net.routers[rid]
            vc = router.in_ports[Port.LOCAL].vcs[0]
            credits = net.nis[rid].out_credits
            packet = Packet(rid, dst, vc.vnet, 3, 0)
            packet.injected_cycle = 0
            credits.allocate(vc.vc_index, packet.pid)
            for flit in packet.make_flits():
                vc.push(flit, 0)
                credits.consume_credit(vc.vc_index)
            net.note_flits_created(packet.size)
            return router

        def run(mode):
            topo = baseline_system()
            cfg = engine_config(table2_config(), mode)
            sim = Simulation(topo, cfg, make_scheme("upp", table2_upp_config()))
            net = sim.network
            stats = install_stats(net)
            install_synthetic_traffic(net, "uniform_random", 0.05)
            chiplet = plant(net, topo.chiplet_nodes[-1], topo.chiplet_nodes[0])
            interposer = plant(net, topo.interposer_routers[0], 21)
            chiplet.wake()
            interposer.wake()
            stats.begin_window(0)
            net.run(300)
            stats.end_window(net.cycle)
            return {
                "summary": stats.summary(net.cycle),
                "cycle": net.cycle,
                "occupancy": net.occupancy(),
                "energy": {
                    rid: r.energy.snapshot() for rid, r in net.routers.items()
                },
            }

        vector = run("vector")
        assert run("legacy") == vector
        assert run("full_sweep") == vector
        assert vector["summary"]["packets"] > 0


class TestMirrorCoherence:
    @pytest.mark.parametrize("name", ["uniform_r0.08", "deadlock_recovery"])
    def test_mirrors_match_objects_after_run(self, name):
        """After a saturating run and a popup recovery, every array the
        vector engine keeps (head eligibility, routes, output VCs, popup
        tags, parking, credits, busy bits, link dues) still equals what
        the buffer, port and link objects say."""
        if name == "deadlock_recovery":
            cfg = NocConfig(vcs_per_vnet=1, datapath="vector")
            sim = Simulation(
                baseline_system(), cfg, make_scheme("upp", table2_upp_config()),
                watchdog_window=2500,
            )
            install_adversarial_traffic(sim.network, witness_flows(sim.network))
            result = sim.run(warmup=0, measure=3000)
        else:
            cfg = engine_config(table2_config(), "vector")
            sim = Simulation(
                large_topology(), cfg, make_scheme("upp", table2_upp_config())
            )
            install_synthetic_traffic(sim.network, "uniform_random", 0.08)
            result = sim.run(100, 400)
        assert result_fingerprint(result)["summary"]["packets"] > 0
        engine = sim.network.vector
        assert engine is not None and engine.batched_flits > 0
        assert engine.verify_mirrors() == []

    def test_credit_return_rearms_a_parked_body_flit(self):
        """Parking's re-arm invariant: a body flit parked on an exhausted
        output VC re-enters the scan only through
        ``OutputPort.return_credit``.  A raw credit write skips the
        re-arm, and ``verify_mirrors`` must report the stranded head."""
        cfg = engine_config(table2_config(), "vector")
        sim = Simulation(
            large_topology(), cfg, make_scheme("upp", table2_upp_config())
        )
        install_synthetic_traffic(sim.network, "uniform_random", 0.3)
        engine = sim.network.vector
        found = None
        for _ in range(2000):
            sim.network.step()
            found = next(
                (
                    cell for cell in engine.parked.nonzero()[0].tolist()
                    if engine.cell_vc[cell].out_vc >= 0
                ),
                None,
            )
            if found is not None:
                break
        assert found is not None, "no body flit parked under saturation"
        row = found // engine.vmax
        vc = engine.cell_vc[found]
        oport = engine.row_router[row].out_ports[vc.out_port]
        ovc = vc.out_vc
        assert oport.credits[ovc] == 0
        assert engine.verify_mirrors() == []

        oport.credits[ovc] += 1  # bypasses the re-arm hook
        where = f"router {engine.row_router[row].rid} {engine.row_port[row].name}"
        assert f"{where} vc{vc.vc_index}: parked but head is movable" in (
            engine.verify_mirrors()
        )

        oport.credits[ovc] -= 1
        oport.return_credit(ovc, False)
        assert not engine.parked[found]
        assert engine.verify_mirrors() == []
