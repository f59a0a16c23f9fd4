"""Wake-source corner cases for the active-set scheduler.

These tests pin the invariant behind every sleep decision: a component
may leave the active set only when each event that could change its
state has a wake source — credit return, flit/signal arrival, a
future-cycle timer, or an endpoint-announced event.
"""

import dataclasses
import random

from repro.noc.buffer import Credit
from repro.noc.config import NocConfig
from repro.noc.flit import Port
from repro.noc.network import Network
from repro.noc.ni import NEVER, Endpoint
from repro.schemes.upp import UPPScheme
from repro.schemes.registry import make_scheme
from repro.sim.presets import table2_config, table2_upp_config
from repro.sim.simulator import Simulation
from repro.topology.chiplet import baseline_system
from repro.topology.faults import _layers_connected
from repro.traffic.adversarial import install_adversarial_traffic, witness_flows
from repro.traffic.coherence import (
    RESPONSE_VNET,
    CoherenceEndpoint,
    install_coherence_workload,
    workload_finished,
)
from repro.traffic.synthetic import install_synthetic_traffic
from repro.traffic.trace import TraceRecord, install_replay
from repro.traffic.workloads import get_workload


def count_ni_steps(net, nodes=None):
    """Wrap NI ``step`` methods; returns a dict node -> steps taken."""
    counts = {}
    for node in net.nis if nodes is None else nodes:
        ni = net.nis[node]
        counts[node] = 0
        inner = ni.step

        def counted(cycle, node=node, inner=inner):
            counts[node] += 1
            inner(cycle)

        ni.step = counted
    return counts


class TestRouterHibernation:
    def test_deadlocked_network_quiesces(self):
        """Once an unprotected deadlock forms, stalled routers hibernate:
        the active-router set shrinks far below the router count even
        though their buffers stay occupied."""
        from repro.metrics.deadlock import describe_deadlock

        net = Network(baseline_system(), NocConfig(vcs_per_vnet=1))
        install_adversarial_traffic(net, witness_flows(net))
        net.run(3000)
        assert describe_deadlock(net)  # the deadlock really formed
        assert net.occupancy() > 0
        assert len(net._active_routers) < len(net.routers) // 2

    def test_upp_timeout_fires_on_stalled_hibernating_network(self):
        """UPP's detection threshold must still elapse and pop packets up
        while the rest of the network is asleep: routers observing an
        upward stall are barred from hibernating, so the detector keeps
        counting and recovery completes."""
        cfg = NocConfig(vcs_per_vnet=1)
        sim = Simulation(
            baseline_system(), cfg, UPPScheme(), watchdog_window=2500
        )
        install_adversarial_traffic(sim.network, witness_flows(sim.network))
        result = sim.run(warmup=0, measure=10_000)
        assert not result.deadlocked
        assert result.scheme_stats["upward_packets"] > 0
        assert result.scheme_stats["popups_completed"] > 0


class TestRouteCacheInvalidation:
    def test_reconfigure_invalidates_cache_and_avoids_faulty_link(self):
        topo = baseline_system()
        net = Network(topo, NocConfig())
        # a mesh link pair whose loss keeps every layer connected
        pair = next(
            p for p in topo.mesh_link_pairs() if _layers_connected(topo, {p})
        )
        src, dst = pair
        router = net.routers[src]
        port = next(p for p, l in router.out_links.items() if l.dst == dst)
        first = router.route(Port.LOCAL, dst, src)
        assert first == port  # minimal routing to a direct neighbour
        assert router._route_cache  # decision memoised

        net.reconfigure_routing([(src, dst), (dst, src)])
        assert not router._route_cache  # cache dropped on reconfiguration
        rerouted = router.route(Port.LOCAL, dst, src)
        assert rerouted != port  # new decision avoids the faulty link
        assert (src, dst) in topo.faulty

    def test_reconfigure_wakes_everything(self):
        net = Network(baseline_system(), NocConfig())
        net.run(20)  # idle system: everything asleep
        assert not net._active_routers and not net._active_nis
        net.reconfigure_routing()
        assert len(net._active_routers) == len(net.routers)
        assert len(net._active_nis) == len(net.nis)


class TestNiCreditWake:
    def test_backlogged_ni_sleeps_and_wakes_on_credit_return(self):
        net = Network(baseline_system(), NocConfig())
        net.run(10)
        node = net.topo.chiplet_nodes[0]
        dst = net.topo.chiplet_nodes[1]
        ni = net.nis[node]
        assert node not in net._active_nis

        # block every output VC (as if allocated to in-flight packets),
        # then hand the NI a message: it must try once, fail, and sleep.
        ni.out_credits.consume_credit(0)
        for vc in range(len(ni.out_credits.vc_busy)):
            ni.out_credits.vc_busy[vc] = True
        assert ni.send_message(dst, 0, 1, net.cycle) is not None
        assert node in net._active_nis  # woken by the new message
        net.run(2)
        assert node not in net._active_nis  # blocked on credits: asleep
        assert ni._queued_msgs == 1

        # the credit return is the wake source that unblocks it
        ni.receive_credit(Credit(0, vc_free=True))
        assert node in net._active_nis
        net.run(10)
        assert ni._queued_msgs == 0  # packet injected after the wake


class TestOccupancyCounters:
    def test_tracked_occupancy_matches_exhaustive_scan(self):
        cfg = dataclasses.replace(table2_config())
        sim = Simulation(
            baseline_system(), cfg, make_scheme("upp", table2_upp_config())
        )
        install_synthetic_traffic(sim.network, "uniform_random", 0.05)
        net = sim.network
        for _ in range(20):
            net.run(25)
            assert net.tracked_occupancy == net.occupancy()


class TestEndpointSleep:
    def test_coherence_nis_sleep_between_issues(self):
        """Blackscholes issues on 4 % of cycles: with the issue schedule
        drawn ahead, the 80 NIs of ``baseline`` are stepped only when a
        core can issue or traffic arrives (every NI, every cycle before)."""
        sim = Simulation(baseline_system(), NocConfig(vcs_per_vnet=1), make_scheme("upp"))
        net = sim.network
        assert net.vector is not None
        endpoints = install_coherence_workload(net, get_workload("blackscholes", scale=0.05))
        counts = count_ni_steps(net)
        result = sim.run(0, 100_000, stop_when=lambda n: workload_finished(endpoints))
        assert workload_finished(endpoints)
        assert len(net.nis) == 80
        assert sum(counts.values()) / result.cycles < 20

    def test_consume_only_endpoint_is_polled_every_cycle(self):
        """An endpoint that overrides ``consume`` but announces no next
        event (the ``Refuser`` shape) may act on any cycle."""

        class Refuser(Endpoint):
            def consume(self, cycle):
                pass

        net = Network(baseline_system(), NocConfig())
        node = net.topo.chiplet_nodes[0]
        net.nis[node].set_endpoint(Refuser())
        counts = count_ni_steps(net, [node])
        net.run(50)
        assert counts[node] == 50
        assert node in net._active_nis

    def test_stalled_reply_keeps_the_ni_awake_until_flushed(self):
        net = Network(baseline_system(), NocConfig())
        node, dst = net.topo.chiplet_nodes[:2]
        ni = net.nis[node]
        endpoint = CoherenceEndpoint(
            get_workload("blackscholes"), peers=[node, dst], same_chiplet=[node, dst],
            directories=[], rng=random.Random(1), is_core=False,
        )
        ni.set_endpoint(endpoint)
        net.run(5)
        assert endpoint.next_event(net.cycle) == NEVER
        assert node not in net._active_nis  # a home never acts on its own

        # block the response VC, fill the response queue, stall a reply
        response_vc = RESPONSE_VNET * net.cfg.vcs_per_vnet
        ni.out_credits.consume_credit(response_vc)
        for vc in range(len(ni.out_credits.vc_busy)):
            ni.out_credits.vc_busy[vc] = True
        while ni.injection_space(RESPONSE_VNET):
            ni.send_message(dst, RESPONSE_VNET, 5, net.cycle)
        endpoint._stalled_replies.append((dst, RESPONSE_VNET, ("data", node)))
        counts = count_ni_steps(net, [node])
        net.run(40)
        assert counts[node] == 40  # polled: the flush may succeed any cycle
        assert endpoint._stalled_replies

        ni.receive_credit(Credit(response_vc, vc_free=True))
        net.run(300)
        assert not endpoint._stalled_replies
        assert ni._queued_msgs == 0
        assert node not in net._active_nis  # flushed and drained: asleep

    def test_zero_issue_rate_arms_nothing(self):
        """A hand-built profile that can never issue must not spin in the
        draw-ahead loop; its core never acts."""
        net = Network(baseline_system(), NocConfig())
        node, dst = net.topo.chiplet_nodes[:2]
        profile = dataclasses.replace(get_workload("blackscholes"), issue_rate=0.0)
        endpoint = CoherenceEndpoint(
            profile, peers=[node, dst], same_chiplet=[node, dst],
            directories=[], rng=random.Random(1), is_core=True,
        )
        net.nis[node].set_endpoint(endpoint)
        net.run(20)
        assert endpoint.next_event(net.cycle) == NEVER
        assert endpoint.outstanding == 0
        assert node not in net._active_nis

    def test_replay_sleeps_until_the_next_record(self):
        net = Network(baseline_system(), NocConfig())
        src, dst = net.topo.chiplet_nodes[:2]
        install_replay(net, [TraceRecord(30, src, dst, 0, 1), TraceRecord(70, src, dst, 2, 5)])
        counts = count_ni_steps(net)
        net.run(200)
        assert net.nis[src].injected_packets == 2
        assert net.nis[dst].ejected_packets == 2
        assert sum(counts.values()) < 200  # 80 replay NIs, nearly all asleep
