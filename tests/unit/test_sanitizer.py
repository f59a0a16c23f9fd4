"""Unit tests for the runtime invariant sanitizer.

Positive direction: clean traffic runs and drains under every check with
no violation, and enabling the sanitizer cannot change simulation
results.  Negative direction: each invariant class actually fires when
its state is deliberately corrupted.
"""

import pytest

from repro.analysis import InvariantViolation, Sanitizer
from repro.noc.config import NocConfig
from repro.noc.flit import Port
from repro.noc.network import Network
from repro.schemes.upp import UPPScheme
from repro.schemes.registry import make_scheme
from repro.topology.chiplet import baseline_system
from repro.traffic.synthetic import install_synthetic_traffic


def sanitized_net(scheme="upp", interval=64, **cfg_kwargs):
    cfg = NocConfig(sanitize=True, sanitize_interval=interval, **cfg_kwargs)
    return Network(baseline_system(), cfg, make_scheme(scheme))


def run_and_drain(net, rate=0.05, cycles=600):
    endpoints = install_synthetic_traffic(net, "uniform_random", rate)
    net.run(cycles)
    for endpoint in endpoints:
        endpoint.enabled = False
        endpoint._backlog.clear()
    assert net.drain(max_cycles=200000)
    return net


class TestWiring:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        net = Network(baseline_system(), NocConfig(), UPPScheme())
        assert net.sanitizer is None

    def test_enabled_by_config(self):
        net = sanitized_net()
        assert isinstance(net.sanitizer, Sanitizer)
        assert net.sanitizer.interval == 64

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert NocConfig().sanitize is True
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert NocConfig().sanitize is False

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            NocConfig(sanitize_interval=-1)


class TestCleanRuns:
    @pytest.mark.parametrize("scheme", ("upp", "composable"))
    def test_traffic_runs_clean(self, scheme):
        net = run_and_drain(sanitized_net(scheme, interval=50))
        assert net.sanitizer.deep_checks_run > 0
        assert sum(ni.ejected_packets for ni in net.nis.values()) > 0

    def test_sanitizer_does_not_change_results(self):
        """The sanitizer is read-only and draws no RNG: enabling it must
        reproduce the exact same simulation."""

        def signature(sanitize):
            cfg = NocConfig(
                sanitize=sanitize, sanitize_interval=32, seed=99
            )
            net = Network(baseline_system(), cfg, UPPScheme())
            run_and_drain(net, rate=0.06, cycles=400)
            return (
                net.cycle,
                tuple(ni.ejected_packets for ni in net.nis.values()),
            )

        assert signature(True) == signature(False)


def sanitized_coherence(interval=8, cycles=None):
    """A sanitized vector network running blackscholes (mostly asleep
    NIs); runs ``cycles`` cycles, or to completion when None."""
    from repro.traffic.coherence import install_coherence_workload, workload_finished
    from repro.traffic.workloads import get_workload

    net = sanitized_net(interval=interval, datapath="vector")
    endpoints = install_coherence_workload(net, get_workload("blackscholes", scale=0.05))
    if cycles is not None:
        net.run(cycles)
        return net
    for _ in range(5000):
        net.step()
        if workload_finished(endpoints):
            return net
    raise AssertionError("blackscholes did not finish")


class TestSleepingNis:
    def test_coherence_run_is_clean_and_checks_leave_timers_alone(self):
        net = sanitized_coherence()
        assert net.sanitizer.deep_checks_run > 20
        asleep = [node for node in net.nis if node not in net._active_nis]
        assert asleep
        timers = list(net._ni_timers)
        net.sanitizer.check_all()
        assert net._ni_timers == timers  # read-only: no timer armed

    def _sleeper_with_timer(self, net):
        from repro.noc.ni import NEVER

        timed = {node for _cycle, node in net._ni_timers}
        return next(
            node for node in sorted(timed)
            if node not in net._active_nis
            and net.nis[node].endpoint.next_event(net.cycle - 1) != NEVER
        )

    def test_sleeper_without_its_timer_fires(self):
        import heapq

        net = sanitized_coherence(cycles=30)
        node = self._sleeper_with_timer(net)
        net._ni_timers = [t for t in net._ni_timers if t[1] != node]
        heapq.heapify(net._ni_timers)
        with pytest.raises(InvariantViolation, match=f"sleeping NI {node} has no wake"):
            net.sanitizer.check_all()

    def test_sleeper_with_work_fires(self):
        net = sanitized_coherence(cycles=30)
        node = self._sleeper_with_timer(net)
        net.nis[node]._ejection_ready += 1
        with pytest.raises(InvariantViolation, match=f"sleeping NI {node} has work"):
            net.sanitizer._check_sleeping_nis(net)


class TestViolationsFire:
    def test_negative_live_flit_counter(self):
        net = sanitized_net()
        net._live_flits = -1
        with pytest.raises(InvariantViolation, match="live-flit"):
            net.sanitizer.after_cycle()

    def test_flit_conservation(self):
        net = sanitized_net()
        net.note_flits_created(3)  # tracked != swept
        with pytest.raises(InvariantViolation, match="flit conservation"):
            net.sanitizer.check_all()

    def test_occupancy_mirror(self):
        net = sanitized_net()
        net.routers[0].in_ports[Port.LOCAL].occupancy += 1
        # the full-network sweep reads the same counter, so the mirror
        # check is exercised directly
        with pytest.raises(InvariantViolation, match="occupancy mirror"):
            net.sanitizer._check_counter_mirrors(net)

    def test_credit_conservation(self):
        net = sanitized_net()
        router = net.routers[0]
        port = next(p for p in router.out_ports if p != Port.LOCAL)
        router.out_ports[port].credits[0] += 1
        with pytest.raises(InvariantViolation, match="credit conservation"):
            net.sanitizer.check_all()

    def test_vector_mirror_divergence(self):
        net = sanitized_net(datapath="vector")
        vc = net.routers[0].in_ports[Port.LOCAL].vcs[0]
        assert not vc.queue
        net.vector.head_due[vc._cell] = 5  # corrupt the mirror directly
        with pytest.raises(InvariantViolation, match="vector mirror"):
            net.sanitizer.check_all()

    def test_pending_payload_missing_from_delivery_calendar(self):
        net = sanitized_net(datapath="vector")
        install_synthetic_traffic(net, "uniform_random", 0.2)
        net.run(150)
        vec = net.vector
        pending = [lk for lk in vec.links_by_order if lk._flits or lk._credits]
        assert pending and vec.verify_mirrors() == []
        link = pending[0]
        due = (link._flits or link._credits)[0][0]
        vec.calendar[due] = [o for o in vec.calendar[due] if o != link._order]
        with pytest.raises(InvariantViolation, match="missing from the calendar"):
            net.sanitizer.check_all()

    def test_duplicate_reservation_token(self):
        net = sanitized_net()
        net.nis[0].reservations[0] = 41
        net.nis[1].reservations[0] = 41
        with pytest.raises(InvariantViolation, match="token 41"):
            net.sanitizer.check_all()

    def test_idle_attempt_with_token(self):
        net = sanitized_net()
        router = next(r for r in net.routers.values() if r.upp is not None)
        router.upp.attempts[0].token = 7
        with pytest.raises(InvariantViolation, match="idle popup attempt"):
            net.sanitizer.check_all()

    def test_vc_leak_at_drain(self):
        net = run_and_drain(sanitized_net())
        vc = net.routers[0].in_ports[Port.LOCAL].vcs[0]
        vc.active_pid = 1234  # busy VC with no flits: a leak
        with pytest.raises(InvariantViolation, match="VC leak"):
            net.sanitizer.check_drained()

    def test_reservation_leak_at_drain(self):
        net = run_and_drain(sanitized_net())
        net.nis[0].reservations[0] = 7
        with pytest.raises(InvariantViolation, match="reservation leak"):
            net.sanitizer.check_drained()


class TestReconfigurationHook:
    def test_recertifies_after_fault(self):
        import random

        from repro.topology.faults import inject_faults

        net = sanitized_net()
        topo = net.topo
        before = set(topo.faulty)
        inject_faults(topo, 1, random.Random(11))
        net.reconfigure_routing(topo.faulty - before)
        cert = net.sanitizer.last_certificate
        assert cert is not None
        assert cert.ok
        assert cert.n_faulty_links == len(topo.faulty)
