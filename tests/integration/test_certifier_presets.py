"""Certifier acceptance on the paper presets (all four schemes).

Mirrors what CI runs via ``python -m repro check``: composable routing
certifies *acyclic* on every preset; upp / remote_control / none certify
*cyclic-upward-only* (the Sec. IV theorem); the guarantee survives a
runtime fault-reconfiguration event; composable refuses faulty
topologies outright.
"""

import random

import pytest

from repro.__main__ import main
from repro.analysis.certifier import (
    VERDICT_ACYCLIC,
    VERDICT_UPWARD_ONLY,
    certify,
    certify_network,
)
from repro.analysis.cli import PRESETS, SCHEMES, check_preset
from repro.noc.network import Network
from repro.schemes.registry import make_scheme
from repro.sim.presets import table2_config, table2_upp_config
from repro.topology.chiplet import baseline_system
from repro.topology.faults import inject_faults

EXPECTED_VERDICT = {
    "composable": VERDICT_ACYCLIC,
    "upp": VERDICT_UPWARD_ONLY,
    "remote_control": VERDICT_UPWARD_ONLY,
    "none": VERDICT_UPWARD_ONLY,
}


class TestBaselinePreset:
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_scheme_certifies(self, scheme_name):
        factory, vcs = PRESETS["baseline"]
        cert = certify(
            factory(),
            table2_config(vcs),
            make_scheme(scheme_name, upp_cfg=table2_upp_config()),
        )
        assert cert.verdict == EXPECTED_VERDICT[scheme_name]
        assert cert.ok
        assert cert.totality.ok

    def test_four_vcs_certifies(self):
        factory, vcs = PRESETS["baseline-4vc"]
        assert vcs == 4
        cert = certify(factory(), table2_config(vcs), make_scheme("upp"))
        assert cert.ok


class TestFaultedTopology:
    def test_upp_recertifies_after_fault_event(self):
        """Reconfigure a live network around fresh faults; the rebuilt
        routing must still satisfy the upward-cycles expectation."""
        topo = baseline_system()
        net = Network(topo, table2_config(1), make_scheme("upp"))
        before = set(topo.faulty)
        inject_faults(topo, 2, random.Random(2022))
        net.reconfigure_routing(topo.faulty - before)
        cert = certify_network(net)
        assert cert.n_faulty_links == len(topo.faulty) > 0
        assert cert.verdict == VERDICT_UPWARD_ONLY
        assert cert.ok

    def test_prefaulted_none_scheme_certifies(self):
        topo = baseline_system()
        inject_faults(topo, 4, random.Random(5))
        cert = certify(topo, table2_config(1), make_scheme("none"))
        assert cert.ok

    def test_composable_refuses_faulty_topology(self):
        topo = baseline_system()
        inject_faults(topo, 1, random.Random(5))
        with pytest.raises(ValueError):
            make_scheme("composable").build_routing(
                topo, table2_config(1), random.Random(0)
            )


class TestCheckCommand:
    def test_baseline_all_schemes_ok(self, capsys):
        assert main(["check", "--preset", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "certification: OK" in out
        for scheme_name in SCHEMES:
            assert EXPECTED_VERDICT[scheme_name] in out

    def test_fault_replay_via_cli(self, capsys):
        assert main([
            "check", "--preset", "baseline", "--scheme", "upp", "--faults", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "+2 fault(s)" in out
        assert "certification: OK" in out

    def test_composable_fault_refusal_via_cli(self, capsys):
        assert main([
            "check", "--preset", "baseline", "--scheme", "composable",
            "--faults", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "rejects faulty topology by design" in out

    def test_check_preset_helper(self, capsys):
        assert check_preset("baseline", schemes=("upp",), witnesses=1)
        out = capsys.readouterr().out
        assert "cycle:" in out  # witness printing
