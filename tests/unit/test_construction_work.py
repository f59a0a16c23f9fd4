"""Work-count guards for construction: counts that repeat exactly, so a
reintroduced per-pair or per-chiplet rebuild fails here rather than
showing up as benchmark noise."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.routing import cdg
from repro.routing.table import TableRouting
from repro.schemes import composable
from repro.schemes.composable import ComposableRoutingScheme
from repro.schemes.upp import UPPScheme
from repro.topology.chiplet import baseline_system
from repro.traffic.adversarial import witness_flows

SRC = Path(__file__).resolve().parents[2] / "src"

#: what ``witness_flows`` has always returned on the 1-VC baseline
BASELINE_WITNESS_FLOWS = [
    (24, 32), (16, 37), (32, 41), (32, 45), (40, 16), (26, 48), (16, 48),
    (16, 53), (48, 57), (48, 61), (56, 16), (48, 16), (32, 21), (16, 25),
    (16, 29),
]


def count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestOneLinkMapPerCdgBuild:
    def test_build_system_cdg(self, monkeypatch):
        network = Network(baseline_system(), NocConfig(vcs_per_vnet=1), UPPScheme())
        calls = count_calls(monkeypatch, cdg, "_link_map")
        graph = cdg.build_system_cdg(network)
        assert len(calls) == 1
        assert (graph.number_of_nodes(), graph.number_of_edges()) == (272, 500)

    def test_witness_flows(self, monkeypatch):
        network = Network(baseline_system(), NocConfig(vcs_per_vnet=1), UPPScheme())
        calls = count_calls(monkeypatch, cdg, "_link_map")
        assert witness_flows(network) == BASELINE_WITNESS_FLOWS
        assert len(calls) == 1


class TestOneDesignPerDistinctChiplet:
    def test_baseline_builds_one_chiplets_worth_of_tables(self, monkeypatch):
        searches = count_calls(monkeypatch, composable, "design_chiplet")
        tables = count_calls(monkeypatch, TableRouting, "__init__")
        bfs_runs = count_calls(monkeypatch, TableRouting, "_backward_bfs")
        candidates = count_calls(
            monkeypatch, TableRouting, "with_vertical_restrictions"
        )
        resolves = count_calls(monkeypatch, TableRouting, "_resolve")
        scheme = ComposableRoutingScheme()
        Network(baseline_system(), NocConfig(), scheme)
        assert len(searches) == 1  # four identical chiplets
        assert len(tables) == 1  # one set of distance tables per design ...
        assert len(bfs_runs) == 16  # ... one BFS per destination
        # the empty set plus one table per candidate tried: 8 accepted, 2
        # refused; the 9 round-opening evaluations reuse the accepted ones
        assert len(candidates) == 11
        assert scheme.design_evaluations == 4 * (9 + 10)
        # the candidates share every next hop not entered through DOWN
        # (1020 resolutions; 4591 when each candidate resolved its own)
        assert len(resolves) <= 1100


@pytest.mark.parametrize("module", ["networkx", "numpy"])
def test_importing_the_api_does_not_import(module):
    """A ``upp`` sweep never searches for cycles; networkx is imported by
    the functions that do.  numpy comes with the vector engine, which the
    first network build (or a forking runner) imports."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = f"import sys, repro.api; sys.exit({module!r} in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
