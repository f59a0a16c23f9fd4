"""Closed-loop workload results pinned to a file.

The vector-vs-reference-sweep equivalence tests compare two engines that
share one endpoint implementation, so a change to the endpoint itself
(say, how the coherence issue stream is drawn) moves both alike and goes
unseen there.  These cases compare against summaries recorded before the
issue schedule was drawn ahead: the stream, every issue cycle and so every
result must be unchanged.
"""

import json
from pathlib import Path

import pytest

from repro.exp.tasks import execute_spec, workload_spec
from repro.noc.config import NocConfig
from repro.traffic.workloads import get_workload

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "golden" / "workload_summaries.json").read_text()
)["cases"]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_workload_summary_matches_golden(case):
    workload, scheme, vcs = case.split("/")
    cfg = NocConfig(vcs_per_vnet=int(vcs.rstrip("vc")))
    spec = workload_spec("baseline", cfg, scheme, get_workload(workload, scale=0.05))
    assert execute_spec(spec) == GOLDEN[case]
