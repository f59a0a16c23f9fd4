"""Property tests for arbitration fairness."""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.arbiter import RoundRobinArbiter
from repro.noc.config import NocConfig
from repro.noc.flit import Port
from repro.noc.network import Network
from repro.topology.chiplet import baseline_system


@given(
    n=st.integers(min_value=1, max_value=16),
    rounds=st.integers(min_value=1, max_value=64),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_grant_is_always_a_requester(n, rounds, data):
    arbiter = RoundRobinArbiter(n)
    for _ in range(rounds):
        requests = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        granted = arbiter.grant(requests)
        if granted is None:
            assert not any(requests)
        else:
            assert requests[granted]


@given(n=st.integers(min_value=1, max_value=16))
@settings(max_examples=40, deadline=None)
def test_persistent_requesters_served_within_n_grants(n):
    """No starvation: with everyone requesting, each index wins exactly
    once per n consecutive grants."""
    arbiter = RoundRobinArbiter(n)
    winners = [arbiter.grant([True] * n) for _ in range(3 * n)]
    for start in range(0, 3 * n, n):
        assert sorted(winners[start : start + n]) == list(range(n))


@given(
    n=st.integers(min_value=2, max_value=12),
    subset=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_sparse_grant_only_from_requesting_set(n, subset):
    arbiter = RoundRobinArbiter(n)
    indices = subset.draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, unique=True)
    )
    for _ in range(5):
        granted = arbiter.grant_from(indices)
        assert granted in indices


@functools.lru_cache(maxsize=1)
def _vector_network():
    return Network(baseline_system(), NocConfig(datapath="vector", sanitize=False))


@given(n=st.integers(min_value=1, max_value=16), data=st.data())
@settings(max_examples=60, deadline=None)
def test_vector_sole_requester_grant_matches_grant_from(n, data):
    """The vector engine grants an input row's sole requester without
    ``grant_from``; the arbiter must end in the state ``grant_from([i])``
    leaves, for every arbiter size, pointer and requester index."""
    net = _vector_network()
    vec = net.vector
    row = next(row for row, port in enumerate(vec.row_port) if port != Port.LOCAL)
    router, port = vec.row_router[row], vec.row_port[row]
    vcs = vec.row_iport[row].vcs
    index = data.draw(st.integers(min_value=0, max_value=min(n, len(vcs)) - 1))
    pointer = data.draw(st.integers(min_value=0, max_value=n - 1))
    arbiter, reference = RoundRobinArbiter(n), RoundRobinArbiter(n)
    arbiter._pointer = reference._pointer = pointer
    router._in_arbiters[port] = arbiter
    vc = vcs[index]
    out_port = next(p for p in router.out_ports if p != Port.LOCAL)
    vc.out_port, vc.out_vc = out_port, 0  # a routed head holding credits
    grants = {}
    try:
        vec._evaluate([vc._cell], grants, {})
    finally:
        vc.out_port, vc.out_vc = None, -1
    assert grants == {router.rid: [(row, vc._cell, out_port, 0)]}
    assert reference.grant_from([index]) == index
    assert arbiter._pointer == reference._pointer
    scan = RoundRobinArbiter(n)
    scan._pointer = pointer
    assert scan.grant([i == index for i in range(n)]) == index
    assert arbiter._pointer == scan._pointer
