"""The ``@mirror_hook`` marker for vector-mirror write-through sites.

The vector datapath (:mod:`repro.noc.vector`) keeps numpy mirrors of a
small set of scalar attributes — VC head eligibility and popup tags,
link delivery timestamps — and parks blocked heads until an event that
could unblock them fires.  Correctness of the engine's two scans rests
on one invariant: **every** mutation of a mirrored attribute flows
through a write-through hook that updates the object attribute and the
engine state together (the property setters and mutator methods in
:mod:`repro.noc.buffer`, :mod:`repro.noc.link` and the network's link
drain).  Output-port ``credits`` / ``vc_busy`` have no array, but their
writes must still go through :class:`~repro.noc.buffer.OutputPort`: a
credit return is the event that re-arms the cells parked on the port.
A raw ``obj._attr = ...`` anywhere else silently desynchronises the
arrays or strands a parked head — the class of bug the
``REPRO_SANITIZE=1`` cross-checks exist to catch at runtime.

``mirror_hook`` is a no-op at runtime; it exists so the sanctioned
mutation sites are *declared in the source*, where the repo lint's R004
dataflow pass (``tools/repro_lint.py``) can verify the invariant
statically: inside ``repro.noc`` / ``repro.schemes``, any write to a
mirror-backed attribute outside a ``@mirror_hook``-decorated function is
a lint violation.
"""

from __future__ import annotations

from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)


def mirror_hook(func: F) -> F:
    """Mark ``func`` as a sanctioned mirror write-through site (no-op)."""
    return func


#: attributes with a numpy mirror or a parking re-arm hook; assignments
#: outside a hook are R004 violations.  Kept next to the decorator so the
#: lint and the engine share one source of truth.
MIRRORED_ATTRS = frozenset(
    {
        # VirtualChannel scalar state + per-cell engine bindings
        "_out_port", "_popup_tagged",
        "_cell", "_adue", "_atag", "_aeng",
        # OutputPort credit/allocation state (no array: return_credit
        # re-arms parked cells) + engine bindings
        "credits", "vc_busy", "_orow", "_aunpark",
        # Link delivery queues + engine bindings
        "_flits", "_credits", "_vec_due", "_vec_min",
        # Link batch-delivery bindings
        "_batch_ok", "_dst_vcs", "_dst_iport",
        "_dst_router", "_src_router", "_src_oport",
        "_dst_pt", "_src_ni", "_dst_ni",
    }
)
