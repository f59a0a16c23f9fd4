"""The system-level routing algorithm of Sec. V-D.

Three packet classes:

1. *Intra-layer* packets use the layer's local routing.
2. *Chiplet -> interposer* packets exit through the boundary router bound
   to their **source** chiplet router, then drop down.
3. *Interposer -> chiplet* packets target the interposer router attached
   to the boundary router bound to their **destination** chiplet router,
   then pop up and use the destination chiplet's local routing.

Baselines override pieces of this: composable routing substitutes its own
restricted chiplet tables and exit/entry selections, remote control keeps
the UPP selection (per Sec. VI: "Remote control uses the same boundary
router selection mechanism as UPP").
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.noc.flit import Port
from repro.topology.chiplet import SystemTopology


class HierarchicalRouting:
    """Callable with the router ``RouteFn`` signature."""

    def __init__(
        self,
        topo: SystemTopology,
        local_interposer,
        local_chiplets: Dict[int, object],
        exit_binding: Dict[int, int],
        entry_binding: Optional[Dict[int, int]] = None,
    ):
        self.topo = topo
        self.local_interposer = local_interposer
        self.local_chiplets = local_chiplets
        #: source chiplet router -> boundary router used to leave the chiplet
        self.exit_binding = exit_binding
        #: destination chiplet router -> boundary router used to enter
        self.entry_binding = entry_binding if entry_binding is not None else exit_binding

    def __call__(self, router, in_port: Port, dst: int, src: int) -> Port:
        topo = self.topo
        rid = router.rid
        if rid == dst:
            return Port.LOCAL

        if topo.is_interposer(rid):
            if topo.is_interposer(dst):
                return self.local_interposer.next_port(rid, in_port, dst)
            entry = self.entry_binding[dst]
            target = topo.attach_down[entry]
            if rid == target:
                return topo.up_port_of[entry]
            return self.local_interposer.next_port(rid, in_port, target)

        chiplet = topo.chiplet_of[rid]
        local = self.local_chiplets[chiplet]
        if not topo.is_interposer(dst) and topo.chiplet_of[dst] == chiplet:
            return local.next_port(rid, in_port, dst)

        # leaving the chiplet: bind by the packet's source router when it
        # lives in this chiplet (type-2 packets); locally generated control
        # traffic (src == -1) binds by the current router.
        anchor = src if src in self.exit_binding and topo.chiplet_of.get(src) == chiplet else rid
        exit_b = self.exit_binding[anchor]
        if rid == exit_b:
            return Port.DOWN
        return local.next_port(rid, in_port, exit_b)
