"""UPP as a pluggable scheme: wires the core framework into the network.

Attachment (Fig. 6): every interposer router gets an
:class:`InterposerPopupUnit` (counters, arbiter, popup table, signal
units); every chiplet router gets a :class:`ChipletCircuitTable` plus its
two 32-bit signal buffers (already part of the router datapath); chiplet
NIs already carry the reservation table.  Routing is the unrestricted
Sec. V-D algorithm — full path diversity, no injection control.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.circuit import ChipletCircuitTable
from repro.core.config import UPPConfig
from repro.core.coordination import PopupCoordinator
from repro.core.popup import InterposerPopupUnit, UPPStats
from repro.noc.router import RouterKind
from repro.schemes.base import DeadlockScheme


class UPPScheme(DeadlockScheme):
    """Upward Packet Popup: the paper's deadlock-recovery framework."""

    name = "upp"
    mc_semantics = "popup"

    def __init__(self, upp_cfg: Optional[UPPConfig] = None):
        self.cfg = upp_cfg if upp_cfg is not None else UPPConfig()
        self.stats = UPPStats()
        self._popup_units = []
        #: interposer routers whose popup unit has live state (non-idle
        #: attempts, queued signals or running detection counters); these
        #: must keep ticking even when their router is otherwise asleep.
        self._armed: dict = {}

    def attach(self, network) -> None:
        n_vnets = network.cfg.n_vnets
        self._popup_units = []
        coordinator = (
            PopupCoordinator(n_vnets) if self.cfg.coordinate_per_chiplet else None
        )
        for router in network.routers.values():
            if router.kind == RouterKind.INTERPOSER:
                unit = InterposerPopupUnit(n_vnets, self.cfg, self.stats)
                if coordinator is not None:
                    unit.coordinator = coordinator
                    unit.chiplet_of = network.topo.chiplet_of
                router.upp = unit
                self._popup_units.append(router)
            else:
                router.upp_tables = ChipletCircuitTable(n_vnets, self.stats)

    def post_cycle(self, network, cycle: int) -> None:
        vec = network.vector
        if vec is None:
            # The reference sweep ticks everything by definition.
            for router in self._popup_units:
                router.upp.tick(router, cycle)
            return
        # The vector engine ticks only units that could do something —
        # armed units (timeout counters / in-flight attempts / queued
        # signals, which must advance even on a sleeping router) plus
        # those with fresh stall observations: routers that took the
        # scalar step this cycle, and the routers whose flags the batch
        # switch phase just reported (``vec.upp_observed``; stale entries
        # from a skipped static cycle only add idle no-op ticks).  A unit
        # outside every set is provably idle, so its tick is a no-op and
        # skipping it preserves bit-identical results with the reference
        # sweep.
        candidates = dict(self._armed)
        for router in network.stepped_routers:
            if router.upp is not None:
                candidates[router.rid] = router
        candidates.update(vec.upp_observed)
        armed = self._armed
        for rid in sorted(candidates):
            router = candidates[rid]
            router.upp.tick(router, cycle)
            if router.upp.idle():
                armed.pop(rid, None)
            else:
                armed[rid] = router

    def qualitative_profile(self) -> Dict[str, bool]:
        return {
            "topology_modularity": True,
            "vc_modularity": True,
            "flow_control_modularity": True,
            "full_path_diversity": True,
            "no_injection_control": True,
            "topology_independence": True,
            "deadlock_free": True,
        }

    def stats_snapshot(self) -> dict:
        return self.stats.snapshot()
