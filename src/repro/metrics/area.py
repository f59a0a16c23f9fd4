"""Analytic router area model (Fig. 14).

The paper synthesises routers with Synopsys DC under a 45 nm TSMC library
and reports a 135,083 um^2 baseline router with 1 VC per VNet and
339,371 um^2 with 4 VCs, plus per-scheme overheads.  We rebuild the same
component inventory analytically: every structure is expressed in bits
(buffers, tables, counters) or unit counts (arbiters, muxes, FSMs) and
multiplied by per-structure 45 nm area constants.  The constants are
calibrated so the two baseline router areas are met exactly; the scheme
overheads then *follow from the component inventory* the paper describes
(Sec. V-E and Fig. 6), which is what Fig. 14 compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.protocol import SIGNAL_BUFFER_BITS
from repro.noc.config import NocConfig

# ---------------------------------------------------------------------- #
# 45 nm per-structure constants (um^2)

#: flip-flop-based storage, per bit (VC buffers, signal buffers, tables).
FF_BIT = 6.33
#: crossbar area per (port x port x bit) crosspoint.
XBAR_CROSSPOINT = 0.55
#: round-robin arbiter, per requester.
ARBITER_PER_REQ = 95.0
#: timeout counter (16-bit counter + comparator), per instance.
COUNTER = 450.0
#: small control FSM (UPP_req/ack/stop units, NI reservation logic).
CONTROL_UNIT = 1000.0
#: 2:1 mux per bit (shared-buffer input multiplexing).
MUX2_BIT = 1.9
#: residual per-router logic (pipeline registers, RC, misc control),
#: calibrated so the baseline areas match the paper's synthesis exactly.
BASE_LOGIC_1VC = 60923.0
BASE_LOGIC_4VC = 55078.0

#: the paper's synthesised baselines (um^2).
PAPER_BASELINE_AREA = {1: 135_083.0, 4: 339_371.0}


def _vc_buffer_bits(cfg: NocConfig, n_ports: int) -> int:
    return n_ports * cfg.n_vcs * cfg.vc_depth * cfg.link_width_bits


def baseline_router_area(cfg: NocConfig, n_ports: int = 7) -> float:
    """Input-queued wormhole router + its NI (chiplet routers include the
    NI area, Sec. VI-D)."""
    buffers = _vc_buffer_bits(cfg, n_ports) * FF_BIT
    xbar = n_ports * n_ports * cfg.link_width_bits * XBAR_CROSSPOINT
    allocator = n_ports * cfg.n_vcs * ARBITER_PER_REQ + n_ports * ARBITER_PER_REQ
    base = BASE_LOGIC_1VC if cfg.vcs_per_vnet == 1 else BASE_LOGIC_4VC
    return buffers + xbar + allocator + base


@dataclass
class AreaReport:
    """A router's baseline area plus one scheme's itemised additions."""

    baseline: float
    additions: Dict[str, float]

    @property
    def added(self) -> float:
        """Total added area (um^2)."""
        return sum(self.additions.values())

    @property
    def overhead(self) -> float:
        """Added area as a fraction of the baseline (the Fig. 14 bars)."""
        return self.added / self.baseline


def upp_chiplet_overhead(cfg: NocConfig) -> AreaReport:
    """UPP additions to a chiplet router + NI (Fig. 6, top and bottom)."""
    baseline = baseline_router_area(cfg)
    n_ports = 7
    additions = {
        # two dedicated 32-bit signal buffers
        "signal_buffers": 2 * SIGNAL_BUFFER_BITS * FF_BIT,
        # shared-buffer input muxing across all ports
        "signal_muxes": 2 * (n_ports - 1) * SIGNAL_BUFFER_BITS * MUX2_BIT,
        # connection table: one (in, out, state) entry per VNet
        "circuit_table": cfg.n_vnets * 12 * FF_BIT,
        # reverse-path table for UPP_ack retracing
        "reverse_table": cfg.n_vnets * 8 * FF_BIT,
        # SA priority gating for signals and upward flits
        "priority_gates": n_ports * 60.0,
        # NI: reservation table (entry per VNet) + three protocol units
        "ni_reservation_table": cfg.n_vnets * 12 * FF_BIT,
        "ni_protocol_units": 3 * CONTROL_UNIT,
    }
    return AreaReport(baseline, additions)


def upp_interposer_overhead(cfg: NocConfig) -> AreaReport:
    """UPP additions to an interposer router (Fig. 6, middle)."""
    baseline = baseline_router_area(cfg)
    additions = {
        # per-VNet timeout counter on the up output port
        "upp_counters": cfg.n_vnets * COUNTER,
        # per-VNet round-robin upward-packet arbiter over all VCs
        "upp_arbiters": cfg.n_vnets * 7 * cfg.vcs_per_vnet * ARBITER_PER_REQ / 4,
        # popup table: stage, position, destination per VNet
        "popup_table": cfg.n_vnets * 24 * FF_BIT,
        # req/ack/stop transmit-receive units (serial)
        "protocol_units": 3 * CONTROL_UNIT * 0.4,
    }
    return AreaReport(baseline, additions)


def remote_control_chiplet_overhead(cfg: NocConfig) -> AreaReport:
    """Remote-control additions to a *boundary* chiplet router: four
    data-packet-sized buffers plus the permission endpoint.  Averaged over
    the chiplet (only boundary routers carry the buffers), matching how
    the paper reports per-chiplet-router overhead."""
    baseline = baseline_router_area(cfg)
    boundary_fraction = 4 / 16  # 4 boundary routers in a 4x4 chiplet
    packet_bits = 5 * cfg.link_width_bits
    per_boundary = {
        "boundary_buffers": 4 * packet_bits * FF_BIT,
        "permission_endpoint": 2 * CONTROL_UNIT,
        "reservation_queue": 8 * 12 * FF_BIT,
    }
    additions = {
        key: value * boundary_fraction for key, value in per_boundary.items()
    }
    # every NI adds the request/grant handshake logic
    additions["ni_handshake"] = CONTROL_UNIT
    return AreaReport(baseline, additions)


def composable_overhead(cfg: NocConfig) -> AreaReport:
    """Composable routing costs ~zero area: only turn restrictions."""
    return AreaReport(baseline_router_area(cfg), {})


def figure14_table(cfg1: NocConfig, cfg4: NocConfig) -> Dict[str, Dict[str, float]]:
    """The eight bars of Fig. 14 as overhead fractions."""
    return {
        "composable": {
            "chiplet_1vc": composable_overhead(cfg1).overhead,
            "chiplet_4vc": composable_overhead(cfg4).overhead,
            "interposer_1vc": 0.0,
            "interposer_4vc": 0.0,
        },
        "remote_control": {
            "chiplet_1vc": remote_control_chiplet_overhead(cfg1).overhead,
            "chiplet_4vc": remote_control_chiplet_overhead(cfg4).overhead,
            "interposer_1vc": 0.0,
            "interposer_4vc": 0.0,
        },
        "upp": {
            "chiplet_1vc": upp_chiplet_overhead(cfg1).overhead,
            "chiplet_4vc": upp_chiplet_overhead(cfg4).overhead,
            "interposer_1vc": upp_interposer_overhead(cfg1).overhead,
            "interposer_4vc": upp_interposer_overhead(cfg4).overhead,
        },
    }
