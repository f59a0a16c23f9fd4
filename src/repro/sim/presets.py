"""Simulation presets encoding the paper's Table II."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.config import UPPConfig
from repro.noc.config import NocConfig

#: Table II, network configuration rows.
TABLE_II = {
    "topology": "1 4x4 mesh interposer, 4 4x4 mesh chiplets",
    "vnets": 3,
    "vcs_per_vnet": (1, 4),
    "vc_depth_flits": 4,
    "router_pipeline_stages": 3,
    "link_latency_cycles": 1,
    "link_width_bits": 128,
    "flow_control": "wormhole",
    "data_packet_flits": 5,
    "control_packet_flits": 1,
    "upp_detection_threshold": 20,
    "directories_on_interposer": 8,
}


def table2_config(vcs_per_vnet: int = 1, seed: int = 2022) -> NocConfig:
    """The paper's network configuration with 1 or 4 VCs per VNet."""
    if vcs_per_vnet not in (1, 4):
        raise ValueError("the paper evaluates 1 or 4 VCs per VNet")
    return NocConfig(
        n_vnets=TABLE_II["vnets"],
        vcs_per_vnet=vcs_per_vnet,
        vc_depth=TABLE_II["vc_depth_flits"],
        pipeline_stages=TABLE_II["router_pipeline_stages"],
        link_latency=TABLE_II["link_latency_cycles"],
        link_width_bits=TABLE_II["link_width_bits"],
        data_packet_size=TABLE_II["data_packet_flits"],
        control_packet_size=TABLE_II["control_packet_flits"],
        seed=seed,
    )


def table2_upp_config(threshold: Optional[int] = None) -> UPPConfig:
    """The paper's UPP configuration (20-cycle detection threshold).

    The ack timeout keeps ``UPPConfig``'s default, which is far above
    any ack round trip, until a threshold reaches it; from there it is
    the threshold plus one, the least timeout a config accepts.
    """
    if threshold is None:
        threshold = TABLE_II["upp_detection_threshold"]
    ack_timeout = max(UPPConfig.ack_timeout, threshold + 1)
    return UPPConfig(detection_threshold=threshold, ack_timeout=ack_timeout)


#: system preset name -> (topology alias, VCs per VNet).  The
#: paper evaluates both systems with 1 and 4 VCs per VNet (Table II);
#: ``repro.api.load_preset`` and the certifier's preset matrix both
#: derive from this table.
SYSTEM_PRESETS: Dict[str, Tuple[str, int]] = {
    "baseline": ("baseline", 1),
    "baseline-4vc": ("baseline", 4),
    "large": ("large", 1),
    "large-4vc": ("large", 4),
}

