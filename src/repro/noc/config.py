"""Network configuration (the paper's Table II, network section)."""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.fingerprint import stable_fingerprint


def _sanitize_default() -> bool:
    """Opt-in default for the invariant sanitizer.

    Reads ``REPRO_SANITIZE`` so an existing test/bench suite can be run
    under the sanitizer without touching every configuration site
    (``REPRO_SANITIZE=1 pytest ...``).
    """
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


@dataclass
class NocConfig:
    """Microarchitectural parameters shared by every router and NI.

    Defaults reproduce Table II: 3 VNets (MESI coherence), 1 VC per VNet,
    4 flit-deep VCs, a 3-stage router pipeline, 1-cycle 128-bit links,
    wormhole flow control, 5-flit data packets and 1-flit control packets.
    """

    n_vnets: int = 3
    vcs_per_vnet: int = 1
    vc_depth: int = 4
    #: "wormhole" (Table II) or "vct" (virtual cut-through): under VCT a
    #: header is allocated an output VC only when the downstream buffer
    #: can hold the entire packet, so worms never span routers.  UPP
    #: supports both (flow-control modularity, Table I); under VCT the
    #: partly-transmitted popup machinery of Sec. V-B3 never triggers.
    flow_control: str = "wormhole"
    pipeline_stages: int = 3
    link_latency: int = 1
    link_width_bits: int = 128
    data_packet_size: int = 5
    control_packet_size: int = 1
    #: NI ejection-queue entries per VNet (each entry holds one message).
    ejection_queue_capacity: int = 4
    #: NI injection-queue entries per VNet.
    injection_queue_capacity: int = 16
    ni_link_latency: int = 1
    seed: int = 2022
    #: capacity of each dedicated UPP signal buffer.  The paper provisions a
    #: single 32-bit buffer per direction; we allow a small queue and track
    #: the high-water mark so tests can verify the paper's no-contention
    #: argument (Sec. V-B5) holds.
    signal_buffer_capacity: int = 8
    #: opt-in runtime invariant sanitizer (:mod:`repro.analysis.sanitizer`):
    #: conservation + protocol-legality checks wired into the core.  The
    #: sanitizer is read-only, so enabling it cannot change results.
    #: Defaults to the ``REPRO_SANITIZE`` environment variable.
    sanitize: bool = field(default_factory=_sanitize_default)
    #: cycles between the sanitizer's deep (full-sweep) checks; the cheap
    #: O(1) counter checks run every cycle regardless.  0 disables the
    #: periodic deep sweep (it still runs at drain and reconfiguration).
    sanitize_interval: int = 256
    #: per-cycle evaluation engine: ``"vector"`` (the production engine:
    #: a numpy scan over head eligibility and a link delivery calendar
    #: driving the active router set) or ``"legacy"`` (the scalar reference sweep,
    #: visiting every component every cycle).  The two are bit-identical
    #: — the determinism suite proves it — so the choice is excluded
    #: from :meth:`fingerprint`.
    datapath: str = "vector"

    #: fields that select an execution strategy rather than simulated
    #: behaviour; excluded from the result-cache fingerprint so runs that
    #: are provably bit-identical share cache entries.
    NON_SEMANTIC_FIELDS = ("datapath",)

    @property
    def n_vcs(self) -> int:
        """Total input VCs per port."""
        return self.n_vnets * self.vcs_per_vnet

    @property
    def sa_eligibility_delay(self) -> int:
        """Cycles between buffer write and switch-allocation eligibility.

        With the default 3-stage pipeline (BW/RC | SA+VCS | ST) a flit
        written at cycle *t* may win SA at *t+2* and traverses the link the
        following cycle, giving the paper's 4-cycle per-hop latency.
        """
        return self.pipeline_stages - 1

    #: fingerprint namespace; bump when a field changes meaning so stale
    #: cache entries keyed on the old semantics can never be reused.
    FINGERPRINT_TAG = "repro.NocConfig/v1"

    def to_dict(self) -> Dict[str, object]:
        """Canonical plain-dict form (JSON-able, one key per field).

        Every field is a scalar, so reading them directly gives what
        ``dataclasses.asdict`` would without its recursive deep copy.
        """
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "NocConfig":
        """Rebuild a validated config from :meth:`to_dict` output."""
        return cls(**dict(payload))

    def fingerprint(self) -> str:
        """Stable content hash; the runner's cache-key ingredient.

        Engine-selection fields (:attr:`NON_SEMANTIC_FIELDS`) are dropped
        before hashing: a vector and a legacy run of the same
        configuration produce the same results, so they must share the
        same cache key.
        """
        payload = self.to_dict()
        for name in self.NON_SEMANTIC_FIELDS:
            payload.pop(name, None)
        return stable_fingerprint(self.FINGERPRINT_TAG, payload)

    def validate(self) -> None:
        """Reject configurations the model cannot represent."""
        if self.flow_control not in ("wormhole", "vct"):
            raise ValueError("flow control must be 'wormhole' or 'vct'")
        if self.n_vnets < 1:
            raise ValueError("need at least one VNet")
        if self.vcs_per_vnet < 1:
            raise ValueError("need at least 1 VC per VNet (VC modularity floor)")
        if self.vc_depth < 1:
            raise ValueError("VC depth must be positive")
        if self.pipeline_stages < 1:
            raise ValueError("pipeline must have at least one stage")
        if self.sanitize_interval < 0:
            raise ValueError("sanitize_interval must be >= 0")
        if self.datapath not in ("vector", "legacy"):
            raise ValueError("datapath must be 'vector' or 'legacy'")
        if self.data_packet_size < 1 or self.control_packet_size < 1:
            raise ValueError("packet sizes must be positive")
        if self.flow_control == "vct" and self.vc_depth < self.data_packet_size:
            raise ValueError(
                "virtual cut-through needs VC depth >= the largest packet "
                f"({self.data_packet_size} flits), got {self.vc_depth}"
            )

    def __post_init__(self) -> None:
        self.validate()
