"""UPP framework configuration."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Mapping

from repro.fingerprint import stable_fingerprint


@dataclass
class UPPConfig:
    """Parameters of the UPP deadlock-recovery framework.

    ``detection_threshold`` is the timeout (in cycles) of the per-VNet UPP
    counter on each interposer router's up output port — Table II uses 20
    cycles, and Fig. 13 sweeps 20/100/1000.

    ``ack_timeout`` is a robustness addition over the paper: if an
    ``UPP_ack`` never returns (it was discarded because the partly
    transmitted head moved on, Sec. V-B3), the popup attempt is aborted
    with an ``UPP_stop`` and detection resumes.  It is set far above any
    legal ack round-trip (signals travel with priority, so their RTT is
    bounded by twice the network diameter times the pipeline depth) so it
    only fires when the ack is genuinely gone.

    ``signal_min_gap`` is the serial-transmission gap between consecutive
    protocol signals from one interposer router; the paper requires
    ``Size_of_Data_Packet + 1`` cycles to make the dedicated 32-bit signal
    buffers contention-free (Sec. V-B5).
    """

    detection_threshold: int = 20
    ack_timeout: int = 400
    signal_min_gap: int = 6
    #: Sec. V-B5 offers two ways to avoid protocol-signal contention
    #: between interposer routers: the static-binding routing property
    #: (the paper's choice, ``False``) or coordinating the interposer
    #: routers of one chiplet so only one popup per VNet is underway in it
    #: (``True``).  The coordination mode trades popup parallelism for
    #: independence from the routing algorithm; the ablation bench
    #: quantifies the cost.
    coordinate_per_chiplet: bool = False

    #: fingerprint namespace; bump when a field changes meaning.
    FINGERPRINT_TAG = "repro.UPPConfig/v1"

    def to_dict(self) -> Dict[str, object]:
        """Canonical plain-dict form (JSON-able, one key per field);
        scalar fields read directly, as :meth:`NocConfig.to_dict` does."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "UPPConfig":
        """Rebuild a validated config from :meth:`to_dict` output."""
        return cls(**dict(payload))

    def fingerprint(self) -> str:
        """Stable content hash; the runner's cache-key ingredient."""
        return stable_fingerprint(self.FINGERPRINT_TAG, self.to_dict())

    def validate(self) -> None:
        """Reject incoherent parameter combinations."""
        if self.detection_threshold < 1:
            raise ValueError("detection threshold must be positive")
        if self.ack_timeout <= self.detection_threshold:
            raise ValueError("ack timeout must exceed the detection threshold")
        if self.signal_min_gap < 1:
            raise ValueError("signal gap must be positive")

    def __post_init__(self) -> None:
        self.validate()
