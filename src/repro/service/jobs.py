"""Job records for the sweep service.

A :class:`Job` is one accepted submission (a whole sweep or workload
comparison, not a single point — points are the runner's unit).  Jobs
are plain dataclasses serialised to one JSON file each by
:class:`repro.service.queue.JobQueue`, tagged ``repro-queue-job/v1`` so
a queue directory written by one build is recognisably foreign to
another.

Lifecycle::

    queued -> running -> done
                      -> failed          (deterministic error)
            ^    |
            +----+  requeued (service shutdown / crash recovery)

``fingerprint`` is the single-flight identity: two jobs with the same
fingerprint describe the same computation (same normalised request,
same code revision), so the service executes one and shares the result.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field, fields
from typing import Dict, Optional

#: schema tag stamped on every persisted job file.
QUEUE_JOB_SCHEMA = "repro-queue-job/v1"

#: every state a job can be observed in.
JOB_STATES = ("queued", "running", "done", "failed")

#: the states a job never leaves; also the names of the SSE events that
#: end its stream.
TERMINAL_STATES = ("done", "failed")

#: job kinds the service accepts (the wire paths are the plurals).
JOB_KINDS = ("sweep", "workload")


@dataclass
class Job:
    """One accepted submission and everything observed about it."""

    id: str
    kind: str
    #: the normalised request (defaults filled, names validated).
    request: Dict[str, object]
    #: single-flight identity: sha256 over (kind, request, code identity).
    fingerprint: str
    state: str = "queued"
    submitted_unix: float = 0.0
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    #: execution attempts (crash retries increment this).
    attempts: int = 0
    #: times the job went back to ``queued`` (shutdown / crash recovery).
    requeues: int = 0
    result: Optional[object] = None
    error: Optional[str] = None
    #: queue_wait_s, executed/cached counts, dedup flag, backend counters.
    metrics: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def create(cls, kind: str, request: Dict[str, object], fingerprint: str) -> "Job":
        if kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {kind!r}; kinds: {JOB_KINDS}")
        return cls(
            id=uuid.uuid4().hex[:12],
            kind=kind,
            request=dict(request),
            fingerprint=fingerprint,
            submitted_unix=time.time(),
        )

    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        """The persisted (queue-file) form, schema-tagged.

        Flat: request, result and metrics are referenced, not deep-copied
        as ``dataclasses.asdict`` would (copying them costs more than
        encoding them) — serialise it, do not keep it.
        """
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["schema"] = QUEUE_JOB_SCHEMA
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Job":
        data = dict(data)
        schema = data.pop("schema", None)
        if schema != QUEUE_JOB_SCHEMA:
            raise ValueError(
                f"job file schema {schema!r} is not {QUEUE_JOB_SCHEMA}"
            )
        if data.get("state") not in JOB_STATES:
            raise ValueError(f"job file has unknown state {data.get('state')!r}")
        return cls(**data)

    def public(self) -> Dict[str, object]:
        """The API-response form (`GET /v1/jobs/<id>`); no result body —
        that has its own endpoint so polling stays cheap."""
        return {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "fingerprint": self.fingerprint,
            "request": self.request,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "attempts": self.attempts,
            "requeues": self.requeues,
            "error": self.error,
            "metrics": self.metrics,
        }
