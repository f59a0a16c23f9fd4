"""Crash-safe persistent job queue: one JSON file per job.

Every state transition is persisted with the same atomic
write-temp-then-replace discipline as the result cache, so the on-disk
queue is always a consistent snapshot.  Recovery is therefore trivial:
on startup, any job found in state ``running`` was in flight when the
previous process died — it is put back to ``queued`` (counting a
requeue) and will re-execute.  Re-execution is safe *and cheap*: points
the dead process already finished live in the content-addressed result
cache, so a recovered job replays them and only simulates the tail.

FIFO order is by submission time (then id, for same-tick ties).  A
corrupt job file is renamed aside (``.corrupt``) rather than deleted —
queue entries, unlike cache entries, are not reproducible from their
key.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Union

from repro.service.jobs import Job


class JobQueue:
    """Persistent FIFO of :class:`Job` records rooted at one directory."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._jobs: Dict[str, Job] = {}
        self._pending: Deque[str] = deque()
        #: jobs found mid-flight at startup and requeued (crash recovery).
        self.recovered = 0
        #: unreadable job files renamed aside at startup.
        self.corrupt = 0
        self._load()

    # ------------------------------------------------------------------ #

    def _path(self, job_id: str) -> Path:
        return self.root / f"{job_id}.json"

    def _load(self) -> None:
        loaded: List[Job] = []
        for path in sorted(self.root.glob("*.json")):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    job = Job.from_dict(json.load(handle))
            except (ValueError, TypeError, OSError):
                self.corrupt += 1
                try:
                    path.rename(path.with_suffix(".corrupt"))
                except OSError:
                    pass
                continue
            if job.state == "running":
                # the previous process died with this job in flight
                job.state = "queued"
                job.requeues += 1
                job.started_unix = None
                self.recovered += 1
                self.persist(job)
            loaded.append(job)
        loaded.sort(key=lambda job: (job.submitted_unix, job.id))
        for job in loaded:
            self._jobs[job.id] = job
            if job.state == "queued":
                self._pending.append(job.id)

    # ------------------------------------------------------------------ #

    def persist(self, job: Job) -> None:
        """Write the job's current state atomically."""
        path = self._path(job.id)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            # one string: json.dumps runs the C encoder in one shot,
            # json.dump walks the pure-Python chunk iterator
            handle.write(json.dumps(job.to_dict(), sort_keys=True))
        os.replace(tmp, path)

    def record(self, job: Job) -> Job:
        """Take in one new job (persisted before it is visible) without
        queueing it: for a job that arrives already finished — the
        service's warm path — this one persist is all it ever costs."""
        if job.id in self._jobs:
            raise ValueError(f"duplicate job id {job.id}")
        self.persist(job)
        self._jobs[job.id] = job
        return job

    def submit(self, job: Job) -> Job:
        """Accept one new job and queue it for a worker."""
        self.record(job)
        self._pending.append(job.id)
        return job

    def claim_next(self) -> Optional[Job]:
        """Pop the oldest queued job and mark it running (persisted)."""
        while self._pending:
            job = self._jobs[self._pending.popleft()]
            if job.state != "queued":
                continue
            job.state = "running"
            job.started_unix = time.time()
            self.persist(job)
            return job
        return None

    def requeue(self, job: Job) -> None:
        """Put an in-flight job back at the *front* of the queue
        (graceful shutdown: it was the oldest running work)."""
        job.state = "queued"
        job.requeues += 1
        job.started_unix = None
        self.persist(job)
        self._pending.appendleft(job.id)

    # ------------------------------------------------------------------ #

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every known job, oldest first."""
        return sorted(
            self._jobs.values(), key=lambda job: (job.submitted_unix, job.id)
        )

    def pending(self) -> int:
        return sum(1 for jid in self._pending if self._jobs[jid].state == "queued")
