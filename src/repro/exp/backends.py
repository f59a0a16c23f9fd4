"""Pluggable cache backends behind one protocol.

:class:`CacheBackend` is the contract the experiment runner and the
sweep service speak — they never touch a directory path directly, only
an object with ``get``/``put``/``entries``/``gc``/``stats`` keyed by the
existing sha256 spec fingerprints (:func:`repro.exp.cache.cache_key`).
Three implementations ship:

* the **sharded-dir backend** — :class:`repro.exp.cache.ResultCache`,
  unchanged on disk (one atomic JSON file per entry, sharded by key
  prefix);
* :class:`MemoryBackend` — a process-local dict, for tests and as the
  in-process L2 that stands in for an S3/redis tier: same keying, same
  entry shape;
* :class:`TieredBackend` — a local L1 over a remote-style L2.  Reads
  probe L1 first; an L2 hit *fills* L1 on the way back; writes go
  through to both tiers.  Hit/miss/fill counters make the flow
  observable (``GET /v1/stats`` on the service surfaces them), and an
  actual S3/redis L2 later only has to implement the protocol.

Every backend's :meth:`~CacheBackend.stats` returns a flat JSON-able
dict; tiered stats nest the per-tier dicts under ``"l1"``/``"l2"``.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Mapping, Optional, Protocol, runtime_checkable

from repro.exp.cache import entry_row, expired, make_entry


@runtime_checkable
class CacheBackend(Protocol):
    """What the runner and service require of a result cache.

    Keys are :func:`repro.exp.cache.cache_key` sha256 fingerprints; an
    entry is a JSON-able mapping with at least ``key``, ``spec`` and
    ``result`` members (see :func:`repro.exp.cache.make_entry`).
    """

    def get(self, key: str) -> Optional[Dict]:
        """The stored entry for ``key``, or None on miss."""
        ...

    def put(self, key: str, spec: Mapping, result: object) -> object:
        """Store one executed point; idempotent per key."""
        ...

    def entries(self) -> List[Dict]:
        """Metadata rows for every readable entry."""
        ...

    def gc(self, max_age_days: Optional[float] = None, drop_all: bool = False) -> int:
        """Delete entries; returns how many were removed."""
        ...

    def stats(self) -> Dict[str, object]:
        """JSON-able hit/miss (and backend-specific) counters."""
        ...


def _json_copy(value):
    """An independent copy with the on-disk backend's JSON semantics
    (tuples come back as lists)."""
    return json.loads(json.dumps(value, sort_keys=True))


class MemoryBackend:
    """A process-local in-memory backend (tests, and the remote stub base).

    Entries share the on-disk shape, so a result can be copied between
    tiers verbatim.  Like :class:`~repro.exp.cache.ResultCache`, ``put``
    stores and ``get`` returns JSON copies: editing a returned result
    never edits the cache.  ``bytes`` in :meth:`entries` is the
    JSON-encoded size — the number an S3-style tier would bill for.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, Dict] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional[Dict]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return _json_copy(entry)

    def put(self, key: str, spec: Mapping, result: object) -> str:
        self._entries[key] = _json_copy(make_entry(key, spec, result))
        return key

    def entries(self) -> List[Dict]:
        return [
            entry_row(entry, len(json.dumps(entry, sort_keys=True)),
                      entry.get("created_unix", 0))
            for _, entry in sorted(self._entries.items())
        ]

    def gc(self, max_age_days: Optional[float] = None, drop_all: bool = False) -> int:
        now = time.time()
        doomed = [
            key for key, entry in self._entries.items()
            if drop_all or expired(entry, max_age_days, now)
        ]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def stats(self) -> Dict[str, object]:
        return {
            "backend": "memory",
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
        }


class TieredBackend:
    """A local L1 over a remote-style L2, write-through with read fill.

    * ``get`` — probe L1; on miss probe L2 and, on an L2 hit, **fill**
      L1 so the next read is local;
    * ``put`` — write through to both tiers (the remote tier is the
      shared one: a result simulated here must be visible to every
      other worker fronting the same L2);
    * counters — ``l1_hits`` / ``l2_hits`` / ``fills`` / ``misses``.
    """

    def __init__(self, l1: CacheBackend, l2: CacheBackend) -> None:
        self.l1 = l1
        self.l2 = l2
        self.l1_hits = 0
        self.l2_hits = 0
        self.fills = 0
        self.misses = 0

    def get(self, key: str) -> Optional[Dict]:
        entry = self.l1.get(key)
        if entry is not None:
            self.l1_hits += 1
            return entry
        entry = self.l2.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.l2_hits += 1
        self.l1.put(key, entry.get("spec", {}), entry.get("result"))
        self.fills += 1
        return entry

    def put(self, key: str, spec: Mapping, result: object) -> object:
        path = self.l1.put(key, spec, result)
        self.l2.put(key, spec, result)
        return path

    def entries(self) -> List[Dict]:
        rows = self.l1.entries()
        seen = {row["key"] for row in rows}
        rows.extend(row for row in self.l2.entries() if row["key"] not in seen)
        return rows

    def gc(self, max_age_days: Optional[float] = None, drop_all: bool = False) -> int:
        return (self.l1.gc(max_age_days, drop_all)
                + self.l2.gc(max_age_days, drop_all))

    def stats(self) -> Dict[str, object]:
        return {
            "backend": "tiered",
            "l1_hits": self.l1_hits,
            "l2_hits": self.l2_hits,
            "fills": self.fills,
            "misses": self.misses,
            "l1": self.l1.stats(),
            "l2": self.l2.stats(),
        }
