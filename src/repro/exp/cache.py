"""Content-addressed on-disk result cache for experiment points.

A cache key is the SHA-256 of three ingredients (see :func:`cache_key`):

* the **task spec** — the canonical JSON of the point's full description,
  which embeds the :meth:`NocConfig.fingerprint` /
  :meth:`UPPConfig.fingerprint` content hashes, the topology parameters, the
  scheme name and every window parameter.  The spec's plain ``cfg`` dict
  is hashed without :attr:`NocConfig.NON_SEMANTIC_FIELDS`, so points that
  differ only in the engine that runs them share one entry;
* the **code-version salt** (:data:`CODE_VERSION`) — bumped by hand
  whenever simulator semantics change in a way the configs cannot see;
* the **git revision** of the working tree (``-dirty`` suffixed when the
  checkout has local modifications; ``"unknown"`` outside a git repo).

Because every point builds a fresh seeded network, a key collision-free
hit is guaranteed to reproduce the simulation bit-identically — the cache
trades CPU for disk without changing any result.

Entries are one JSON file each, sharded by key prefix
(``<root>/<key[:2]>/<key>.json``), written atomically (a temp file of the
writer's own + ``os.replace``) so neither a killed campaign nor a second
writer of the same key ever leaves a half-written entry; the temp file a
killed writer leaves behind is collected by :meth:`ResultCache.gc`.
A corrupt or unreadable entry is treated as a miss and deleted, so a
damaged cache heals itself on the next run.
"""

from __future__ import annotations

import json
import os
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Union

from repro.fingerprint import stable_fingerprint
from repro.noc.config import NocConfig
from repro.topology.registry import topology_label

#: manual salt over the simulator's behaviour; bump when a change alters
#: simulation results without touching any config field.
CODE_VERSION = "repro-exp/v2"

_git_rev_cache: Optional[str] = None


def git_revision() -> str:
    """The working tree's revision string, cached per process.

    ``<sha>`` for a clean checkout, ``<sha>-dirty`` when local edits
    exist, ``"unknown"`` when git (or a repository) is unavailable — the
    cache still works there, keyed on config content and code salt alone.
    """
    global _git_rev_cache
    if _git_rev_cache is None:
        _git_rev_cache = _probe_git_revision()
    return _git_rev_cache


def _probe_git_revision() -> str:
    here = Path(__file__).resolve().parent
    try:
        rev = subprocess.run(
            ["git", "-C", str(here), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if rev.returncode != 0:
            return "unknown"
        status = subprocess.run(
            ["git", "-C", str(here), "status", "--porcelain"],
            capture_output=True, text=True, timeout=10,
        )
        dirty = "-dirty" if status.returncode == 0 and status.stdout.strip() else ""
        return rev.stdout.strip() + dirty
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def make_entry(key: str, spec: Mapping, result: object) -> Dict[str, object]:
    """The stored shape of one executed point, shared by every backend."""
    return {
        "key": key,
        "created_unix": int(time.time()),
        "code_version": CODE_VERSION,
        "git_rev": git_revision(),
        "spec": dict(spec),
        "result": result,
    }


def entry_row(entry: Mapping, size: int, mtime: float) -> Dict[str, object]:
    """The common ``entries()`` row shape, shared across backends."""
    spec = entry.get("spec", {})
    return {
        "key": entry.get("key", "?"),
        "created_unix": entry.get("created_unix", 0),
        "mtime_unix": mtime,
        "git_rev": entry.get("git_rev", "unknown"),
        "kind": spec.get("kind", "?"),
        "scheme": spec.get("scheme", "?"),
        "label": spec_summary(spec),
        "bytes": size,
    }


def expired(entry: Mapping, max_age_days: Optional[float], now: float) -> bool:
    """Whether ``entry`` is older than ``max_age_days`` (never when None)."""
    if max_age_days is None:
        return False
    return (now - entry.get("created_unix", 0)) / 86400.0 > max_age_days


def cache_key(spec: Mapping) -> str:
    """The content address of one task spec (config + code identity)."""
    payload = dict(spec)
    cfg = payload.get("cfg")
    if isinstance(cfg, Mapping):
        payload["cfg"] = {
            name: value for name, value in cfg.items()
            if name not in NocConfig.NON_SEMANTIC_FIELDS
        }
    return stable_fingerprint(
        "repro-exp-point/v1",
        {
            "spec": payload,
            "code_version": CODE_VERSION,
            "git_rev": git_revision(),
        },
    )


class ResultCache:
    """On-disk cache mapping :func:`cache_key` -> executed point result."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: ``<root>/`` as a string: an entry's path is one concatenation
        #: away, where a pathlib join costs several object constructions
        self._prefix = os.path.join(str(self.root), "")
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    # ------------------------------------------------------------------ #

    def _file_for(self, key: str) -> str:
        return f"{self._prefix}{key[:2]}/{key}.json"

    def path_for(self, key: str) -> Path:
        return Path(self._file_for(key))

    def get(self, key: str) -> Optional[Dict]:
        """The stored entry for ``key``, or None on miss.

        A corrupt entry (truncated write, bad JSON, wrong key) counts as
        a miss and is deleted so the slot can be refilled.
        """
        path = self._file_for(key)
        try:
            with open(path, "rb") as handle:
                entry = json.loads(handle.read())
            if entry.get("key") != key or "result" not in entry:
                raise ValueError("entry does not match its key")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, OSError):
            self.corrupt += 1
            self.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        return entry

    def put(self, key: str, spec: Mapping, result: object) -> str:
        """Store one executed point atomically; returns the entry's path
        (the string form of :meth:`path_for`)."""
        shard = f"{self._prefix}{key[:2]}"
        os.makedirs(shard, exist_ok=True)
        path = f"{shard}/{key}.json"
        data = json.dumps(make_entry(key, spec, result), sort_keys=True).encode("utf-8")
        # a temp name per writer: two threads (or processes) storing the
        # same key must not rename each other's half-written file
        tmp = f"{shard}/{key}.{os.getpid()}-{threading.get_ident()}.tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------------ #

    def _entry_paths(self, pattern: str = "*.json") -> Iterator[Path]:
        for shard in sorted(self.root.iterdir()) if self.root.is_dir() else ():
            if shard.is_dir():
                yield from sorted(shard.glob(pattern))

    def entries(self) -> List[Dict]:
        """Metadata of every readable entry (corrupt files are skipped)."""
        rows = []
        for path in self._entry_paths():
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    entry = json.load(handle)
            except (ValueError, OSError):
                continue
            entry.setdefault("key", path.stem)
            stat = path.stat()
            rows.append(entry_row(entry, stat.st_size, stat.st_mtime))
        return rows

    def stats(self) -> Dict[str, object]:
        """Hit/miss counters in the common backend-stats shape."""
        return {
            "backend": "dir",
            "root": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
        }

    def gc(
        self, max_age_days: Optional[float] = None, drop_all: bool = False
    ) -> int:
        """Delete entries; returns how many were removed.

        ``drop_all`` clears everything; otherwise only entries older than
        ``max_age_days`` (and unreadable/corrupt files) are removed.
        Either way, temp files whose writer process no longer exists
        (killed between write and rename) go too; a live writer's stay.
        """
        for path in self._entry_paths("*.tmp"):
            writer = path.name.split(".")[1].partition("-")[0]  # <key>.<pid>-<tid>.tmp
            if writer.isdigit() and not _process_exists(int(writer)):
                try:
                    path.unlink()
                except OSError:
                    pass
        now = time.time()
        removed = 0
        for path in list(self._entry_paths()):
            delete = drop_all
            if not delete:
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        entry = json.load(handle)
                    delete = expired(entry, max_age_days, now)
                except (ValueError, OSError):
                    delete = True  # corrupt: always collectable
            if delete:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        # prune empty shards
        for shard in list(self.root.iterdir()):
            if shard.is_dir() and not any(shard.iterdir()):
                shard.rmdir()
        return removed


def _process_exists(pid: int) -> bool:
    """Whether ``pid`` names a process on this host."""
    if os.name != "posix":
        return True  # signal 0 is no probe there: keep what might be live
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # someone else's process
        return True
    return True


def spec_summary(spec: Mapping) -> str:
    """One-line human label for a task spec (progress lines, cache ls)."""
    kind = spec.get("kind", "?")
    topology = spec.get("topology", "?")
    if isinstance(topology, Mapping):
        topology = topology_label(topology)
    if kind == "sweep_point":
        return (
            f"{spec.get('scheme', '?')}/{spec.get('pattern', '?')}"
            f"@{spec.get('rate', '?')} on {topology}"
        )
    if kind == "workload":
        profile = spec.get("profile", {})
        return (
            f"{spec.get('scheme', '?')}/{profile.get('name', '?')} "
            f"on {topology}"
        )
    return kind
