"""Content-addressed on-disk result cache.

Every completed sweep point is stored as one JSON file whose name is
the point's content address (:func:`repro.exp.spec.point_hash`): the
hash covers the experiment name, the full point parameters (seed and
machine configuration included), and the results version.  Re-running
any sweep whose points are already on disk is therefore a pure read —
the near-instant warm path the CLI's ``fig7``/``table1``/``table2``
reruns ride on — and two different sweeps that share points share the
entries.

Layout: ``<root>/<hash[:2]>/<hash>.json``, two-level sharding so no
directory grows unboundedly.  Writes are atomic (temp file + rename),
so a sweep killed mid-write never leaves a torn entry for the resumed
run to trip over.  Entries carry the version stamp; a version mismatch
reads as a miss, which is how invalidation works — nothing is ever
reinterpreted across versions.

The default root is ``$REPRO_EXP_CACHE`` if set, else
``$XDG_CACHE_HOME/repro/exp`` (``~/.cache/repro/exp``).  Pass
``--no-cache`` / ``--refresh`` on the CLI, or :class:`NullCache` /
``refresh=True`` in code, for the escape hatches.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Optional

from ..util import atomic_write_text
from .spec import RESULTS_VERSION


def default_cache_root() -> Path:
    env = os.environ.get("REPRO_EXP_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "exp"


class ResultCache:
    """File-per-entry content-addressed store for point payloads."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.evicted_corrupt = 0

    def _path(self, key: str) -> Path:
        if len(key) < 3 or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed cache key {key!r}")
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Any]:
        """The cached payload for ``key``, or None on miss.

        Torn/corrupt files and version mismatches read as misses; a
        corrupt file is removed so it cannot shadow a future write.
        """
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                stamp = os.fstat(handle.fileno())
                raw = handle.read()
        except (FileNotFoundError, OSError):
            self.misses += 1
            return None
        self.bytes_read += len(raw.encode("utf-8", errors="replace"))
        try:
            entry = json.loads(raw)
        except json.JSONDecodeError:
            self.misses += 1
            self._discard_corrupt(path, stamp)
            return None
        if entry.get("version") != RESULTS_VERSION or "payload" not in entry:
            self.misses += 1
            return None
        self.hits += 1
        return entry["payload"]

    def _discard_corrupt(self, path: Path, stamp: os.stat_result) -> None:
        """Remove a corrupt entry — but only the exact file we read.

        Between our read and this unlink a concurrent ``put`` may have
        renamed a fresh, valid entry into place; unlinking blindly would
        delete that writer's work.  The rename gives the path a new
        inode, so an inode/device comparison distinguishes "still the
        corpse we read" from "already replaced".
        """
        try:
            current = os.stat(path)
        except OSError:
            return
        if (current.st_ino, current.st_dev) == (stamp.st_ino, stamp.st_dev):
            try:
                path.unlink()
                self.evicted_corrupt += 1
            except OSError:
                pass

    def put(self, key: str, payload: Any, *, meta: Optional[dict] = None) -> None:
        """Store a payload atomically (write temp file, then rename)."""
        entry = {"key": key, "version": RESULTS_VERSION, "payload": payload}
        if meta:
            entry["meta"] = meta
        text = json.dumps(entry, sort_keys=True)
        atomic_write_text(self._path(key), text)
        self.writes += 1
        self.bytes_written += len(text.encode("utf-8"))

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("??/*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    # -- observability -------------------------------------------------
    def stats(self) -> dict[str, int]:
        """This process's cumulative traffic counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "evicted_corrupt": self.evicted_corrupt,
        }

    def disk_stats(self) -> dict[str, int]:
        """What is on disk right now (scan; O(entries))."""
        entries = 0
        size = 0
        if self.root.is_dir():
            for path in self.root.glob("??/*.json"):
                try:
                    size += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        return {"entries": entries, "bytes": size}


class NullCache:
    """The ``--no-cache`` cache: never hits, never writes."""

    root = None

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.evicted_corrupt = 0

    def get(self, key: str) -> None:
        self.misses += 1
        return None

    def put(self, key: str, payload: Any, *, meta: Optional[dict] = None) -> None:
        return None

    def __contains__(self, key: str) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def clear(self) -> int:
        return 0

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": 0,
            "bytes_read": 0,
            "bytes_written": 0,
            "evicted_corrupt": 0,
        }

    def disk_stats(self) -> dict[str, int]:
        return {"entries": 0, "bytes": 0}
