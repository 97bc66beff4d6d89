"""The one bounded, counted, thread-safe LRU the library's caches share.

Every warm cache in the library — the shared path-cache registry, the
edge-LP structure pool, the API service's topology / solver-context /
result memos and the design engine's measurement memos — is this class
under a different counter prefix.  The lock is held only around
dictionary operations: callers build values outside it, so two misses
on different keys build in parallel, and a raced double-build of the
same key keeps the first-inserted value.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, List, Optional

from .. import obs

__all__ = ["Lru"]


class Lru:
    """A bounded least-recently-used mapping, safe to share across threads.

    ``get`` counts ``<counter_prefix>.hits`` / ``.misses`` and eviction
    counts ``<counter_prefix>.evictions``, both as plain ints (see
    :meth:`stats`) and as :mod:`repro.obs` counters.  ``None`` marks a
    miss, so values must not be ``None``.  Recency is the insertion
    order of a plain ``dict``: a use re-inserts its key at the end.
    """

    def __init__(self, max_entries: int, counter_prefix: str) -> None:
        self.max_entries = int(max_entries)
        self.counter_prefix = counter_prefix
        self._entries: Dict[Hashable, Any] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """The value under ``key`` (now most recent), or ``None``."""
        with self._lock:
            value = self._entries.pop(key, None)
            if value is None:
                self.misses += 1
                obs.add(f"{self.counter_prefix}.misses")
            else:
                self._entries[key] = value
                self.hits += 1
                obs.add(f"{self.counter_prefix}.hits")
            return value

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert and return ``value``; a raced duplicate keeps (and
        returns) the incumbent.  Evicts least-recent entries past the
        bound."""
        with self._lock:
            incumbent = self._entries.pop(key, None)
            if incumbent is not None:
                self._entries[key] = incumbent
                return incumbent
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                del self._entries[next(iter(self._entries))]
                self.evictions += 1
                obs.add(f"{self.counter_prefix}.evictions")
            return value

    def pop(self, key: Hashable) -> Optional[Any]:
        """Remove and return the value under ``key`` (``None`` if absent).

        A check-out: the caller owns the value until it ``put``s it
        back.  Not counted as a hit or miss.
        """
        with self._lock:
            return self._entries.pop(key, None)

    def keys(self) -> List[Hashable]:
        """A snapshot of the keys, least recent first."""
        with self._lock:
            return list(self._entries)

    def values(self) -> List[Any]:
        """A snapshot of the values, least recent first."""
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> int:
        """Drop every entry (counters are kept); returns how many."""
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            return removed

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """JSON-ready occupancy and counters."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
