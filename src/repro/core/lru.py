"""Bounded LRU mapping for the framework's memo structures.

:class:`repro.core.framework.NdftFramework` keeps two: the pipeline
cache and the entry store (keyed by content-addressed job signatures).
A service facing adversarial problem variety would otherwise grow them
without bound.  ``LruCache`` is a small
insertion-ordered mapping with least-recently-used eviction and
hit/miss/eviction counters: eviction is purely a capacity decision — an
evicted entry is re-derived on the next miss with an identical value,
so results never change (the framework's tests assert exactly that).
The framework validates its ``cache_size`` before it builds these, so
a bad bound surfaces there as a :class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

from typing import Any, Hashable


class LruCache:
    """A dict with LRU eviction and telemetry counters.

    ``maxsize=None`` means unbounded (never evicts).  Recency is updated
    on every :meth:`get` hit and :meth:`put`, so the evicted key is the
    one untouched for longest.  Counters (``hits``/``misses``/
    ``evictions``) survive :meth:`clear` — the framework drops cache
    *contents* on registry changes but keeps its telemetry.
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_data")

    def __init__(self, maxsize: int | None = None):
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # dicts preserve insertion order; move-to-end on hit makes the
        # leftmost key the LRU victim.
        self._data: dict[Hashable, Any] = {}

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Counted lookup: bumps hits/misses and refreshes recency."""
        try:
            value = self._data.pop(key)
        except KeyError:
            self.misses += 1
            return default
        self._data[key] = value  # re-insert at the MRU end
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self._data.pop(key, None)
        self._data[key] = value
        if self.maxsize is not None and len(self._data) > self.maxsize:
            victim = next(iter(self._data))
            del self._data[victim]
            self.evictions += 1

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Uncounted lookup that does not touch recency or counters."""
        return self._data.get(key, default)

    def items(self) -> list[tuple[Hashable, Any]]:
        """Every (key, value) pair in LRU-to-MRU order, without touching
        recency or counters — what cache snapshots persist."""
        return list(self._data.items())

    def clear(self) -> None:
        """Drop every entry; counters are preserved."""
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LruCache):
            return self._data == other._data
        if isinstance(other, dict):
            return self._data == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LruCache(maxsize={self.maxsize}, len={len(self._data)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
