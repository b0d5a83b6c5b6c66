"""The compile cache: single-flight deduplication with negative TTL.

N concurrent requests for the same source must compile *once*: the
first caller becomes the leader and runs the build, the rest block on
the in-flight entry and share its result.  A failed compile is cached
*negatively* for ``negative_ttl_s`` so a popular-but-broken program
cannot trigger a compile retry storm — every caller inside the window
gets the same typed error instantly, and the first caller after expiry
retries the build.  Only an ``Exception`` is cached: an interrupt
(``KeyboardInterrupt``, ``SystemExit``) drops the entry instead.

Successful entries never expire (a compile is deterministic in its
key, the host fingerprint: program content, entry point, the enabled
passes and the options they read — see
:func:`repro.pipeline.compile_cache_key`).

This cache is the *in-memory, per-process* layer of a two-level
scheme keyed on that one identity: when the server is given a
persistent :class:`repro.pipeline.ArtifactCache`, the build function
it deduplicates compiles *through* the on-disk host artifact of the
same name, so a cache-miss compile in a warm-started process loads the
finished host program from disk instead of rerunning the pass
pipeline.  The
layering keeps concerns separate — single-flight and negative TTL
here, fingerprint-verified persistence there.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional

__all__ = ["CompileCache", "CacheStats"]

#: The value of an entry whose build was interrupted (not failed).
_ABANDONED = object()


def _replay(error: BaseException) -> BaseException:
    """A fresh exception object for one caller's raise.

    The cached instance is shared by every thread that hits a negative
    entry; raising it directly would let concurrent raises race on its
    mutable ``__traceback__`` (and on attributes callers attach, e.g.
    ``error.report``).  Clone it per raise — bypassing ``__init__``,
    whose signature need not round-trip through ``args`` — and chain
    the original as ``__cause__`` so the first failure stays visible.
    """
    cls = type(error)
    try:
        clone = cls.__new__(cls)
        clone.__dict__.update(error.__dict__)
        clone.args = error.args
    except Exception:  # pragma: no cover - exotic __new__ signatures
        return error
    clone.__traceback__ = None
    clone.__cause__ = error
    return clone


class _Entry:
    __slots__ = ("event", "value", "error", "expires_at")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None
        #: None = never expires; set for negative (failure) entries.
        self.expires_at: Optional[float] = None


class CacheStats:
    """Lifetime accounting, surfaced through ``Server.health()``."""

    __slots__ = ("hits", "misses", "waits", "negative_hits", "expirations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        #: Callers that blocked on someone else's in-flight build.
        self.waits = 0
        #: Callers served a cached *failure*.
        self.negative_hits = 0
        self.expirations = 0

    def snapshot(self) -> Dict[str, int]:
        return {s: getattr(self, s) for s in self.__slots__}


class CompileCache:
    """Keyed, thread-safe, single-flight memoisation of compiles."""

    def __init__(
        self,
        negative_ttl_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.negative_ttl_s = negative_ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: Dict[str, _Entry] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def peek(self, key: str) -> Optional[Any]:
        """The cached value if one is ready (never blocks, never
        builds; None for missing, in-flight, or failed entries)."""
        with self._lock:
            e = self._entries.get(key)
            if e is None or not e.event.is_set() or e.error is not None:
                return None
            return e.value

    def note_hit(self) -> None:
        """Count a hit its caller served without a lookup (a server's
        resident program), so ``stats`` still counts every request
        that found its program compiled."""
        with self._lock:
            self.stats.hits += 1

    def get_or_compile(self, key: str, build: Callable[[], Any]) -> Any:
        """Return the cached result for ``key``, building it (once,
        globally) if absent.  Every caller inside the negative-TTL
        window gets a per-caller clone of the leader's exception (with
        the original chained as ``__cause__``)."""
        while True:
            leader = False
            with self._lock:
                e = self._entries.get(key)
                if e is not None and self._expired_locked(e):
                    del self._entries[key]
                    self.stats.expirations += 1
                    e = None
                if e is None:
                    e = self._entries[key] = _Entry()
                    leader = True
                    self.stats.misses += 1
                elif e.event.is_set():
                    if e.error is not None:
                        self.stats.negative_hits += 1
                    else:
                        self.stats.hits += 1
                else:
                    self.stats.waits += 1
            if leader:
                return self._build_locked_entry(key, e, build)
            e.event.wait()
            # Waiters (and negative hitters) serve whatever the leader
            # produced; an expired negative entry is evicted by the
            # next *lookup*, whose caller then becomes the new leader.
            if e.error is not None:
                raise _replay(e.error)
            if e.value is not _ABANDONED:
                return e.value
            # The leader was interrupted: the next pass leads.

    def _build_locked_entry(
        self, key: str, e: _Entry, build: Callable[[], Any]
    ) -> Any:
        try:
            value = build()
        except BaseException as ex:
            with self._lock:
                if isinstance(ex, Exception):
                    e.error = ex
                    e.expires_at = self._clock() + self.negative_ttl_s
                else:
                    e.value = _ABANDONED
                    if self._entries.get(key) is e:
                        del self._entries[key]
            e.event.set()
            raise
        else:
            with self._lock:
                e.value = value
            e.event.set()
            return value

    def _expired_locked(self, e: _Entry) -> bool:
        return (
            e.expires_at is not None
            and e.event.is_set()
            and self._clock() >= e.expires_at
        )

    def invalidate(self, key: Optional[str] = None) -> None:
        """Drop one entry (or all of them) — test/operations hook."""
        with self._lock:
            if key is None:
                self._entries.clear()
            else:
                self._entries.pop(key, None)
