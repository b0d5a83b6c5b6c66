"""A memo keyed on live objects: the AST is frozen dataclasses over
tuples, so what one program object's content yields holds for its life."""

from __future__ import annotations

import threading
import weakref
from typing import Any, Dict, Hashable, Optional, Tuple


class IdentityMemo:
    """Values keyed on ``(id(obj), tag)``.  An entry holds its object
    weakly, and the reference's callback removes the entry: the memo
    never keeps an object alive and never outgrows the live objects,
    and a hit requires ``ref() is obj``, so a recycled ``id`` is never
    served."""

    def __init__(self) -> None:
        # Re-entrant: a collection inside ``add`` may run a callback on
        # the same thread.
        self._lock = threading.RLock()
        self._entries: Dict[Tuple[int, Hashable], Tuple[weakref.ref, Any]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, obj: object, tag: Hashable = None) -> Optional[Any]:
        held = self._entries.get((id(obj), tag))
        if held is not None and held[0]() is obj:
            return held[1]
        return None

    def add(self, obj: object, value: Any, tag: Hashable = None) -> Any:
        """Remember ``value`` for ``obj``; when another thread got
        there first, its value wins and is returned."""
        key = (id(obj), tag)
        entries, lock = self._entries, self._lock

        def forget(ref: weakref.ref) -> None:
            with lock:
                held = entries.get(key)
                if held is not None and held[0] is ref:
                    del entries[key]

        with lock:
            held = self.get(obj, tag)
            if held is not None:
                return held
            entries[key] = (weakref.ref(obj, forget), value)
            return value
