"""Runtime support for transpiled kernels.

Generated kernel modules (see :mod:`repro.vm.jit.codegen`) are
self-contained Python source: they import NumPy and the scalar
primitive-operator tables directly, and receive one :class:`JitRuntime`
instance (``R``) carrying what the source must not bake in — the
host program's ``in_place`` mode and the shared ``arange`` cache used by
gather/scatter index vectors — and the two stream partitions: the
interpreter's chunks and the lanes of a ``stream_red``.

:class:`JitFallback` is the generated code's escape hatch: raised at
run time when a pre-resolved trap condition fires (zero divisor,
out-of-bounds gather, ...), it tells
:class:`~repro.vm.jit.engine.JitRunner` to re-run the launch on the
scalar interpreter — which owns the authoritative behaviour, be that a
value or a genuine program error.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ...interp.interpreter import _default_chunks

__all__ = ["JitFallback", "JitRuntime"]


class JitFallback(Exception):
    """Raised by generated code when a launch must degrade to the
    interpreter.  Never escapes to users: the engine catches it and
    re-runs the launch there."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class JitRuntime:
    """The per-engine context passed to every generated kernel."""

    __slots__ = ("in_place", "_aranges", "_lanes")

    def __init__(self) -> None:
        self.in_place = True  # the running host program's
        self._aranges: Dict[int, np.ndarray] = {}
        self._lanes: Dict[int, List[Tuple[int, int, int]]] = {}

    def arange(self, n: int) -> np.ndarray:
        r = self._aranges.get(n)
        if r is None:
            r = self._aranges[n] = np.arange(n)
        return r

    @staticmethod
    def chunks(width: int) -> Iterator[Tuple[int, int]]:
        """``(size, offset)`` pairs partitioning a stream of ``width``
        elements into the interpreter's chunks."""
        offset = 0
        for size in _default_chunks(width):
            yield size, offset
            offset += size

    def lane_groups(self, width: int) -> List[Tuple[int, int, int]]:
        """The lane partition of a ``stream_red`` over ``width >= 1``
        elements, as ``(lanes, size, offset)`` groups of equal-size
        chunks in stream order, each a ``(lanes, size)`` reshape of a
        contiguous run of the stream.  With ``r = ceil(sqrt(width))``:
        one group of ``d`` lanes when a divisor ``d`` of the width lies
        in ``[r, 2r]`` (the least such), so the fold body runs once per
        launch; otherwise ``r`` chunks, the first ``width mod r`` of
        them one element longer — two groups.  A function of the width
        alone (memoised per width): Section 2.1 obliges a
        ``stream_red`` to mean the same under every chunking, so the
        interpreter's (deliberately irregular) policy is not
        consulted."""
        groups = self._lanes.get(width)
        if groups is None:
            lanes = math.isqrt(width - 1) + 1
            d = next(
                (d for d in range(lanes, 2 * lanes + 1) if width % d == 0),
                None,
            )
            if d is not None:
                groups = [(d, width // d, 0)]
            else:  # r does not divide the width: both groups are used
                size, longer = divmod(width, lanes)
                groups = [
                    (longer, size + 1, 0),
                    (lanes - longer, size, longer * (size + 1)),
                ]
            self._lanes[width] = groups
        return groups
