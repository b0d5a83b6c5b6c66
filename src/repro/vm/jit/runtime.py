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

    __slots__ = ("in_place", "_aranges")

    def __init__(self) -> None:
        self.in_place = True  # the running host program's
        self._aranges: Dict[int, np.ndarray] = {}

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

    @staticmethod
    def lane_groups(width: int) -> List[Tuple[int, int, int]]:
        """The lane partition of a ``stream_red`` over ``width >= 1``
        elements: ``ceil(sqrt(width))`` chunks in stream order, each
        folded on its own lane, the first ``width mod lanes`` of them
        one element longer — so at most two ``(lanes, size, offset)``
        groups of equal-size chunks, each a ``(lanes, size)`` reshape
        of a contiguous run of the stream.  A function of the width
        alone: Section 2.1 obliges a ``stream_red`` to mean the same
        under every chunking, so the interpreter's (deliberately
        irregular) policy is not consulted."""
        lanes = math.isqrt(width - 1) + 1
        size, longer = divmod(width, lanes)
        groups = [
            (longer, size + 1, 0),
            (lanes - longer, size, longer * (size + 1)),
        ]
        return [g for g in groups if g[0]]
