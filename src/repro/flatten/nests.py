"""Recognition of perfect SOAC nests in flattened code.

After flattening, the parallel bindings of a body are perfect nests:
``map`` levels whose lambda body is either a single nested parallel
SOAC binding or purely sequential code.  The backend lowers these to
kernels; the tests use :func:`perfect_nests` to assert the structure
the paper's Fig. 11 describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core import ast as A

__all__ = ["NestInfo", "nest_of", "perfect_nests", "body_is_sequential"]


@dataclass(frozen=True)
class NestInfo:
    """A perfect nest: ``depth`` map levels, then an inner operation.

    ``inner`` is one of ``"seq"`` (scalar/sequential code), ``"reduce"``
    (a segmented/ordinary reduction), ``"scan"``, ``"stream_red"``, or
    ``"stream_seq"``.
    """

    depth: int
    widths: Tuple[A.Atom, ...]
    inner: str


_PARALLEL = (
    A.MapExp,
    A.ReduceExp,
    A.ScanExp,
    A.StreamMapExp,
    A.StreamRedExp,
    A.StreamSeqExp,
    A.FilterExp,
)


def body_is_sequential(body: A.Body) -> bool:
    """No parallel SOAC bindings at this level or below."""
    for bnd in body.bindings:
        if isinstance(bnd.exp, _PARALLEL):
            return False
        from ..core.traversal import exp_bodies

        for sub in exp_bodies(bnd.exp):
            if not body_is_sequential(sub):
                return False
    return True


def nest_of(e: A.Exp) -> Optional[NestInfo]:
    """The perfect nest rooted at ``e``, or None if ``e`` is not a
    parallel SOAC or the nest is imperfect."""
    widths: List[A.Atom] = []
    cur = e
    while True:
        if isinstance(cur, A.MapExp):
            widths.append(cur.width)
            body = cur.lam.body
            # Perfectly nested: the body is exactly one parallel
            # binding whose results are the lambda's results.
            inner_parallel = [
                bnd for bnd in body.bindings
                if isinstance(bnd.exp, _PARALLEL)
            ]
            if len(inner_parallel) == 1 and len(body.bindings) == 1:
                bnd = body.bindings[0]
                if body.result == tuple(A.Var(p.name) for p in bnd.pat):
                    cur = bnd.exp
                    continue
            # Any remaining SOACs in the body were deliberately left
            # sequential by the flattener (irregular widths, disabled
            # distribution, sequentialised streams): thread-local code.
            return NestInfo(len(widths), tuple(widths), "seq")
        if isinstance(cur, A.ReduceExp):
            widths.append(cur.width)
            return NestInfo(len(widths), tuple(widths), "reduce")
        if isinstance(cur, A.ScanExp):
            widths.append(cur.width)
            return NestInfo(len(widths), tuple(widths), "scan")
        if isinstance(cur, A.StreamRedExp):
            widths.append(cur.width)
            return NestInfo(len(widths), tuple(widths), "stream_red")
        if isinstance(cur, A.StreamSeqExp):
            widths.append(cur.width)
            return NestInfo(len(widths), tuple(widths), "stream_seq")
        if isinstance(cur, A.StreamMapExp):
            widths.append(cur.width)
            return NestInfo(len(widths), tuple(widths), "stream_map")
        if isinstance(cur, A.FilterExp):
            widths.append(cur.width)
            return NestInfo(len(widths), tuple(widths), "filter")
        return None


def perfect_nests(body: A.Body) -> List[Tuple[A.Binding, NestInfo]]:
    """All top-level parallel bindings of ``body`` with their nest
    shape (recursing into top-level sequential loops and ifs, which the
    flattener leaves in place)."""
    out: List[Tuple[A.Binding, NestInfo]] = []
    for bnd in body.bindings:
        info = nest_of(bnd.exp)
        if info is not None:
            out.append((bnd, info))
        elif isinstance(bnd.exp, (A.LoopExp, A.IfExp)):
            from ..core.traversal import exp_bodies

            for sub in exp_bodies(bnd.exp):
                out.extend(perfect_nests(sub))
    return out
