"""The static value domain of the kernel transpiler, its lexical
scopes and its line emitter."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ....core.prim import PrimType


class JitUnsupported(Exception):
    """The kernel (at this signature) is outside the transpilable
    subset; the engine routes it to the interpreter permanently."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Static value descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JVal:
    """A value as the generated code holds it.

    ``kind`` is ``"S"`` (a Python scalar), ``"A"`` (a uniform ndarray)
    or ``"B"`` (a batched ndarray of shape ``(B, *per_thread)``);
    ``rank`` is the array rank (per-thread rank for ``B``); ``var`` is
    the Python expression — almost always a local name — holding the
    value; ``owned`` is True only when the buffer was provably
    allocated by this kernel evaluation and may be mutated in place.

    ``lanes`` is set on a batched array that an inner map captured
    only to index it (:func:`.maps.expand_captures`): ``var`` is still
    the array at the enclosing batch's width, and ``lanes`` the local
    holding, per lane of the extended batch, the row of it that lane
    reads.  Only :func:`.arrays.gather` ever meets one."""

    kind: str
    elem: PrimType
    rank: int
    var: str
    owned: bool = False
    lanes: str = ""

    @property
    def ndim(self) -> int:
        """The ndim of the underlying ndarray (B carries the batch axis)."""
        return self.rank + (1 if self.kind == "B" else 0)


#: A kind descriptor used for control-flow joins: (kind, elem, rank, owned).
KD = Tuple[str, PrimType, int, bool]


def _kd(v: JVal) -> KD:
    return (v.kind, v.elem, v.rank, v.owned)


def _join_kd(a: KD, b: KD) -> KD:
    ak, ae, ar, ao = a
    bk, be, br, bo = b
    if ae is not be:
        raise JitUnsupported(
            f"control-flow join of element types {ae} and {be}"
        )
    owned = ao and bo
    if ak == bk:
        if ar != br:
            raise JitUnsupported("control-flow join of different ranks")
        return (ak, ae, ar, owned)
    kinds = {ak, bk}
    if kinds == {"S", "B"}:
        if ar or br:
            raise JitUnsupported("control-flow join of different ranks")
        # The scalar is coerced into a lane vector it allocates.
        return ("B", ae, 0, bo if ak == "S" else ao)
    if kinds == {"A", "B"}:
        if ar != br:
            raise JitUnsupported("control-flow join of different ranks")
        # The uniform side reaches an owned joined local as a copy of
        # its broadcast (``control.owned_as``), never the read-only view.
        return ("B", ae, ar, owned)
    raise JitUnsupported(f"control-flow join of kinds {ak} and {bk}")


def _jvals(kds: Sequence[KD], names: Sequence[str]) -> List[JVal]:
    """The values of kinds ``kds`` held in the locals ``names``."""
    return [JVal(k, el, r, n, ow) for (k, el, r, ow), n in zip(kds, names)]


class _Scope:
    """Lexical IR-name -> JVal bindings, and the runtime facts
    established in the block the scope is emitted as.

    ``barrier`` marks a batch-expansion boundary (entering a map
    lambda): batched values must not be read across it — the
    transpiler expands them eagerly (``np.repeat``) at the boundary
    instead.

    ``ranges`` maps the local holding a batched index to the two
    locals holding its smallest and largest entry
    (:func:`.arrays.index_range`).  A fact is visible to every child
    of the scope that computed it and to nothing else, so it never
    outlives the block whose code computes it — every rule that emits
    into a nested block or a buffer it may discard gives that code a
    child scope."""

    __slots__ = ("parent", "vars", "barrier", "ranges")

    def __init__(self, parent: Optional["_Scope"] = None, barrier: bool = False):
        self.parent = parent
        self.vars: Dict[str, JVal] = {}
        self.barrier = barrier
        self.ranges: Dict[str, Tuple[str, str]] = {}

    def child(self, barrier: bool = False) -> "_Scope":
        return _Scope(self, barrier)

    def bind(self, name: str, v: JVal) -> None:
        self.vars[name] = v

    def range_of(self, var: str) -> Optional[Tuple[str, str]]:
        s: Optional[_Scope] = self
        while s is not None:
            fact = s.ranges.get(var)
            if fact is not None:
                return fact
            s = s.parent
        return None

    def maybe(self, name: str) -> Optional[JVal]:
        s: Optional[_Scope] = self
        crossed = False
        while s is not None:
            v = s.vars.get(name)
            if v is not None:
                if crossed and v.kind == "B":
                    raise JitUnsupported(
                        f"batched value {name} crosses a map boundary "
                        "without expansion"
                    )
                return v
            crossed = crossed or s.barrier
            s = s.parent
        return None

    def lookup(self, name: str) -> JVal:
        v = self.maybe(name)
        if v is None:
            raise JitUnsupported(f"unbound variable {name}")
        return v

    def has(self, name: str) -> bool:
        s: Optional[_Scope] = self
        while s is not None:
            if name in s.vars:
                return True
            s = s.parent
        return False


class _Emitter:
    """An indentation-aware line buffer."""

    __slots__ = ("lines", "indent")

    def __init__(self) -> None:
        self.lines: List[Tuple[int, str]] = []
        self.indent = 0

    def emit(self, text: str) -> None:
        self.lines.append((self.indent, text))

    def __enter__(self) -> None:
        """``with emitter:`` indents what is emitted inside by one
        level."""
        self.indent += 1

    def __exit__(self, *exc) -> None:
        self.indent -= 1

    def splice(self, other: "_Emitter") -> None:
        base = self.indent
        self.lines.extend((base + i, t) for i, t in other.lines)

    def render(self, base: int) -> List[str]:
        return ["    " * (base + i) + t for i, t in self.lines]
