"""The kernel intermediate representation.

A lowered program is a *host program*: a sequence of host statements —
kernel launches, host-side scalar evaluation, sequential host loops and
branches, device-memory allocation and release, and layout
manifestations (transpositions) — over device-resident arrays.  Each
kernel retains the core-IR expression it computes (used both to execute
it for correctness and to cost it), plus the metadata the cost model
needs: grid, per-thread work, and the classified global-memory accesses
of Section 5.2.

Memory is explicit: every device-resident array is backed by a
:class:`MemBlock` (element size, symbolic element count), brought live
by an :class:`AllocStmt` and released by a :class:`FreeStmt`.  A block
has no layout: the coalescing pass records each layout decision once,
on the kernel that expects it (:attr:`Kernel.layouts`) or on the
transposition that makes it (:attr:`ManifestStmt.layout`).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from typing import (
    Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

from ..core import ast as A
from ..core.types import Array, Dim
from ..memory.index_fn import IndexFn

__all__ = [
    "Count",
    "AccessInfo",
    "TileInfo",
    "Kernel",
    "MemBlock",
    "AllocStmt",
    "FreeStmt",
    "LaunchStmt",
    "HostEval",
    "HostLoopStmt",
    "HostIfStmt",
    "ManifestStmt",
    "HostStmt",
    "HostProgram",
]


@dataclass(frozen=True)
class Count:
    """A symbolic count: a polynomial ``Σ coeff * Π dims`` in the
    program's size variables."""

    terms: Tuple[Tuple[float, Tuple[str, ...]], ...] = ()

    @staticmethod
    def of(value: float = 1.0, *dims: Dim) -> "Count":
        coeff = float(value)
        names: List[str] = []
        for d in dims:
            if isinstance(d, int):
                coeff *= d
            else:
                names.append(d)
        return Count(((coeff, tuple(sorted(names))),))

    @staticmethod
    def zero() -> "Count":
        return Count(())

    def __add__(self, other: "Count") -> "Count":
        acc: Dict[Tuple[str, ...], float] = {}
        for coeff, dims in self.terms + other.terms:
            acc[dims] = acc.get(dims, 0.0) + coeff
        return Count(tuple((c, d) for d, c in sorted(acc.items())))

    def scaled(self, factor: float = 1.0, *dims: Dim) -> "Count":
        coeff = float(factor)
        names: List[str] = []
        for d in dims:
            if isinstance(d, int):
                coeff *= d
            else:
                names.append(d)
        return Count(
            tuple(
                (c * coeff, tuple(sorted(ds + tuple(names))))
                for c, ds in self.terms
            )
        )

    def evaluate(self, env: Mapping[str, int]) -> float:
        total = 0.0
        for coeff, dims in self.terms:
            value = coeff
            for d in dims:
                value *= env.get(d, 1)
            total += value
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for coeff, dims in self.terms:
            s = f"{coeff:g}"
            if dims:
                s += "*" + "*".join(dims)
            parts.append(s)
        return " + ".join(parts)


@dataclass
class AccessInfo:
    """One classified global-memory access stream of a kernel.

    ``thread_dims`` — how many leading grid dimensions index the array;
    ``seq_rank`` — trailing dimensions traversed sequentially inside
    the thread; ``trips`` — accesses *per thread* (symbolic);
    ``gather`` — data-dependent indexing (never coalescible);
    ``invariant`` — the access does not depend on the thread at all
    (a broadcast, and a tiling candidate).
    """

    array: str
    elem_bytes: int
    trips: Count
    thread_dims: int = 0
    seq_rank: int = 0
    gather: bool = False
    invariant: bool = False
    is_write: bool = False

    def coalesced_under(self, layout: IndexFn, grid_rank: int) -> bool:
        """Whether consecutive threads touch consecutive elements.

        With the innermost grid dimension giving consecutive thread
        ids, the access is coalesced when the last thread dimension is
        the physically innermost dimension of the array.
        """
        if self.gather:
            return False
        if self.invariant or self.thread_dims == 0:
            return True  # broadcast: one transaction serves the warp
        if self.seq_rank == 0:
            # Direct element access: a[t1, ..., tk].
            return layout.innermost_logical_dim() == self.thread_dims - 1
        # a[t1, ..., tk, s...]: coalesced iff some sequential dim is
        # NOT innermost — i.e. the innermost physical dim is a thread
        # dim (the transposition trick of Section 5.2).
        return layout.innermost_logical_dim() < self.thread_dims


@dataclass
class TileInfo:
    """A block-tiling opportunity: the array is streamed sequentially
    by every thread and is invariant to ``invariant_dims`` of the grid,
    so a thread block can stage it through local memory."""

    array: str
    elem_bytes: int
    two_d: bool = False


@dataclass
class Kernel:
    """One GPU kernel: a perfect nest lowered from core IR."""

    name: str
    kind: str  # map | segreduce | reduce | segscan | scan | stream_red | scatter | builtin
    grid: Tuple[A.Atom, ...]
    seg_width: Optional[A.Atom]
    exp: A.Exp
    pat: Tuple[A.Param, ...]
    accesses: List[AccessInfo] = field(default_factory=list)
    flops_per_thread: Count = field(default_factory=Count.zero)
    #: Where a tile could go (filled in by lowering).
    tile_candidates: List[TileInfo] = field(default_factory=list)
    #: The arrays staged through local memory (filled in by the tiling
    #: pass from ``tile_candidates``: the only record a price reads).
    tiles: List[TileInfo] = field(default_factory=list)
    #: Arrays whose accesses this kernel expects in a specific layout
    #: (filled in by the coalescing pass: the only record of a layout).
    layouts: Dict[str, IndexFn] = field(default_factory=dict)

    def grid_dims(self) -> Tuple[Dim, ...]:
        out: List[Dim] = []
        for a in self.grid:
            out.append(int(a.value) if isinstance(a, A.Const) else a.name)
        return tuple(out)

    def threads(self) -> Count:
        return Count.of(1.0, *self.grid_dims())

    @cached_property
    def size_names(self) -> Tuple[str, ...]:
        """The size variables this kernel's price depends on: every
        name in its grid, flop and access ``Count``s and in the shapes
        of its outputs.  ``kernel_cost`` reads no other entry of the
        size environment."""
        counts = [self.threads(), self.flops_per_thread]
        counts += [acc.trips for acc in self.accesses]
        names = {d for c in counts for _, dims in c.terms for d in dims}
        for p in self.pat:
            if isinstance(p.type, Array):
                names.update(d for d in p.type.shape if isinstance(d, str))
        return tuple(sorted(names))


@dataclass
class MemBlock:
    """A device-memory block backing one array.

    ``elems`` is symbolic (a :class:`Count` over the program's size
    variables) so footprints can be priced without running the program.
    ``space`` distinguishes blocks the program must allocate
    (``device``) from blocks backing entry-point parameters
    (``param``).
    """

    name: str
    elem_bytes: int
    elems: Count
    shape: Tuple[Dim, ...] = ()
    space: str = "device"  # device | param

    def size_bytes(self, env: Mapping[str, int]) -> int:
        return int(self.elems.evaluate(env)) * self.elem_bytes


@dataclass
class AllocStmt:
    """Bring ``block`` live on the device.  When the memory planner
    recycles a dead block of the same extent, ``reuse_of`` records the
    donor's name (the heap then charges no new bytes).  ``recycle``
    marks a loop-body allocation whose previous generation is provably
    dead at re-execution (a carried result consumed by the iteration's
    double-buffer copy): the heap releases the old generation instead
    of leaking it."""

    block: MemBlock
    reuse_of: Optional[str] = None
    recycle: bool = False


@dataclass
class FreeStmt:
    """Release a block; inserted by the memory planner at last use."""

    block: str


@dataclass
class LaunchStmt:
    kernel: Kernel
    #: Set by the memory planner when this launch is a ``copy`` whose
    #: source dies here: the copy is elided and the destination aliases
    #: the named source block instead.
    elide_copy: Optional[str] = None


@dataclass
class HostEval:
    """Host-side evaluation of a (cheap) core-IR binding: scalar code,
    allocations like iota/replicate lowered as builtin kernels are
    separate; anything evaluated here costs (almost) nothing."""

    binding: A.Binding


@dataclass
class HostLoopStmt:
    merge: Tuple[Tuple[A.Param, A.Atom], ...]
    form: A.LoopForm
    body: List["HostStmt"]
    body_result: Tuple[A.Atom, ...]
    pat: Tuple[A.Param, ...]
    #: Arrays double-buffered by copy between iterations (a Futhark
    #: overhead the paper calls out for HotSpot); filled by codegen.
    double_buffered: List[str] = field(default_factory=list)


@dataclass
class HostIfStmt:
    cond: A.Atom
    then_body: List["HostStmt"]
    then_result: Tuple[A.Atom, ...]
    else_body: List["HostStmt"]
    else_result: Tuple[A.Atom, ...]
    pat: Tuple[A.Param, ...]


@dataclass
class ManifestStmt:
    """Materialise ``src`` with a new physical layout into ``dst`` —
    the transposition the coalescing pass inserts."""

    src: str
    dst: str
    layout: IndexFn
    elem_bytes: int
    elems: Count
    #: The block materialised into (filled by the coalescing pass once
    #: blocks exist; rendered and honoured by the heap).
    block: Optional[MemBlock] = None


HostStmt = Union[
    LaunchStmt,
    HostEval,
    HostLoopStmt,
    HostIfStmt,
    ManifestStmt,
    AllocStmt,
    FreeStmt,
]


def _process_state(hp: "HostProgram"):
    """The process-state fields of a host program: exactly the ones
    declared ``compare=False``."""
    return [f for f in fields(hp) if not f.compare]


@dataclass
class HostProgram:
    """A fully lowered entry point."""

    name: str
    params: Tuple[A.Param, ...]
    stmts: List[HostStmt]
    result: Tuple[A.Atom, ...]
    #: Every device-memory block of the program, by name — parameters,
    #: kernel outputs and manifestation targets alike.
    blocks: Dict[str, MemBlock] = field(default_factory=dict)
    #: Logical shape of every array (symbolic dims), for sizing
    #: manifestation traffic.
    array_shapes: Dict[str, Tuple[Dim, ...]] = field(default_factory=dict)
    #: Perform uniqueness-checked updates by mutation (§3): lowering
    #: sets it from ``CompilerOptions.in_place``.
    in_place: bool = True
    # -- process state ------------------------------------------------------
    # What executors, the device pool and the compile pipeline remember
    # about this program while the process lives.  Not part of the
    # program: never compared, never persisted (``__getstate__`` drops
    # them, ``__setstate__`` recreates them empty).  The memos are bounded
    # (``costmodel.memo_insert``) and hold pure values: a lost update
    # costs a recomputation, never a different answer.
    #: The simulator's launch-price memo: ``device -> (kernel name,
    #: values of Kernel.size_names) -> KernelCost``.
    launch_costs: Dict[tuple, Dict[tuple, Any]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: The request-price memo (:func:`repro.gpu.costmodel.
    #: request_price_us`): ``(device, entry sizes) -> estimate_program
    #: (...).total_us``, shared by admission and placement.
    price_cache: Dict[tuple, Any] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: The device pool's placement memo (:meth:`repro.sched.pool.
    #: DevicePool.run`): ``(placer, planner, sizes, batch, candidate
    #: states) -> the placer's verdict``.  Exact, not a heuristic: the
    #: placer reads prices and pool state only, and the key holds both.
    placements: Dict[tuple, Any] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: The ``source`` and ``host`` fingerprints of the clean compile
    #: that produced this program (empty otherwise), and the artifact
    #: cache it went through: the jit engine persists generated source
    #: under the ``host`` fingerprint.
    stage_fingerprints: Dict[str, str] = field(
        default_factory=dict, repr=False, compare=False
    )
    artifact_cache: Any = field(default=None, repr=False, compare=False)
    #: The program's generated code, a
    #: :class:`~repro.vm.jit.JitProgramCache` (built and attached by
    #: ``jit_cache_for`` on the first run under either executor).
    jit_cache: Any = field(default=None, repr=False, compare=False)

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        for f in _process_state(self):
            del state[f.name]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        for f in _process_state(self):
            setattr(
                self,
                f.name,
                f.default if f.default_factory is MISSING
                else f.default_factory(),
            )

    def kernels(self) -> List[Kernel]:
        out: List[Kernel] = []

        def walk(stmts: Sequence[HostStmt]) -> None:
            for s in stmts:
                if isinstance(s, LaunchStmt):
                    out.append(s.kernel)
                elif isinstance(s, HostLoopStmt):
                    walk(s.body)
                elif isinstance(s, HostIfStmt):
                    walk(s.then_body)
                    walk(s.else_body)

        walk(self.stmts)
        return out
