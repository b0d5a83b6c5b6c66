"""Lowering: flattened core IR → host program + kernels.

Perfect nests become kernels (map, segmented/plain reduce and scan,
stream_red); top-level sequential loops and branches become host
control flow; data-parallel builtins (replicate, iota, copy, concat)
become builtin kernels; ``rearrange`` becomes a zero-cost layout view
(the paper's delayed representation), manifested only if the
coalescing pass decides to.

Each kernel is annotated with the classified memory-access streams and
per-thread flop counts that the GPU cost model consumes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..checker.uniqueness import body_directly_consumes
from ..core import ast as A
from ..core.types import Array, Dim, Prim, Type
from ..core.traversal import exp_atoms
from ..flatten.nests import NestInfo, nest_of
from .kernel_ir import (
    AccessInfo,
    AllocStmt,
    Count,
    HostEval,
    HostIfStmt,
    HostLoopStmt,
    HostProgram,
    Kernel,
    LaunchStmt,
    MemBlock,
    TileInfo,
)

__all__ = ["lower_program", "lower_body"]

_BUILTIN_PARALLEL = (
    A.ReplicateExp,
    A.IotaExp,
    A.CopyExp,
    A.ConcatExp,
    A.ScatterExp,
)


def lower_program(
    prog: A.Prog, fname: str = "main", in_place: bool = True
) -> HostProgram:
    fun = prog.fun(fname)
    type_env: Dict[str, Type] = {p.name: p.type for p in fun.params}
    counter = [0]
    stmts = _lower_body(fun.body, type_env, counter)
    hp = HostProgram(
        name=fun.name,
        params=fun.params,
        stmts=stmts,
        result=fun.body.result,
        in_place=in_place,
    )
    for p in fun.params:
        if isinstance(p.type, Array):
            hp.blocks[p.name] = MemBlock(
                name=p.name,
                elem_bytes=_elem_bytes(p.type),
                elems=Count.of(1.0, *p.type.shape),
                shape=p.type.shape,
                space="param",
            )
    for name, t in type_env.items():
        if isinstance(t, Array):
            hp.array_shapes[name] = t.shape
    _register_blocks(hp, hp.stmts)
    return hp


def _register_blocks(hp: HostProgram, stmts: Sequence) -> None:
    for s in stmts:
        if isinstance(s, AllocStmt):
            hp.blocks.setdefault(s.block.name, s.block)
        elif isinstance(s, HostLoopStmt):
            _register_blocks(hp, s.body)
        elif isinstance(s, HostIfStmt):
            _register_blocks(hp, s.then_body)
            _register_blocks(hp, s.else_body)


def lower_body(
    body: A.Body, type_env: Optional[Dict[str, Type]] = None
) -> List:
    return _lower_body(body, dict(type_env or {}), [0])


def _lower_body(
    body: A.Body,
    type_env: Dict[str, Type],
    counter: List[int],
    iota_names: Optional[Set[str]] = None,
) -> List:
    if iota_names is None:
        iota_names = set()
    stmts: List = []
    for bnd in body.bindings:
        for p in bnd.pat:
            type_env[p.name] = p.type
        e = bnd.exp
        if isinstance(e, A.IotaExp):
            iota_names.add(bnd.pat[0].name)
        info = nest_of(e)
        if info is not None:
            stmts.extend(_allocs_for(bnd.pat))
            stmts.append(
                LaunchStmt(
                    _make_kernel(bnd, info, type_env, counter, iota_names)
                )
            )
            continue
        if isinstance(e, A.LoopExp):
            # Names are globally unique, so one shared type table works
            # (and keeps loop-local arrays visible to later passes).
            for p, _ in e.merge:
                type_env[p.name] = p.type
            inner = _lower_body(e.body, type_env, counter, iota_names)
            # Arrays threaded through the loop are double-buffered by
            # copy (the HotSpot overhead of §6.1) — except those the
            # body updates in place, which uniqueness typing lets the
            # compiler mutate directly (the point of Section 3).
            consumed = body_directly_consumes(e.body)
            double_buffered = [
                p.name
                for p, _ in e.merge
                if isinstance(p.type, Array) and p.name not in consumed
            ]
            stmts.append(
                HostLoopStmt(
                    merge=e.merge,
                    form=e.form,
                    body=inner,
                    body_result=e.body.result,
                    pat=bnd.pat,
                    double_buffered=double_buffered,
                )
            )
            continue
        if isinstance(e, A.IfExp):
            stmts.append(
                HostIfStmt(
                    cond=e.cond,
                    then_body=_lower_body(
                        e.t_body, type_env, counter, iota_names
                    ),
                    then_result=e.t_body.result,
                    else_body=_lower_body(
                        e.f_body, type_env, counter, iota_names
                    ),
                    else_result=e.f_body.result,
                    pat=bnd.pat,
                )
            )
            continue
        if isinstance(e, _BUILTIN_PARALLEL):
            stmts.extend(_allocs_for(bnd.pat))
            stmts.append(
                LaunchStmt(_builtin_kernel(bnd, type_env, counter))
            )
            continue
        # Scalar code, rearrange views, indexing, host updates.
        stmts.append(HostEval(bnd))
    return stmts


def _allocs_for(pat: Sequence[A.Param]) -> List[AllocStmt]:
    """Device allocations for the array results of one kernel launch."""
    out: List[AllocStmt] = []
    for p in pat:
        if not isinstance(p.type, Array):
            continue
        out.append(
            AllocStmt(
                MemBlock(
                    name=p.name,
                    elem_bytes=_elem_bytes(p.type),
                    elems=Count.of(1.0, *p.type.shape),
                    shape=p.type.shape,
                )
            )
        )
    return out


def _fresh_kernel_name(counter: List[int], base: str) -> str:
    counter[0] += 1
    return f"{base}_{counter[0]}"


def _dim_of(a: A.Atom) -> Dim:
    return int(a.value) if isinstance(a, A.Const) else a.name


def _elem_bytes(t: Type) -> int:
    from ..core.types import elem_type

    return elem_type(t).nbytes


# ---------------------------------------------------------------------------
# Kernel construction
# ---------------------------------------------------------------------------


def _make_kernel(
    bnd: A.Binding,
    info: NestInfo,
    type_env: Dict[str, Type],
    counter: List[int],
    iota_names: Optional[Set[str]] = None,
) -> Kernel:
    widths = list(info.widths)
    if info.inner in ("reduce", "scan"):
        kind = (
            info.inner
            if info.depth == 1
            else ("segreduce" if info.inner == "reduce" else "segscan")
        )
        grid = tuple(widths)  # one thread per element
        seg_width = widths[-1]
    elif info.inner == "filter":
        kind = "filter"
        grid = tuple(widths)
        seg_width = None
    elif info.inner == "stream_red":
        kind = "stream_red"
        grid = tuple(widths)
        seg_width = None
    elif info.inner in ("stream_seq", "stream_map"):
        # The stream runs sequentially inside each thread of the
        # enclosing map levels.
        kind = "map"
        grid = tuple(widths[:-1])
        seg_width = widths[-1]
    else:
        kind = "map"
        grid = tuple(widths)
        seg_width = None

    kernel = Kernel(
        name=_fresh_kernel_name(counter, kind),
        kind=kind,
        grid=grid,
        seg_width=seg_width,
        exp=bnd.exp,
        pat=bnd.pat,
    )
    _analyse_kernel(kernel, type_env, iota_names or set())
    return kernel


def _builtin_kernel(
    bnd: A.Binding, type_env: Dict[str, Type], counter: List[int]
) -> Kernel:
    e = bnd.exp
    out_t = bnd.pat[0].type
    dims = out_t.shape if isinstance(out_t, Array) else ()
    from ..core.prim import I32

    kernel = Kernel(
        name=_fresh_kernel_name(counter, type(e).__name__.lower()),
        kind="builtin",
        grid=tuple(
            A.Var(d) if isinstance(d, str) else A.Const(d, I32)
            for d in dims
        ),
        seg_width=None,
        exp=e,
        pat=bnd.pat,
    )
    # Builtin traffic: one element in/out per thread (the grid covers
    # the whole output).
    eb = _elem_bytes(out_t)
    if isinstance(e, (A.CopyExp, A.ConcatExp, A.ScatterExp)):
        for a in exp_atoms(e):
            if isinstance(a, A.Var) and isinstance(
                type_env.get(a.name), Array
            ):
                src_t = type_env[a.name]
                kernel.accesses.append(
                    AccessInfo(
                        array=a.name,
                        elem_bytes=_elem_bytes(src_t),
                        trips=Count.of(1.0),
                        thread_dims=1,
                        gather=isinstance(e, A.ScatterExp),
                    )
                )
    kernel.accesses.append(
        AccessInfo(
            array=bnd.pat[0].name,
            elem_bytes=eb,
            trips=Count.of(1.0),
            thread_dims=1,
            is_write=True,
        )
    )
    return kernel


# ---------------------------------------------------------------------------
# Per-kernel analysis: access classification + flop counting
# ---------------------------------------------------------------------------


class _Analyser:
    def __init__(
        self,
        kernel: Kernel,
        type_env: Dict[str, Type],
        iota_names: Optional[Set[str]] = None,
    ) -> None:
        self.kernel = kernel
        self.type_env = dict(type_env)
        #: arrays known to hold iota values (affine thread ids)
        self.iota_names: Set[str] = set(iota_names or ())
        #: scalars that are affine functions of thread ids / loop
        #: counters: indexing with them is NOT a gather
        self.affine: Set[str] = set()
        #: arrays allocated inside the thread (iota/replicate/copy and
        #: loop state initialised from them): private/local memory
        self.local_arrays: Set[str] = set()
        #: sequential loop counters (not grid thread ids)
        self.loop_ivars: Set[str] = set()
        #: symbolic-size thread-private arrays in global scratch
        self.scratch_arrays: Set[str] = set()
        #: param name -> (global array name, #thread dims consumed)
        self.origins: Dict[str, Tuple[str, int]] = {}
        #: names whose values are data-dependent (loaded from memory)
        self.data_dep: Set[str] = set()
        #: chunk-size parameters of sequentialised streams: their loops
        #: contribute once per element, not per chunk
        self.unit_dims: Set[str] = set()
        self.flops = Count.zero()
        self.accesses: List[AccessInfo] = []
        self.tile_candidates: List[TileInfo] = []

    # -- plumbing --------------------------------------------------------

    def origin_of(self, name: str) -> Optional[Tuple[str, int]]:
        return self.origins.get(name)

    def record(self, acc: AccessInfo) -> None:
        self.accesses.append(acc)

    def _loop_trip(self, bound: A.Atom) -> Tuple[float, Tuple[Dim, ...]]:
        d = _dim_of(bound)
        if isinstance(d, str) and d in self.unit_dims:
            return (1.0, ())
        return (1.0, (d,))

    def _is_data_dep(self, a: A.Atom) -> bool:
        return (
            isinstance(a, A.Var)
            and a.name in self.data_dep
            and a.name not in self.affine
        )

    def _is_affine(self, a: A.Atom) -> bool:
        """Constants, loop counters, thread ids, and arithmetic on
        them — safe to index with (no gather)."""
        if isinstance(a, A.Const):
            return True
        return a.name not in self.data_dep or a.name in self.affine

    # -- analysis --------------------------------------------------------

    def run(self) -> None:
        k = self.kernel
        e = k.exp
        depth = 0
        # Descend the map levels, registering origins.
        while isinstance(e, A.MapExp):
            for p, arr in zip(e.lam.params, e.arrs):
                origin = self.origins.get(arr.name)
                if origin is not None:
                    self.origins[p.name] = (origin[0], origin[1] + 1)
                else:
                    self.origins[p.name] = (arr.name, depth + 1)
                self.type_env[p.name] = p.type
            depth += 1
            body = e.lam.body
            if (
                len(body.bindings) == 1
                and body.result
                == tuple(A.Var(p.name) for p in body.bindings[0].pat)
                and isinstance(
                    body.bindings[0].exp,
                    (A.MapExp, A.ReduceExp, A.ScanExp, A.StreamRedExp,
                     A.StreamSeqExp, A.StreamMapExp),
                )
            ):
                e = body.bindings[0].exp
                continue
            # Thread body: sequential code.
            self._thread_scalar_reads(depth)
            self.walk_body(body, Count.of(1.0))
            self._thread_writes(depth)
            self._finish()
            return

        if isinstance(e, (A.ReduceExp, A.ScanExp)):
            # One thread per element of the segmented dimension.
            n_acc = len(e.neutral)
            for p, arr in zip(e.lam.params[n_acc:], e.arrs):
                origin = self.origins.get(arr.name)
                if origin is not None:
                    self.origins[p.name] = (origin[0], origin[1] + 1)
                else:
                    self.origins[p.name] = (arr.name, depth + 1)
                self.type_env[p.name] = p.type
            depth += 1
            # Each thread reads its element of every input array.
            for p, arr in zip(e.lam.params[n_acc:], e.arrs):
                origin = self.origins[p.name]
                if isinstance(p.type, Prim):
                    self.record(
                        AccessInfo(
                            array=origin[0],
                            elem_bytes=p.type.t.nbytes,
                            trips=Count.of(1.0),
                            thread_dims=origin[1],
                        )
                    )
                    self.data_dep.add(p.name)
                else:
                    self.record(
                        AccessInfo(
                            array=origin[0],
                            elem_bytes=p.type.elem.nbytes,
                            trips=Count.of(1.0, *p.type.shape),
                            thread_dims=origin[1],
                            seq_rank=len(p.type.shape),
                        )
                    )
                    self.data_dep.add(p.name)
            self.walk_body(e.lam.body, Count.of(1.0))
            self._finish()
            return

        if isinstance(e, A.FilterExp):
            t = self.type_env.get(e.arr.name)
            eb = _elem_bytes(t) if t is not None else 4
            # Read each element once; scan + compact writes.
            self.record(
                AccessInfo(
                    array=e.arr.name,
                    elem_bytes=eb,
                    trips=Count.of(1.0),
                    thread_dims=1,
                )
            )
            for p in e.lam.params:
                self.type_env[p.name] = p.type
                self.data_dep.add(p.name)
            self.walk_body(e.lam.body, Count.of(1.0))
            self._finish()
            return

        if isinstance(e, (A.StreamRedExp, A.StreamSeqExp, A.StreamMapExp)):
            lam = e.fold_lam if isinstance(e, A.StreamRedExp) else e.lam
            accs = () if isinstance(e, A.StreamMapExp) else e.accs
            chunk_p = lam.params[0]
            self.unit_dims.add(chunk_p.name)
            for p, arr in zip(lam.params[1 + len(accs):], e.arrs):
                origin = self.origins.get(arr.name)
                if origin is not None:
                    self.origins[p.name] = (origin[0], origin[1] + 1)
                else:
                    self.origins[p.name] = (arr.name, depth + 1)
                self.type_env[p.name] = p.type
                self.data_dep.add(p.name)  # chunk elements are data
            depth += 1
            # Streamed arrays read once per element, coalesced-by-chunk.
            for arr in e.arrs:
                t = self.type_env.get(arr.name)
                if t is None:
                    continue
                origin = self.origin_of(arr.name)
                self.record(
                    AccessInfo(
                        array=origin[0] if origin else arr.name,
                        elem_bytes=_elem_bytes(t),
                        trips=Count.of(1.0),
                        thread_dims=depth,
                        seq_rank=max(0, len(t.shape) - 1)
                        if isinstance(t, Array)
                        else 0,
                    )
                )
            self.walk_body(lam.body, Count.of(1.0))
            self._finish()
            return

        # A bare kernel expression we do not recognise: charge nothing.
        self._finish()

    def _thread_scalar_reads(self, depth: int) -> None:
        """Each scalar element bound by a map level is one coalesced
        read per thread."""
        e = self.kernel.exp
        level = 0
        while isinstance(e, A.MapExp) and level < depth:
            for p, arr in zip(e.lam.params, e.arrs):
                if isinstance(p.type, Prim):
                    origin = self.origins[p.name]
                    if origin[0] in self.iota_names:
                        # An iota element IS the thread id: affine,
                        # and free (never actually loaded).
                        self.affine.add(p.name)
                        continue
                    self.record(
                        AccessInfo(
                            array=origin[0],
                            elem_bytes=p.type.t.nbytes,
                            trips=Count.of(1.0),
                            thread_dims=origin[1],
                        )
                    )
                    self.data_dep.add(p.name)
            level += 1
            body = e.lam.body
            if len(body.bindings) == 1 and isinstance(
                body.bindings[0].exp, A.MapExp
            ):
                e = body.bindings[0].exp
            else:
                break

    def _thread_writes(self, depth: int) -> None:
        for p in self.kernel.pat:
            if not isinstance(p.type, Array):
                continue
            rank = len(p.type.shape)
            seq_rank = max(0, rank - depth)
            trips = Count.of(1.0, *p.type.shape[depth:])
            self.record(
                AccessInfo(
                    array=p.name,
                    elem_bytes=p.type.elem.nbytes,
                    trips=trips,
                    thread_dims=depth,
                    seq_rank=seq_rank,
                    is_write=True,
                )
            )

    def _finish(self) -> None:
        self.kernel.accesses = self.accesses
        self.kernel.flops_per_thread = self.flops
        self.kernel.tile_candidates = self.tile_candidates

    # -- thread-body walking ------------------------------------------------

    def walk_body(self, body: A.Body, mult: Count) -> None:
        for bnd in body.bindings:
            self.walk_exp(bnd.exp, bnd.pat, mult)

    def walk_exp(
        self, e: A.Exp, pat: Sequence[A.Param], mult: Count
    ) -> None:
        if isinstance(
            e, (A.BinOpExp, A.CmpOpExp, A.UnOpExp, A.ConvOpExp)
        ):
            weight = 1.0
            if isinstance(e, A.UnOpExp) and e.op == "sqrt":
                weight = 4.0
            elif isinstance(e, A.UnOpExp) and e.op in (
                "exp", "log", "sin", "cos", "tan", "atan"
            ):
                weight = 8.0
            elif isinstance(e, A.BinOpExp) and e.op in ("div", "pow"):
                weight = 2.0
            self.flops = self.flops + mult.scaled(weight)
            atoms = list(exp_atoms(e))
            if all(self._is_affine(a) for a in atoms):
                for p in pat:
                    self.affine.add(p.name)
            elif any(self._is_data_dep(a) for a in atoms):
                for p in pat:
                    self.data_dep.add(p.name)
            return

        if isinstance(e, A.IndexExp):
            self._index_access(e.arr, e.idxs, mult, write=False)
            for p in pat:
                self.data_dep.add(p.name)
                # A slice inherits its origin: reads through it are
                # still per-thread traversals of the global array.
                if isinstance(p.type, Array):
                    origin = self.origin_of(e.arr.name)
                    if origin is not None:
                        self.origins[p.name] = origin
                    elif e.arr.name in self.scratch_arrays:
                        self.scratch_arrays.add(p.name)
                    elif e.arr.name in self.local_arrays:
                        self.local_arrays.add(p.name)
            return

        if isinstance(e, A.UpdateExp):
            self._index_access(e.arr, e.idxs, mult, write=True)
            return

        if isinstance(e, A.IfExp):
            self.flops = self.flops + mult
            self.walk_body(e.t_body, mult)
            self.walk_body(e.f_body, mult)
            from ..core.traversal import free_vars_exp

            if any(
                v in self.data_dep and v not in self.affine
                for v in free_vars_exp(e)
            ):
                for p in pat:
                    self.data_dep.add(p.name)
            return

        if isinstance(e, A.LoopExp):
            if isinstance(e.form, A.ForLoop):
                coeff, dims = self._loop_trip(e.form.bound)
                inner = mult.scaled(coeff, *dims)
                self.affine.add(e.form.ivar)
                self.loop_ivars.add(e.form.ivar)
            else:
                # Data-dependent while loop: assume the Mandelbrot-ish
                # expected escape time (documented model constant).
                inner = mult.scaled(64.0)
            for (p, init) in e.merge:
                self.type_env[p.name] = p.type
                if (
                    isinstance(init, A.Var)
                    and init.name in self.local_arrays
                ):
                    self.local_arrays.add(p.name)
                if (
                    isinstance(init, A.Var)
                    and init.name in self.scratch_arrays
                ):
                    self.scratch_arrays.add(p.name)
            self.walk_body(e.body, inner)
            for p, _ in e.merge:
                if p.name in self.local_arrays:
                    for q in pat:
                        self.local_arrays.add(q.name)
                if p.name in self.scratch_arrays:
                    for q in pat:
                        self.scratch_arrays.add(q.name)
            return

        if isinstance(e, (A.MapExp, A.ReduceExp, A.ScanExp)):
            # Sequentialised inside the thread.
            coeff, dims = self._loop_trip(e.width)
            inner = mult.scaled(coeff, *dims)
            lam = e.lam
            n_acc = 0 if isinstance(e, A.MapExp) else len(e.neutral)
            for p, arr in zip(lam.params[n_acc:], e.arrs):
                self.type_env[p.name] = p.type
                self.data_dep.add(p.name)
                origin = self.origin_of(arr.name)
                if origin is not None and isinstance(p.type, Array):
                    # Row parameters keep tracking the global array.
                    self.origins[p.name] = origin
                if isinstance(p.type, Prim):
                    self._sequential_stream_access(arr, mult, inner)
            self.walk_body(lam.body, inner)
            return

        if isinstance(e, (A.StreamSeqExp, A.StreamRedExp, A.StreamMapExp)):
            lam = e.fold_lam if isinstance(e, A.StreamRedExp) else e.lam
            accs = () if isinstance(e, A.StreamMapExp) else e.accs
            self.unit_dims.add(lam.params[0].name)
            coeff, dims = self._loop_trip(e.width)
            inner = mult.scaled(coeff, *dims)
            for p, arr in zip(lam.params[1 + len(accs):], e.arrs):
                self.type_env[p.name] = p.type
                self.data_dep.add(p.name)
                origin = self.origin_of(arr.name)
                if origin is not None and isinstance(p.type, Array):
                    self.origins[p.name] = origin
                self._sequential_stream_access(
                    arr, mult, inner, streamed=True
                )
            self.walk_body(lam.body, inner)
            return

        if isinstance(e, (A.IotaExp, A.ReplicateExp, A.CopyExp)):
            self.flops = self.flops + mult
            for p in pat:
                if isinstance(e, A.CopyExp) or _small_type(p.type):
                    # Registers / local memory.
                    self.local_arrays.add(p.name)
                else:
                    # Symbolic-size per-thread array: global scratch,
                    # strided across threads unless the compiler
                    # chooses a transposed layout (Section 5.2).
                    self.scratch_arrays.add(p.name)
            return

        # AtomExp, RearrangeExp views, etc.: free.
        if isinstance(e, A.AtomExp):
            if self._is_data_dep(e.atom):
                for p in pat:
                    self.data_dep.add(p.name)
            if (
                isinstance(e.atom, A.Var)
                and e.atom.name in self.local_arrays
            ):
                for p in pat:
                    self.local_arrays.add(p.name)

    def _sequential_stream_access(
        self,
        arr: A.Var,
        outer_mult: Count,
        inner_mult: Count,
        streamed: bool = False,
    ) -> None:
        """A thread iterating over ``arr`` sequentially."""
        t = self.type_env.get(arr.name)
        if not isinstance(t, Array):
            return
        origin = self.origin_of(arr.name)
        if origin is not None:
            array, prefix = origin
            self.record(
                AccessInfo(
                    array=array,
                    elem_bytes=t.elem.nbytes,
                    trips=inner_mult,
                    thread_dims=prefix,
                    seq_rank=self._clamped_seq(array, prefix, len(t.shape)),
                )
            )
        else:
            # Invariant array streamed by every thread: the Section 5.2
            # block-tiling opportunity.
            self.record(
                AccessInfo(
                    array=arr.name,
                    elem_bytes=t.elem.nbytes,
                    trips=inner_mult,
                    invariant=True,
                )
            )
            if streamed:
                self.tile_candidates.append(
                    TileInfo(array=arr.name, elem_bytes=t.elem.nbytes)
                )

    def _clamped_seq(self, array: str, prefix: int, seq: int) -> int:
        """Sequential index depth, clamped by the origin array's true
        rank: a chunked traversal of a rank-1 array is interleaved by
        the code generator and therefore coalesced (seq 0), whereas a
        per-thread row walk of a rank-2 array genuinely strides."""
        t = self.type_env.get(array)
        if isinstance(t, Array):
            return max(0, min(seq, len(t.shape) - prefix))
        return seq

    def _index_access(
        self,
        arr: A.Var,
        idxs: Tuple[A.Atom, ...],
        mult: Count,
        write: bool,
    ) -> None:
        if arr.name in self.local_arrays:
            self.flops = self.flops + mult  # register/local traffic
            return
        t = self.type_env.get(arr.name)
        eb = _elem_bytes(t) if t is not None else 4
        if arr.name in self.scratch_arrays:
            # Per-thread scratch: one [size]-shaped slice per thread of
            # a logically [threads][size] array — strided across
            # threads unless transposed.
            self.record(
                AccessInfo(
                    array=arr.name,
                    elem_bytes=eb,
                    trips=mult,
                    thread_dims=len(self.kernel.grid) or 1,
                    seq_rank=max(1, len(idxs)),
                    is_write=write,
                )
            )
            return
        gather = any(self._is_data_dep(i) for i in idxs)
        if (
            gather
            and len(idxs) > 1
            and isinstance(idxs[-1], A.Var)
            and idxs[-1].name in self.loop_ivars
        ):
            # e.g. pos[box_of[k], o]: the gathered ROW is contiguous
            # and shared by the whole work group — a broadcast stream,
            # not a random gather (the LavaMD indirect pattern, which
            # is also tiled through local memory: §5.2's "interesting
            # tiling pattern ... the result of an indirect index").
            self.record(
                AccessInfo(
                    array=arr.name,
                    elem_bytes=eb,
                    trips=mult,
                    invariant=True,
                    is_write=write,
                )
            )
            if not write and not any(
                ti.array == arr.name for ti in self.tile_candidates
            ):
                self.tile_candidates.append(
                    TileInfo(array=arr.name, elem_bytes=eb)
                )
            return
        origin = self.origin_of(arr.name)
        if origin is not None:
            array, prefix = origin
            self.record(
                AccessInfo(
                    array=array,
                    elem_bytes=eb,
                    trips=mult,
                    thread_dims=prefix,
                    seq_rank=self._clamped_seq(array, prefix, len(idxs)),
                    gather=gather,
                    is_write=write,
                )
            )
        elif gather:
            self.record(
                AccessInfo(
                    array=arr.name,
                    elem_bytes=eb,
                    trips=mult,
                    gather=True,
                    is_write=write,
                )
            )
        elif all(
            isinstance(i, A.Const)
            or (isinstance(i, A.Var) and i.name in self.loop_ivars)
            for i in idxs
        ):
            # Indexed only by loop counters/constants: the same element
            # for every thread at each step — a broadcast, and a block
            # tiling candidate (MRI-Q's sample arrays, K-means'
            # centres).
            self.record(
                AccessInfo(
                    array=arr.name,
                    elem_bytes=eb,
                    trips=mult,
                    invariant=True,
                    is_write=write,
                )
            )
            if not write and not any(
                ti.array == arr.name for ti in self.tile_candidates
            ):
                self.tile_candidates.append(
                    TileInfo(array=arr.name, elem_bytes=eb)
                )
        elif any(not isinstance(i, A.Const) for i in idxs):
            # A free array indexed by affine thread-derived indices:
            # effectively a coalesced (cached) access — the stencil
            # pattern of HotSpot/SRAD/Pathfinder.
            self.record(
                AccessInfo(
                    array=arr.name,
                    elem_bytes=eb,
                    trips=mult,
                    thread_dims=1,
                    is_write=write,
                )
            )
        else:
            self.record(
                AccessInfo(
                    array=arr.name,
                    elem_bytes=eb,
                    trips=mult,
                    invariant=True,
                    is_write=write,
                )
            )


def _small_type(t: Type) -> bool:
    """Fits registers/local memory: constant dims, <= 64 elements."""
    if not isinstance(t, Array):
        return True
    total = 1
    for d in t.shape:
        if not isinstance(d, int):
            return False
        total *= d
    return total <= 64


def _analyse_kernel(
    kernel: Kernel,
    type_env: Dict[str, Type],
    iota_names: Optional[Set[str]] = None,
) -> None:
    _Analyser(kernel, type_env, iota_names).run()
