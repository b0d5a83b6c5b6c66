"""A reference interpreter for the Futhark core language.

Implements the sequential semantics of Section 2 (SOAC semantics of
Fig. 8), with the dynamic checks the paper describes: array bounds,
array regularity, and shape postconditions on function returns.

The interpreter doubles as a *work-complexity oracle*: it counts the
abstract work performed (scalar operations plus bytes-worth of array
traffic), which the tests use to verify claims such as Fig. 4's O(n)
versus O(n*k) cluster counting, and the O(1) per-thread footprint after
stream fusion (Fig. 10).

When ``in_place=True`` the interpreter performs uniqueness-checked
updates by mutation (work proportional to the element, as guaranteed in
Section 3); this must only be enabled for programs that passed the
uniqueness checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import ast as A
from ..core.prim import (
    BINOPS,
    BOOL,
    CMPOPS,
    I32,
    UNOPS,
    eval_binop,
    eval_cmpop,
    eval_convop,
    eval_unop,
    ConvOp,
)
from ..core.types import Array, Prim, Type
from ..errors import ReproError
from ..core.values import (
    ArrayValue,
    ScalarValue,
    Value,
    array_value,
    scalar,
    value_type,
)

__all__ = ["Interpreter", "InterpError", "Metrics", "run_program"]


class InterpError(ReproError):
    """A dynamic error: bounds, regularity, shape postcondition, ..."""


@dataclass
class Metrics:
    """Abstract work counters maintained during evaluation."""

    scalar_ops: int = 0
    array_elems_touched: int = 0
    updates: int = 0
    copies: int = 0

    @property
    def work(self) -> int:
        return self.scalar_ops + self.array_elems_touched

    def reset(self) -> None:
        self.scalar_ops = 0
        self.array_elems_touched = 0
        self.updates = 0
        self.copies = 0


Env = Dict[str, Value]


def _default_chunks(n: int) -> List[int]:
    """A deliberately irregular partitioning, to exercise the
    well-definedness obligation of the streaming SOACs."""
    if n == 0:
        return []
    sizes = []
    remaining = n
    step = max(1, n // 3)
    while remaining > 0:
        size = min(step, remaining)
        sizes.append(size)
        remaining -= size
        step = max(1, step - 1)
    return sizes


class Interpreter:
    """Evaluates core-language programs.

    Parameters
    ----------
    prog:
        The program to evaluate.
    in_place:
        Perform ``with``-updates by mutation.  Only sound for programs
        that passed uniqueness checking.
    chunk_policy:
        Maps a stream width to a list of chunk sizes summing to it.
    """

    def __init__(
        self,
        prog: A.Prog,
        in_place: bool = False,
        chunk_policy: Callable[[int], List[int]] = _default_chunks,
    ) -> None:
        self.prog = prog
        self.in_place = in_place
        self.chunk_policy = chunk_policy
        self.metrics = Metrics()
        self._funs = {f.name: f for f in prog.funs}

    # -- public API ----------------------------------------------------------

    def run(
        self, fname: str, args: Sequence[Value], copy_inputs: bool = True
    ) -> Tuple[Value, ...]:
        """Call a top-level function on the given argument values."""
        fun = self._lookup_fun(fname)
        if copy_inputs:
            args = [
                a.copy() if isinstance(a, ArrayValue) else a for a in args
            ]
        return self._call(fun, list(args))

    def eval_exp(
        self, e: A.Exp, env: Dict[str, Value]
    ) -> Tuple[Value, ...]:
        """Evaluate a single expression in an explicit environment
        (what a generated host function runs a kernel, or a host
        statement it does not emit itself, on)."""
        return self._eval_exp(e, env)

    def bind_param(self, env: Dict[str, Value], p: A.Param, v: Value) -> None:
        """Publicly bind a parameter, unifying symbolic sizes: the
        check a generated host function hands a binding to when its
        inline test fails (``repro.gpu.simulator.reject``)."""
        self._bind_checked(env, p, v, f"binding of {p.name}")

    # -- helpers ---------------------------------------------------------------

    def _lookup_fun(self, fname: str) -> A.FunDef:
        try:
            return self._funs[fname]
        except KeyError:
            raise InterpError(f"no function named {fname!r}") from None

    def _call(self, fun: A.FunDef, args: List[Value]) -> Tuple[Value, ...]:
        if len(args) != len(fun.params):
            raise InterpError(
                f"{fun.name}: expected {len(fun.params)} arguments, "
                f"got {len(args)}"
            )
        env: Env = {}
        for p, arg in zip(fun.params, args):
            self._bind_checked(env, p, arg, f"{fun.name} parameter {p.name}")
        results = self._eval_body(fun.body, env)
        # Shape postconditions (dynamically checked, Section 2.2).
        for i, (decl, res) in enumerate(zip(fun.ret, results)):
            self._check_shape(env, decl.type, res,
                              f"{fun.name} result #{i}")
        return results

    def _bind_checked(self, env: Env, p: A.Param, v: Value, what: str) -> None:
        """Bind a value, unifying symbolic dims and checking known ones."""
        t = p.type
        if isinstance(t, Array):
            if not isinstance(v, ArrayValue):
                raise InterpError(f"{what}: expected array, got scalar")
            if len(t.shape) != v.rank:
                raise InterpError(
                    f"{what}: rank mismatch ({len(t.shape)} vs {v.rank})"
                )
            for d, actual in zip(t.shape, v.shape):
                if isinstance(d, int):
                    if d != actual:
                        raise InterpError(
                            f"{what}: dimension mismatch ({d} vs {actual})"
                        )
                else:
                    bound = env.get(d)
                    if bound is None:
                        env[d] = scalar(actual, I32)
                    elif isinstance(bound, ScalarValue) and bound.value != actual:
                        raise InterpError(
                            f"{what}: size {d}={bound.value} but got {actual}"
                        )
        env[p.name] = v

    def _check_shape(self, env: Env, t: Type, v: Value, what: str) -> None:
        if isinstance(t, Array):
            if not isinstance(v, ArrayValue):
                raise InterpError(f"{what}: expected array result")
            for d, actual in zip(t.shape, v.shape):
                if isinstance(d, int) and d != actual:
                    raise InterpError(
                        f"{what}: shape postcondition failed "
                        f"({d} != {actual})"
                    )
                if isinstance(d, str) and d in env:
                    declared = env[d]
                    if (
                        isinstance(declared, ScalarValue)
                        and declared.value != actual
                    ):
                        raise InterpError(
                            f"{what}: shape postcondition failed "
                            f"({d}={declared.value} != {actual})"
                        )

    def _atom(self, env: Env, a: A.Atom) -> Value:
        if isinstance(a, A.Const):
            return scalar(a.value, a.type)
        try:
            return env[a.name]
        except KeyError:
            raise InterpError(f"unbound variable {a.name}") from None

    def _scalar(self, env: Env, a: A.Atom) -> ScalarValue:
        v = self._atom(env, a)
        if not isinstance(v, ScalarValue):
            raise InterpError(f"expected scalar, got array for {a}")
        return v

    def _array(self, env: Env, a: A.Atom) -> ArrayValue:
        v = self._atom(env, a)
        if not isinstance(v, ArrayValue):
            raise InterpError(f"expected array, got scalar for {a}")
        return v

    def _int(self, env: Env, a: A.Atom) -> int:
        return int(self._scalar(env, a).value)

    # -- evaluation ---------------------------------------------------------

    def _eval_body(self, body: A.Body, env: Env) -> Tuple[Value, ...]:
        for bnd in body.bindings:
            results = self._eval_exp(bnd.exp, env)
            if len(results) != len(bnd.pat):
                raise InterpError(
                    f"pattern arity mismatch: {len(bnd.pat)} names for "
                    f"{len(results)} values"
                )
            for p, v in zip(bnd.pat, results):
                self._bind_checked(env, p, v, f"binding of {p.name}")
        return tuple(self._atom(env, a) for a in body.result)

    def _apply_lambda(
        self, lam: A.Lambda, args: Sequence[Value], outer: Env
    ) -> Tuple[Value, ...]:
        if len(args) != len(lam.params):
            raise InterpError(
                f"lambda arity mismatch: {len(lam.params)} parameters, "
                f"{len(args)} arguments"
            )
        # Lambdas close over the enclosing scope.
        env: Env = dict(outer)
        for p, arg in zip(lam.params, args):
            self._bind_checked(env, p, arg, f"lambda parameter {p.name}")
        return self._eval_body(lam.body, env)

    def _eval_exp(self, e: A.Exp, env: Env) -> Tuple[Value, ...]:
        m = self.metrics

        if isinstance(e, A.AtomExp):
            return (self._atom(env, e.atom),)

        if isinstance(e, A.BinOpExp):
            x = self._scalar(env, e.x)
            y = self._scalar(env, e.y)
            m.scalar_ops += 1
            return (scalar(eval_binop(BINOPS[e.op], e.t, x.value, y.value), e.t),)

        if isinstance(e, A.CmpOpExp):
            x = self._scalar(env, e.x)
            y = self._scalar(env, e.y)
            m.scalar_ops += 1
            return (scalar(eval_cmpop(CMPOPS[e.op], x.value, y.value), BOOL),)

        if isinstance(e, A.UnOpExp):
            x = self._scalar(env, e.x)
            m.scalar_ops += 1
            return (scalar(eval_unop(UNOPS[e.op], e.t, x.value), e.t),)

        if isinstance(e, A.ConvOpExp):
            x = self._scalar(env, e.x)
            m.scalar_ops += 1
            return (scalar(eval_convop(ConvOp("conv", e.to_t), x.value), e.to_t),)

        if isinstance(e, A.IfExp):
            cond = self._scalar(env, e.cond)
            branch = e.t_body if cond.value else e.f_body
            return self._eval_body(branch, dict(env))

        if isinstance(e, A.IndexExp):
            arr = self._array(env, e.arr)
            idxs = [self._int(env, i) for i in e.idxs]
            for k, (i, d) in enumerate(zip(idxs, arr.shape)):
                if not (0 <= i < d):
                    raise InterpError(
                        f"index out of bounds: {e.arr.name}[..{i}..] with "
                        f"dimension {k} of size {d}"
                    )
            sub = arr.data[tuple(idxs)]
            if sub.ndim == 0:
                m.array_elems_touched += 1
                return (scalar(sub.item(), arr.elem),)
            # A slice; shares the buffer (it aliases, per Fig. 5).
            m.array_elems_touched += 1
            return (ArrayValue(sub, arr.elem),)

        if isinstance(e, A.UpdateExp):
            arr = self._array(env, e.arr)
            idxs = [self._int(env, i) for i in e.idxs]
            for k, (i, d) in enumerate(zip(idxs, arr.shape)):
                if not (0 <= i < d):
                    raise InterpError(
                        f"update out of bounds: {e.arr.name} with "
                        f"[..{i}..] <- ... at dimension {k} of size {d}"
                    )
            value = self._atom(env, e.value)
            m.updates += 1
            if self.in_place:
                target = arr
                m.array_elems_touched += _value_size(value)
            else:
                target = arr.copy()
                m.copies += 1
                m.array_elems_touched += int(np.prod(arr.shape))
            if isinstance(value, ScalarValue):
                target.data[tuple(idxs)] = value.value
            else:
                target.data[tuple(idxs)] = value.data
            return (target,)

        if isinstance(e, A.IotaExp):
            n = self._int(env, e.n)
            if n < 0:
                raise InterpError(f"iota of negative size {n}")
            m.array_elems_touched += n
            return (array_value(np.arange(n, dtype=np.int32), I32),)

        if isinstance(e, A.ReplicateExp):
            n = self._int(env, e.n)
            if n < 0:
                raise InterpError(f"replicate of negative size {n}")
            v = self._atom(env, e.value)
            if isinstance(v, ScalarValue):
                data = np.full(n, v.value, dtype=v.type.to_dtype())
                m.array_elems_touched += n
                return (ArrayValue(data, v.type),)
            data = np.broadcast_to(v.data, (n,) + v.data.shape).copy()
            m.array_elems_touched += int(np.prod(data.shape))
            return (ArrayValue(data, v.elem),)

        if isinstance(e, A.RearrangeExp):
            arr = self._array(env, e.arr)
            if sorted(e.perm) != list(range(arr.rank)):
                raise InterpError(
                    f"rearrange {e.perm} does not permute rank {arr.rank}"
                )
            return (ArrayValue(np.transpose(arr.data, e.perm), arr.elem),)

        if isinstance(e, A.ReshapeExp):
            arr = self._array(env, e.arr)
            shape = tuple(self._int(env, s) for s in e.shape)
            if int(np.prod(shape)) != arr.data.size:
                raise InterpError(
                    f"reshape to {shape} changes element count of "
                    f"{e.arr.name} ({arr.data.size})"
                )
            return (ArrayValue(arr.data.reshape(shape), arr.elem),)

        if isinstance(e, A.CopyExp):
            arr = self._array(env, e.arr)
            m.copies += 1
            m.array_elems_touched += arr.data.size
            return (arr.copy(),)

        if isinstance(e, A.ConcatExp):
            arrs = [self._array(env, a) for a in e.arrs]
            inner = arrs[0].data.shape[1:]
            for a in arrs[1:]:
                if a.data.shape[1:] != inner:
                    raise InterpError("concat of arrays with unequal rows")
            data = np.concatenate([a.data for a in arrs], axis=0)
            m.array_elems_touched += data.size
            return (ArrayValue(data, arrs[0].elem),)

        if isinstance(e, A.ApplyExp):
            fun = self._lookup_fun(e.fname)
            args = [self._atom(env, a) for a in e.args]
            return self._call(fun, args)

        if isinstance(e, A.LoopExp):
            return self._eval_loop(e, env)

        if isinstance(e, A.MapExp):
            return self._eval_map(e, env)

        if isinstance(e, A.ReduceExp):
            return self._eval_reduce(e, env)

        if isinstance(e, A.ScanExp):
            return self._eval_scan(e, env)

        if isinstance(e, A.StreamMapExp):
            return self._eval_stream_map(e, env)

        if isinstance(e, A.StreamRedExp):
            return self._eval_stream_red(e, env)

        if isinstance(e, A.StreamSeqExp):
            return self._eval_stream_seq(e, env)

        if isinstance(e, A.FilterExp):
            return self._eval_filter(e, env)

        if isinstance(e, A.ScatterExp):
            return self._eval_scatter(e, env)

        raise InterpError(f"cannot evaluate {type(e).__name__}")

    # -- loops ---------------------------------------------------------------

    def _eval_loop(self, e: A.LoopExp, env: Env) -> Tuple[Value, ...]:
        state: List[Value] = [self._atom(env, a) for _, a in e.merge]
        params = [p for p, _ in e.merge]

        def iterate(extra: Dict[str, Value]) -> None:
            inner: Env = dict(env)
            inner.update(extra)
            for p, v in zip(params, state):
                self._bind_checked(inner, p, v, f"merge parameter {p.name}")
            results = self._eval_body(e.body, inner)
            if len(results) != len(state):
                raise InterpError("loop body arity mismatch")
            state[:] = list(results)

        if isinstance(e.form, A.ForLoop):
            bound = self._int(env, e.form.bound)
            for i in range(bound):
                iterate({e.form.ivar: scalar(i, I32)})
        else:
            cond_index = next(
                (k for k, p in enumerate(params) if p.name == e.form.cond),
                None,
            )
            if cond_index is None:
                raise InterpError(
                    f"while condition {e.form.cond} is not a merge parameter"
                )
            guard = 0
            while True:
                cond = state[cond_index]
                if not (isinstance(cond, ScalarValue) and cond.type.is_bool):
                    raise InterpError("while condition must be a boolean")
                if not cond.value:
                    break
                iterate({})
                guard += 1
                if guard > 10_000_000:
                    raise InterpError("while loop exceeded iteration guard")
        return tuple(state)

    # -- SOACs ----------------------------------------------------------------

    def _soac_inputs(
        self, env: Env, width_atom: A.Atom, arrs: Sequence[A.Var], what: str
    ) -> Tuple[int, List[ArrayValue]]:
        width = self._int(env, width_atom)
        vals = [self._array(env, a) for a in arrs]
        for a, v in zip(arrs, vals):
            if v.shape[0] != width:
                raise InterpError(
                    f"{what}: input {a.name} has outer size {v.shape[0]}, "
                    f"expected {width}"
                )
        return width, vals

    def _stack_results(
        self, rows: List[Tuple[Value, ...]], n_out: int, what: str
    ) -> List[Value]:
        outs: List[Value] = []
        for j in range(n_out):
            col = [row[j] for row in rows]
            if all(isinstance(v, ScalarValue) for v in col):
                t = col[0].type  # type: ignore[union-attr]
                data = np.array(
                    [v.value for v in col], dtype=t.to_dtype()
                )
                outs.append(ArrayValue(data, t))
            else:
                shapes = {v.data.shape for v in col}  # type: ignore[union-attr]
                if len(shapes) != 1:
                    raise InterpError(
                        f"{what}: irregular array produced (row shapes "
                        f"{sorted(shapes)})"
                    )
                data = np.stack([v.data for v in col])  # type: ignore[union-attr]
                outs.append(ArrayValue(data, col[0].elem))  # type: ignore[union-attr]
        return outs

    def _eval_map(self, e: A.MapExp, env: Env) -> Tuple[Value, ...]:
        width, vals = self._soac_inputs(env, e.width, e.arrs, "map")
        n_out = len(e.lam.ret_types)
        if width == 0:
            return tuple(self._empty_output(env, t) for t in
                         self._map_output_types(e, env))
        rows = []
        for i in range(width):
            args = [_index_row(v, i) for v in vals]
            rows.append(self._apply_lambda(e.lam, args, env))
        return tuple(self._stack_results(rows, n_out, "map"))

    def _map_output_types(self, e: A.MapExp, env: Env) -> List[Type]:
        from ..core.typeinfer import exp_types

        type_env = {k: value_type(v) for k, v in env.items()}
        return list(exp_types(e, type_env))

    def _empty_output(self, env: Env, t: Type) -> Value:
        if isinstance(t, Prim):
            raise InterpError("empty map cannot produce scalars")
        shape = tuple(
            d if isinstance(d, int)
            else int(self._scalar(env, A.Var(d)).value) if d in env else 0
            for d in t.shape
        )
        shape = (0,) + shape[1:]
        return ArrayValue(np.zeros(shape, dtype=t.elem.to_dtype()), t.elem)

    def _eval_reduce(self, e: A.ReduceExp, env: Env) -> Tuple[Value, ...]:
        width, vals = self._soac_inputs(env, e.width, e.arrs, "reduce")
        acc: List[Value] = [self._atom(env, a) for a in e.neutral]
        for i in range(width):
            args = acc + [_index_row(v, i) for v in vals]
            acc = list(self._apply_lambda(e.lam, args, env))
        # The operator may return a row of an input as it is: the
        # result is a copy, which a later in-place update of that input
        # does not reach.
        return tuple(
            ArrayValue(a.data.copy(), a.elem) if isinstance(a, ArrayValue)
            else a
            for a in acc
        )

    def _eval_scan(self, e: A.ScanExp, env: Env) -> Tuple[Value, ...]:
        width, vals = self._soac_inputs(env, e.width, e.arrs, "scan")
        acc: List[Value] = [self._atom(env, a) for a in e.neutral]
        rows: List[Tuple[Value, ...]] = []
        for i in range(width):
            args = acc + [_index_row(v, i) for v in vals]
            acc = list(self._apply_lambda(e.lam, args, env))
            rows.append(tuple(acc))
        if width == 0:
            return tuple(
                ArrayValue(
                    np.zeros((0,), dtype=_acc_dtype(a)), _acc_prim(a)
                )
                for a in acc
            )
        return tuple(self._stack_results(rows, len(acc), "scan"))

    def _chunks(self, env: Env, width: int, vals: List[ArrayValue]):
        sizes = list(self.chunk_policy(width))
        if sum(sizes) != width or any(s <= 0 for s in sizes):
            raise InterpError(
                f"chunk policy returned {sizes}, which does not "
                f"partition a stream of width {width}"
            )
        offset = 0
        for size in sizes:
            yield size, [
                ArrayValue(v.data[offset:offset + size], v.elem) for v in vals
            ]
            offset += size

    def _eval_stream_map(
        self, e: A.StreamMapExp, env: Env
    ) -> Tuple[Value, ...]:
        width, vals = self._soac_inputs(env, e.width, e.arrs, "stream_map")
        n_out = len(e.lam.ret_types)
        pieces: List[List[ArrayValue]] = [[] for _ in range(n_out)]
        for size, chunks in self._chunks(env, width, vals):
            args: List[Value] = [scalar(size, I32)] + list(chunks)
            outs = self._apply_lambda(e.lam, args, env)
            for j, out in enumerate(outs):
                if not isinstance(out, ArrayValue):
                    raise InterpError("stream_map chunk result must be array")
                pieces[j].append(out)
        return tuple(_concat_pieces(p, width) for p in pieces)

    def _eval_stream_red(
        self, e: A.StreamRedExp, env: Env
    ) -> Tuple[Value, ...]:
        width, vals = self._soac_inputs(env, e.width, e.arrs, "stream_red")
        n_acc = e.num_accs
        init: List[Value] = [self._atom(env, a) for a in e.accs]
        n_arr_out = len(e.fold_lam.ret_types) - n_acc
        pieces: List[List[ArrayValue]] = [[] for _ in range(n_arr_out)]
        acc: Optional[List[Value]] = None
        for size, chunks in self._chunks(env, width, vals):
            # Each chunk starts from a *fresh* copy of the initial
            # accumulator (Section 2.4: "acc is initialized to a new
            # k-size array of zeros for each chunk"), so in-place
            # updates inside the fold cannot leak across chunks.
            chunk_init = [
                a.copy() if isinstance(a, ArrayValue) else a for a in init
            ]
            args: List[Value] = [scalar(size, I32)] + chunk_init + list(chunks)
            outs = self._apply_lambda(e.fold_lam, args, env)
            chunk_acc = list(outs[:n_acc])
            for j, out in enumerate(outs[n_acc:]):
                if not isinstance(out, ArrayValue):
                    raise InterpError("stream_red chunk result must be array")
                pieces[j].append(out)
            if acc is None:
                acc = chunk_acc
            else:
                acc = list(self._apply_lambda(e.red_lam, acc + chunk_acc, env))
        if acc is None:
            acc = init
        arrays = [_concat_pieces(p, width) for p in pieces]
        return tuple(acc) + tuple(arrays)

    def _eval_stream_seq(
        self, e: A.StreamSeqExp, env: Env
    ) -> Tuple[Value, ...]:
        width, vals = self._soac_inputs(env, e.width, e.arrs, "stream_seq")
        n_acc = e.num_accs
        acc: List[Value] = [self._atom(env, a) for a in e.accs]
        n_arr_out = len(e.lam.ret_types) - n_acc
        pieces: List[List[ArrayValue]] = [[] for _ in range(n_arr_out)]
        for size, chunks in self._chunks(env, width, vals):
            args: List[Value] = [scalar(size, I32)] + acc + list(chunks)
            outs = self._apply_lambda(e.lam, args, env)
            acc = list(outs[:n_acc])
            for j, out in enumerate(outs[n_acc:]):
                if not isinstance(out, ArrayValue):
                    raise InterpError("stream_seq chunk result must be array")
                pieces[j].append(out)
        arrays = [_concat_pieces(p, width) for p in pieces]
        return tuple(acc) + tuple(arrays)

    def _eval_filter(self, e: A.FilterExp, env: Env) -> Tuple[Value, ...]:
        width, (val,) = self._soac_inputs(env, e.width, (e.arr,), "filter")
        kept = []
        for i in range(width):
            elem = _index_row(val, i)
            (flag,) = self._apply_lambda(e.lam, [elem], env)
            if not (isinstance(flag, ScalarValue) and flag.type.is_bool):
                raise InterpError("filter predicate must return bool")
            self.metrics.scalar_ops += 1
            if flag.value:
                kept.append(i)
        data = val.data[kept]
        self.metrics.array_elems_touched += data.size
        return (
            scalar(len(kept), I32),
            ArrayValue(data.copy(), val.elem),
        )

    def _eval_scatter(self, e: A.ScatterExp, env: Env) -> Tuple[Value, ...]:
        dest = self._array(env, e.dest)
        idx = self._array(env, e.idx_arr)
        val = self._array(env, e.val_arr)
        if idx.shape[0] != val.shape[0]:
            raise InterpError("scatter: index/value length mismatch")
        target = dest if self.in_place else dest.copy()
        if not self.in_place:
            self.metrics.copies += 1
            self.metrics.array_elems_touched += dest.data.size
        n = dest.shape[0]
        for i, v in zip(idx.data.tolist(), val.data):
            if 0 <= i < n:
                target.data[int(i)] = v
                self.metrics.updates += 1
                self.metrics.array_elems_touched += 1
        return (target,)


def _index_row(v: ArrayValue, i: int) -> Value:
    sub = v.data[i]
    if sub.ndim == 0:
        return scalar(sub.item(), v.elem)
    return ArrayValue(sub, v.elem)


def _concat_pieces(pieces: List[ArrayValue], width: int) -> ArrayValue:
    if not pieces:
        raise InterpError("stream over empty input with array results "
                          "requires a nonzero width")
    data = np.concatenate([p.data for p in pieces], axis=0)
    if data.shape[0] != width:
        raise InterpError(
            f"stream chunk results concatenate to outer size "
            f"{data.shape[0]}, expected {width}"
        )
    return ArrayValue(data, pieces[0].elem)


def _acc_dtype(v: Value):
    if isinstance(v, ScalarValue):
        return v.type.to_dtype()
    return v.elem.to_dtype()


def _acc_prim(v: Value):
    if isinstance(v, ScalarValue):
        return v.type
    return v.elem


def _value_size(v: Value) -> int:
    if isinstance(v, ScalarValue):
        return 1
    return int(v.data.size)


def run_program(
    prog: A.Prog,
    args: Sequence[Value],
    fname: str = "main",
    in_place: bool = False,
) -> Tuple[Value, ...]:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    return Interpreter(prog, in_place=in_place).run(fname, args)
