"""Batched evaluation of kernel expressions on NumPy.

The reference interpreter runs a map kernel by evaluating its lambda
once per element.  The vector evaluator instead runs the lambda *once*,
over a batch: every scalar in the lambda body becomes an array with one
entry per thread of the flat index space (a :class:`BValue`), and every
scalar operation becomes one NumPy ufunc application.  Nested maps
flatten into the batch (a ``(B, n)`` batch is just a ``B*n`` batch, in
row-major order), which is the evaluation-side mirror of the flattening
transformation the compiler itself performs.

Divergent control flow is handled GPU-style: both branches of a
batched ``if`` are evaluated speculatively and merged with
``np.where``; data-dependent loops run to the longest active trip count
under a lane mask.  In speculative position, trapping inputs (out of
bounds indices, zero divisors, negative sqrt arguments) are substituted
with safe values, because the lanes that would trap discard their
result in the merge — the same contract real GPU kernels have.

Anything outside the vectorizable subset raises :class:`VmFallback`,
and the engine re-runs that kernel on the scalar interpreter; the
evaluator therefore never mutates an array it did not itself allocate,
so a fallback (or a genuine program error) always re-executes from
unmodified inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import ast as A
from ..core.prim import (
    BINOPS,
    BOOL,
    CMPOPS,
    I32,
    UNOPS,
    PrimType,
    eval_binop,
    eval_cmpop,
    eval_convop,
    eval_unop,
    ConvOp,
)
from ..core.types import Array
from ..core.values import ArrayValue, ScalarValue, Value, scalar
from ..interp.interpreter import (
    Interpreter,
    InterpError,
    _concat_pieces,
    _default_chunks,
)

__all__ = ["BValue", "VmFallback", "VectorEvaluator"]


class VmFallback(Exception):
    """Raised when an expression is outside the vectorizable subset.

    Deliberately *not* a :class:`repro.errors.ReproError`: it must never
    escape to users — the engine catches it and re-runs the kernel on
    the reference interpreter."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class BValue:
    """A batched value: one value per thread of the current batch.

    ``data`` has shape ``(B, *per_thread_shape)``; ``rank`` is the
    per-thread rank (0 for a batched scalar), so ``data.ndim ==
    rank + 1`` always holds."""

    data: np.ndarray
    elem: PrimType
    rank: int


class VEnv:
    """A chain of scopes with lazy batch expansion.

    Entering a nested map multiplies the batch by the inner width; a
    scope created with ``expand=n`` records that values inherited from
    its ancestors must be repeated ``n`` times along the batch axis.
    The repeat happens on lookup (and is memoized), so invariant values
    that a lambda never touches are never materialized at the wider
    batch."""

    __slots__ = ("parent", "vars", "expand")

    def __init__(self, parent: Optional["VEnv"] = None, expand: int = 1):
        self.parent = parent
        self.vars: Dict[str, object] = {}
        self.expand = expand

    def child(self, expand: int = 1) -> "VEnv":
        return VEnv(self, expand)

    def set(self, name: str, v) -> None:
        self.vars[name] = v

    def get(self, name: str):
        env: Optional[VEnv] = self
        factor = 1
        while env is not None:
            v = env.vars.get(name)
            if v is not None:
                if factor != 1 and isinstance(v, BValue):
                    v = BValue(
                        np.repeat(v.data, factor, axis=0), v.elem, v.rank
                    )
                    self.vars[name] = v
                return v
            factor *= env.expand
            env = env.parent
        raise KeyError(name)

    def has(self, name: str) -> bool:
        env: Optional[VEnv] = self
        while env is not None:
            if name in env.vars:
                return True
            env = env.parent
        return False


# -- combining-operator recognition ---------------------------------------

#: NumPy ufuncs for the reduction operators whose fold NumPy can run
#: natively.  ``and``/``or`` short-circuit on integers, so only their
#: boolean (logical) forms are safe to lift.  Both the recognition
#: (:func:`_simple_op`, a lambda-body walk) and the ufunc choice are
#: pure functions of immutable inputs, so they are memoized — reduce
#: and scan sites re-run every launch and every loop iteration.
_UFUNC_CACHE: Dict[Tuple[Optional[str], str], object] = {}


def _ufunc_for(op: Optional[str], elem: PrimType):
    key = (op, elem.name)
    try:
        return _UFUNC_CACHE[key]
    except KeyError:
        uf = _UFUNC_CACHE[key] = _ufunc_for_uncached(op, elem)
        return uf


def _ufunc_for_uncached(op: Optional[str], elem: PrimType):
    if op is None:
        return None
    if op in ("add", "mul") and not elem.is_bool:
        return np.add if op == "add" else np.multiply
    if op == "min":
        return np.minimum
    if op == "max":
        return np.maximum
    if op == "xor" and not elem.is_float:
        return np.bitwise_xor
    if op in ("and", "or") and elem.is_bool:
        return np.logical_and if op == "and" else np.logical_or
    return None


def _simple_op(lam: A.Lambda) -> Optional[str]:
    """Recognize ``\\(a, b) -> a op b``, possibly lifted elementwise
    through nested maps (the shape fusion gives vector-valued reduce
    operators).  Returns the operator name, or None."""
    if len(lam.params) != 2:
        return None
    a, b = lam.params
    body = lam.body
    if len(body.bindings) != 1 or len(body.result) != 1:
        return None
    bnd = body.bindings[0]
    res = body.result[0]
    if len(bnd.pat) != 1:
        return None
    if not (isinstance(res, A.Var) and res.name == bnd.pat[0].name):
        return None
    e = bnd.exp
    if isinstance(e, A.BinOpExp):
        if not (isinstance(e.x, A.Var) and isinstance(e.y, A.Var)):
            return None
        names = (e.x.name, e.y.name)
        if names == (a.name, b.name):
            return e.op
        if names == (b.name, a.name) and BINOPS[e.op].commutative:
            return e.op
        return None
    if isinstance(e, A.MapExp):
        names = tuple(v.name for v in e.arrs)
        if names == (a.name, b.name):
            return _simple_op(e.lam)
        if names == (b.name, a.name):
            op = _simple_op(e.lam)
            if op is not None and BINOPS[op].commutative:
                return op
    return None


class VectorEvaluator:
    """Evaluates one kernel's core-IR expression over NumPy batches.

    The public entry point is :meth:`eval_kernel`; everything it
    returns is an ordinary interpreter :class:`Value`, computed to agree
    with the reference interpreter on every program whose selected
    control-flow paths are error-free (see the module docstring for the
    divergent-lane caveat)."""

    def __init__(
        self,
        prog: A.Prog,
        in_place: bool = True,
        chunk_policy=_default_chunks,
    ) -> None:
        self.in_place = in_place
        self.chunk_policy = chunk_policy
        # Function calls (ApplyExp) at uniform arguments delegate to the
        # interpreter; in_place=False so the delegate can never mutate
        # arrays the fallback path might need intact.
        self._interp = Interpreter(prog, in_place=False)
        self._fresh: set = set()
        self._aranges: Dict[int, np.ndarray] = {}
        #: ``_simple_op`` result per lambda (keyed by identity: the
        #: program owns its lambdas for the evaluator's lifetime, so
        #: ids are stable).  Reduce/scan re-recognize their combining
        #: operator on every launch without this.
        self._simple_ops: Dict[int, Optional[str]] = {}
        #: Batch extents of the enclosing map lambdas, innermost last.
        #: Empty means "no batch in scope": only then does a map
        #: introduce one; inside a batch every map extends it.
        self._extents: List[int] = []

    # -- entry point --------------------------------------------------------

    def eval_kernel(self, kernel, env: Dict[str, Value]) -> Tuple[Value, ...]:
        self._fresh = set()
        self._extents = []
        root = VEnv()
        root.vars = env  # read-only view of the host environment
        out = self._eval(kernel.exp, root.child(), False)
        return tuple(self._require_uniform(v) for v in out)

    def _require_uniform(self, v) -> Value:
        if isinstance(v, BValue):
            raise VmFallback("kernel produced an unlowered batched value")
        return v

    # -- small helpers ------------------------------------------------------

    def _atom(self, env: VEnv, a: A.Atom):
        if isinstance(a, A.Const):
            return scalar(a.value, a.type)
        try:
            return env.get(a.name)
        except KeyError:
            raise InterpError(f"unbound variable {a.name}") from None

    def _lam_op(self, lam: A.Lambda) -> Optional[str]:
        key = id(lam)
        try:
            return self._simple_ops[key]
        except KeyError:
            op = self._simple_ops[key] = _simple_op(lam)
            return op

    def _arange(self, n: int) -> np.ndarray:
        r = self._aranges.get(n)
        if r is None:
            r = self._aranges[n] = np.arange(n)
        return r

    def _mark_fresh(self, data: np.ndarray) -> None:
        self._fresh.add(id(data))

    def _owns(self, data: np.ndarray) -> bool:
        """May ``data`` be mutated in place?  Only if this evaluation
        allocated the buffer itself (so a fallback re-run still sees
        pristine inputs)."""
        a = data
        while isinstance(a, np.ndarray):
            if id(a) in self._fresh:
                return bool(data.flags.writeable)
            a = a.base
        return False

    @staticmethod
    def _raw(v) -> np.ndarray:
        if isinstance(v, ScalarValue):
            return np.asarray(v.value, dtype=v.type.to_dtype())
        return v.data

    @staticmethod
    def _elem_of(v) -> PrimType:
        return v.type if isinstance(v, ScalarValue) else v.elem

    def _to_batched(self, v, B: int, copy: bool = False) -> BValue:
        if isinstance(v, BValue):
            if v.data.shape[0] != B:
                raise VmFallback(
                    f"batch width mismatch ({v.data.shape[0]} vs {B})"
                )
            return v
        if isinstance(v, ScalarValue):
            dt = v.type.to_dtype()
            if copy:
                data = np.full((B,), v.value, dtype=dt)
            else:
                data = np.broadcast_to(np.asarray(v.value, dtype=dt), (B,))
            return BValue(data, v.type, 0)
        data = np.broadcast_to(v.data, (B,) + v.data.shape)
        if copy:
            data = data.copy()
        return BValue(data, v.elem, v.data.ndim)

    @staticmethod
    def _wrap_raw(data: np.ndarray, elem: PrimType, batched: bool):
        if batched:
            return BValue(data, elem, data.ndim - 1)
        if data.ndim == 0:
            return scalar(data.item(), elem)
        return ArrayValue(data, elem)

    def _where(self, mask: np.ndarray, t, f) -> BValue:
        """Merge two per-lane values under a boolean lane mask."""
        B = mask.shape[0]
        tb = self._to_batched(t, B)
        fb = self._to_batched(f, B)
        if tb.rank != fb.rank:
            raise VmFallback("merge of values with different ranks")
        m = mask.reshape((B,) + (1,) * tb.rank)
        data = np.where(m, tb.data, fb.data)
        self._mark_fresh(data)
        return BValue(data, tb.elem, tb.rank)

    def _bind_param(self, env: VEnv, p: A.Param, v) -> None:
        """Bind a value, unifying any not-yet-bound symbolic sizes in
        the parameter's declared type (the batched analogue of the
        interpreter's checked bind; shape errors surface as fallbacks
        elsewhere)."""
        t = p.type
        if isinstance(t, Array):
            if isinstance(v, BValue):
                shape = v.data.shape[1:]
            elif isinstance(v, ArrayValue):
                shape = v.data.shape
            else:
                raise InterpError(
                    f"binding of {p.name}: expected array, got scalar"
                )
            for d, actual in zip(t.shape, shape):
                if isinstance(d, str) and not env.has(d):
                    env.set(d, scalar(int(actual), I32))
        env.set(p.name, v)

    def _eval_body(self, body: A.Body, env: VEnv, spec: bool):
        for bnd in body.bindings:
            results = self._eval(bnd.exp, env, spec)
            if len(results) != len(bnd.pat):
                raise InterpError(
                    f"pattern arity mismatch: {len(bnd.pat)} names for "
                    f"{len(results)} values"
                )
            for p, v in zip(bnd.pat, results):
                self._bind_param(env, p, v)
        return tuple(self._atom(env, a) for a in body.result)

    def _apply_lambda(self, lam: A.Lambda, args, env: VEnv, spec: bool):
        if len(args) != len(lam.params):
            raise InterpError("lambda arity mismatch")
        child = env.child()
        for p, a in zip(lam.params, args):
            self._bind_param(child, p, a)
        return self._eval_body(lam.body, child, spec)

    @staticmethod
    def _row(v, i: int):
        """Element ``i`` of a (possibly batched) array, per thread."""
        if isinstance(v, BValue):
            return BValue(v.data[:, i], v.elem, v.rank - 1)
        sub = v.data[i]
        if sub.ndim == 0:
            return scalar(sub.item(), v.elem)
        return ArrayValue(sub, v.elem)

    # -- dispatch -----------------------------------------------------------

    def _eval(self, e: A.Exp, env: VEnv, spec: bool):
        fn = _DISPATCH.get(type(e))
        if fn is None:
            raise VmFallback(f"cannot vectorize {type(e).__name__}")
        return fn(self, e, env, spec)

    # -- scalar operators ---------------------------------------------------

    def _eval_atomexp(self, e: A.AtomExp, env: VEnv, spec: bool):
        return (self._atom(env, e.atom),)

    def _eval_binop(self, e: A.BinOpExp, env: VEnv, spec: bool):
        x = self._atom(env, e.x)
        y = self._atom(env, e.y)
        if isinstance(x, ScalarValue) and isinstance(y, ScalarValue):
            try:
                return (
                    scalar(eval_binop(BINOPS[e.op], e.t, x.value, y.value), e.t),
                )
            except Exception as err:
                if spec:
                    raise VmFallback(f"uniform {e.op} trapped: {err}")
                raise
        xd, yd = self._scalar_operands(e.t, x, y)
        with np.errstate(all="ignore"):
            out = self._np_binop(e.op, e.t, xd, yd, spec)
        dt = e.t.to_dtype()
        if out.dtype != dt:
            out = out.astype(dt)
        return (BValue(out, e.t, 0),)

    def _scalar_operands(self, t: PrimType, x, y):
        dt = t.to_dtype()
        for v in (x, y):
            if isinstance(v, (ArrayValue,)) or (
                isinstance(v, BValue) and v.rank != 0
            ):
                raise InterpError("expected scalar operand")
        xd = (
            x.data
            if isinstance(x, BValue)
            else np.asarray(x.value, dtype=dt)
        )
        yd = (
            y.data
            if isinstance(y, BValue)
            else np.asarray(y.value, dtype=dt)
        )
        return xd, yd

    def _np_binop(self, op, t, x, y, spec):
        if op == "add":
            return x + y
        if op == "sub":
            return x - y
        if op == "mul":
            return x * y
        if op in ("div", "idiv", "imod"):
            bad = y == 0
            if bad.any():
                if not spec:
                    raise VmFallback("zero divisor in batch")
                y = np.where(bad, y.dtype.type(1), y)
            if op == "div":
                return x / y
            return x // y if op == "idiv" else np.mod(x, y)
        if op == "min":
            return np.minimum(x, y)
        if op == "max":
            return np.maximum(x, y)
        if op == "pow":
            if t.is_float:
                bad = (x < 0) & (np.mod(y, 1) != 0)
                if bad.any():
                    if not spec:
                        raise VmFallback("fractional power of negative base")
                    x = np.where(bad, -x, x)
                r = np.power(x, y)
                if not spec and (
                    np.isinf(r) & np.isfinite(x) & np.isfinite(y)
                ).any():
                    raise VmFallback("float pow overflow in batch")
                return r
            bad = y < 0
            if bad.any():
                if not spec:
                    raise VmFallback("negative integer exponent in batch")
                y = np.where(bad, 0, y)
            return np.power(x, y)
        if op == "and":
            return np.where(self._truthy(x), y, x)
        if op == "or":
            return np.where(self._truthy(x), x, y)
        if op == "xor":
            return np.bitwise_xor(x, y)
        if op in ("shl", "shr"):
            bad = (y < 0) | (y >= t.bitwidth)
            if bad.any():
                if not spec:
                    raise VmFallback("out-of-range shift count in batch")
                y = np.clip(y, 0, t.bitwidth - 1)
            return np.left_shift(x, y) if op == "shl" else np.right_shift(x, y)
        raise VmFallback(f"unknown binary operator {op}")

    @staticmethod
    def _truthy(x):
        return x if x.dtype == np.bool_ else x != 0

    def _eval_cmpop(self, e: A.CmpOpExp, env: VEnv, spec: bool):
        x = self._atom(env, e.x)
        y = self._atom(env, e.y)
        if isinstance(x, ScalarValue) and isinstance(y, ScalarValue):
            return (scalar(eval_cmpop(CMPOPS[e.op], x.value, y.value), BOOL),)
        xd, yd = self._scalar_operands(e.t, x, y)
        return (BValue(_NP_CMPOPS[e.op](xd, yd), BOOL, 0),)

    def _eval_unop(self, e: A.UnOpExp, env: VEnv, spec: bool):
        x = self._atom(env, e.x)
        if isinstance(x, ScalarValue):
            try:
                return (scalar(eval_unop(UNOPS[e.op], e.t, x.value), e.t),)
            except Exception as err:
                if spec:
                    raise VmFallback(f"uniform {e.op} trapped: {err}")
                raise
        if not isinstance(x, BValue) or x.rank != 0:
            raise InterpError("expected scalar operand")
        xd = x.data
        op = e.op
        if op == "log":
            bad = xd <= 0
            if bad.any():
                if not spec:
                    raise VmFallback("log of non-positive value in batch")
                xd = np.where(bad, xd.dtype.type(1), xd)
        elif op == "sqrt":
            bad = xd < 0
            if bad.any():
                if not spec:
                    raise VmFallback("sqrt of negative value in batch")
                xd = np.where(bad, -xd, xd)
        fn = _NP_UNOPS.get(op)
        if fn is None:
            raise VmFallback(f"unknown unary operator {op}")
        with np.errstate(all="ignore"):
            out = fn(xd)
        if op == "exp" and not spec:
            if (np.isinf(out) & np.isfinite(xd)).any():
                raise VmFallback("exp overflow in batch")
        dt = e.t.to_dtype()
        if out.dtype != dt:
            out = out.astype(dt)
        return (BValue(out, e.t, 0),)

    def _eval_convop(self, e: A.ConvOpExp, env: VEnv, spec: bool):
        x = self._atom(env, e.x)
        if isinstance(x, ScalarValue):
            return (scalar(eval_convop(ConvOp("conv", e.to_t), x.value), e.to_t),)
        if not isinstance(x, BValue) or x.rank != 0:
            raise InterpError("expected scalar operand")
        xd = x.data
        if e.from_t.is_float and e.to_t.is_integral:
            bad = ~np.isfinite(xd)
            if bad.any():
                if not spec:
                    raise VmFallback("non-finite float to int conversion")
                xd = np.where(bad, xd.dtype.type(0), xd)
        return (BValue(xd.astype(e.to_t.to_dtype()), e.to_t, 0),)

    # -- control flow -------------------------------------------------------

    def _eval_if(self, e: A.IfExp, env: VEnv, spec: bool):
        cond = self._atom(env, e.cond)
        if isinstance(cond, ScalarValue):
            branch = e.t_body if cond.value else e.f_body
            return self._eval_body(branch, env.child(), spec)
        mask = cond.data.astype(bool)
        # Convergent batches take one branch non-speculatively.
        if mask.all():
            return self._eval_body(e.t_body, env.child(), spec)
        if not mask.any():
            return self._eval_body(e.f_body, env.child(), spec)
        tvals = self._eval_body(e.t_body, env.child(), True)
        fvals = self._eval_body(e.f_body, env.child(), True)
        return tuple(
            self._where(mask, t, f) for t, f in zip(tvals, fvals)
        )

    def _eval_loop(self, e: A.LoopExp, env: VEnv, spec: bool):
        state = [self._atom(env, a) for _, a in e.merge]
        params = [p for p, _ in e.merge]

        def run_body(extra: Dict[str, Value], s, sp: bool):
            child = env.child()
            for k, v in extra.items():
                child.set(k, v)
            for p, v in zip(params, s):
                self._bind_param(child, p, v)
            results = self._eval_body(e.body, child, sp)
            if len(results) != len(s):
                raise InterpError("loop body arity mismatch")
            return list(results)

        if isinstance(e.form, A.ForLoop):
            bound = self._atom(env, e.form.bound)
            if isinstance(bound, ScalarValue):
                for i in range(int(bound.value)):
                    state = run_body({e.form.ivar: scalar(i, I32)}, state, spec)
            elif isinstance(bound, BValue) and bound.rank == 0:
                bounds = bound.data
                trip = int(bounds.max()) if bounds.size else 0
                for i in range(trip):
                    active = bounds > i
                    if active.all():
                        state = run_body(
                            {e.form.ivar: scalar(i, I32)}, state, spec
                        )
                    else:
                        new = run_body(
                            {e.form.ivar: scalar(i, I32)}, state, True
                        )
                        state = [
                            self._where(active, n, o)
                            for n, o in zip(new, state)
                        ]
            else:
                raise InterpError("for-loop bound must be a scalar")
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
                if isinstance(cond, ScalarValue):
                    if not cond.value:
                        break
                    state = run_body({}, state, spec)
                elif isinstance(cond, BValue) and cond.rank == 0:
                    active = cond.data.astype(bool)
                    if not active.any():
                        break
                    if active.all():
                        state = run_body({}, state, spec)
                    else:
                        new = run_body({}, state, True)
                        state = [
                            self._where(active, n, o)
                            for n, o in zip(new, state)
                        ]
                else:
                    raise InterpError("while condition must be a boolean")
                guard += 1
                if guard > 10_000_000:
                    raise InterpError("while loop exceeded iteration guard")
        return tuple(state)

    # -- array primitives ---------------------------------------------------

    def _eval_index(self, e: A.IndexExp, env: VEnv, spec: bool):
        arr = self._atom(env, e.arr)
        idxs = [self._atom(env, i) for i in e.idxs]
        if isinstance(arr, ScalarValue):
            raise InterpError(f"expected array, got scalar for {e.arr}")
        batched = isinstance(arr, BValue) or any(
            isinstance(i, BValue) for i in idxs
        )
        if not batched:
            ii = [int(i.value) for i in idxs]
            for k, (i, d) in enumerate(zip(ii, arr.data.shape)):
                if not (0 <= i < d):
                    if spec:
                        raise VmFallback("uniform index out of bounds")
                    raise InterpError(
                        f"index out of bounds: {e.arr.name}[..{i}..] with "
                        f"dimension {k} of size {d}"
                    )
            sub = arr.data[tuple(ii)]
            if sub.ndim == 0:
                return (scalar(sub.item(), arr.elem),)
            return (ArrayValue(sub, arr.elem),)
        if isinstance(arr, BValue):
            B = arr.data.shape[0]
            dims = arr.data.shape[1:]
            out_rank = arr.rank - len(idxs)
        else:
            B = next(
                i.data.shape[0] for i in idxs if isinstance(i, BValue)
            )
            dims = arr.data.shape
            out_rank = arr.data.ndim - len(idxs)
        if out_rank < 0:
            raise InterpError("too many indices")
        parts: List = []
        all_uniform_idxs = True
        for iv, d in zip(idxs, dims):
            if isinstance(iv, BValue):
                if iv.rank != 0:
                    raise InterpError("array used as index")
                all_uniform_idxs = False
                ia = iv.data
                if spec:
                    ia = np.clip(ia, 0, d - 1)
                elif ia.size and ((ia < 0) | (ia >= d)).any():
                    raise VmFallback("out-of-bounds gather in batch")
                parts.append(ia)
            elif isinstance(iv, ScalarValue):
                i = int(iv.value)
                if not (0 <= i < d):
                    if spec:
                        i = min(max(i, 0), d - 1)
                    else:
                        raise VmFallback("uniform index out of bounds")
                parts.append(i)
            else:
                raise InterpError("array used as index")
        if isinstance(arr, BValue):
            if all_uniform_idxs:
                data = arr.data[(slice(None),) + tuple(parts)]
            else:
                data = arr.data[(self._arange(B),) + tuple(parts)]
                self._mark_fresh(data)  # advanced indexing copies
        else:
            data = arr.data[tuple(parts)]
            self._mark_fresh(data)
        return (BValue(data, arr.elem, out_rank),)

    def _eval_update(self, e: A.UpdateExp, env: VEnv, spec: bool):
        arr = self._atom(env, e.arr)
        idxs = [self._atom(env, i) for i in e.idxs]
        value = self._atom(env, e.value)
        if isinstance(arr, ScalarValue):
            raise InterpError(f"expected array, got scalar for {e.arr}")
        batched = (
            isinstance(arr, BValue)
            or isinstance(value, BValue)
            or any(isinstance(i, BValue) for i in idxs)
        )
        if not batched:
            ii = [int(i.value) for i in idxs]
            for k, (i, d) in enumerate(zip(ii, arr.data.shape)):
                if not (0 <= i < d):
                    if spec:
                        raise VmFallback("uniform update out of bounds")
                    raise InterpError(
                        f"update out of bounds: {e.arr.name} with "
                        f"[..{i}..] <- ... at dimension {k} of size {d}"
                    )
            if self.in_place and not spec and self._owns(arr.data):
                target = arr
            else:
                target = ArrayValue(arr.data.copy(), arr.elem)
                self._mark_fresh(target.data)
            if isinstance(value, ScalarValue):
                target.data[tuple(ii)] = value.value
            else:
                target.data[tuple(ii)] = value.data
            return (target,)
        if not isinstance(arr, BValue):
            # A uniform array updated at batched positions is one value
            # per lane diverging from a shared original — materialize.
            B = next(
                v.data.shape[0]
                for v in idxs + [value]
                if isinstance(v, BValue)
            )
            arr = self._to_batched(arr, B, copy=True)
            self._mark_fresh(arr.data)
        B = arr.data.shape[0]
        dims = arr.data.shape[1:]
        if len(idxs) > arr.rank:
            raise InterpError("too many indices")
        parts: List = []
        for iv, d in zip(idxs, dims):
            if isinstance(iv, BValue):
                if iv.rank != 0:
                    raise InterpError("array used as index")
                ia = iv.data
                if spec:
                    ia = np.clip(ia, 0, d - 1)
                elif ia.size and ((ia < 0) | (ia >= d)).any():
                    raise VmFallback("out-of-bounds scatter in batch")
                parts.append(ia)
            elif isinstance(iv, ScalarValue):
                i = int(iv.value)
                if not (0 <= i < d):
                    if spec:
                        i = min(max(i, 0), d - 1)
                    else:
                        raise VmFallback("uniform index out of bounds")
                parts.append(i)
            else:
                raise InterpError("array used as index")
        if not spec and self._owns(arr.data):
            data = arr.data
        else:
            data = arr.data.copy()
            self._mark_fresh(data)
        if isinstance(value, BValue):
            vd = value.data
        elif isinstance(value, ScalarValue):
            vd = value.value
        else:
            vd = value.data
        data[(self._arange(B),) + tuple(parts)] = vd
        return (BValue(data, arr.elem, arr.rank),)

    def _eval_iota(self, e: A.IotaExp, env: VEnv, spec: bool):
        n = self._atom(env, e.n)
        if isinstance(n, BValue):
            raise VmFallback("iota of batched size")
        n = int(n.value)
        if n < 0:
            raise InterpError(f"iota of negative size {n}")
        data = np.arange(n, dtype=np.int32)
        self._mark_fresh(data)
        return (ArrayValue(data, I32),)

    def _eval_replicate(self, e: A.ReplicateExp, env: VEnv, spec: bool):
        n = self._atom(env, e.n)
        if isinstance(n, BValue):
            raise VmFallback("replicate of batched size")
        n = int(n.value)
        if n < 0:
            raise InterpError(f"replicate of negative size {n}")
        v = self._atom(env, e.value)
        if isinstance(v, ScalarValue):
            data = np.full(n, v.value, dtype=v.type.to_dtype())
            self._mark_fresh(data)
            return (ArrayValue(data, v.type),)
        if isinstance(v, ArrayValue):
            data = np.broadcast_to(v.data, (n,) + v.data.shape).copy()
            self._mark_fresh(data)
            return (ArrayValue(data, v.elem),)
        # Batched replicated value: per-thread result has outer size n.
        data = np.repeat(v.data[:, None], n, axis=1)
        self._mark_fresh(data)
        return (BValue(data, v.elem, v.rank + 1),)

    def _eval_rearrange(self, e: A.RearrangeExp, env: VEnv, spec: bool):
        arr = self._atom(env, e.arr)
        if isinstance(arr, ScalarValue):
            raise InterpError(f"expected array, got scalar for {e.arr}")
        rank = arr.rank if isinstance(arr, BValue) else arr.data.ndim
        if sorted(e.perm) != list(range(rank)):
            raise InterpError(
                f"rearrange {e.perm} does not permute rank {rank}"
            )
        if isinstance(arr, BValue):
            perm = (0,) + tuple(p + 1 for p in e.perm)
            return (BValue(np.transpose(arr.data, perm), arr.elem, arr.rank),)
        return (ArrayValue(np.transpose(arr.data, e.perm), arr.elem),)

    def _eval_reshape(self, e: A.ReshapeExp, env: VEnv, spec: bool):
        arr = self._atom(env, e.arr)
        shape = []
        for s in e.shape:
            v = self._atom(env, s)
            if isinstance(v, BValue):
                raise VmFallback("reshape to batched shape")
            shape.append(int(v.value))
        shape = tuple(shape)
        if isinstance(arr, ScalarValue):
            raise InterpError(f"expected array, got scalar for {e.arr}")
        if isinstance(arr, BValue):
            B = arr.data.shape[0]
            per_thread = int(np.prod(arr.data.shape[1:], dtype=np.int64))
            if int(np.prod(shape, dtype=np.int64)) != per_thread:
                raise InterpError("reshape changes element count")
            return (
                BValue(arr.data.reshape((B,) + shape), arr.elem, len(shape)),
            )
        if int(np.prod(shape, dtype=np.int64)) != arr.data.size:
            raise InterpError(
                f"reshape to {shape} changes element count of "
                f"{e.arr.name} ({arr.data.size})"
            )
        return (ArrayValue(arr.data.reshape(shape), arr.elem),)

    def _eval_copy(self, e: A.CopyExp, env: VEnv, spec: bool):
        arr = self._atom(env, e.arr)
        if isinstance(arr, ScalarValue):
            raise InterpError(f"expected array, got scalar for {e.arr}")
        data = arr.data.copy()
        self._mark_fresh(data)
        if isinstance(arr, BValue):
            return (BValue(data, arr.elem, arr.rank),)
        return (ArrayValue(data, arr.elem),)

    def _eval_concat(self, e: A.ConcatExp, env: VEnv, spec: bool):
        arrs = [self._atom(env, a) for a in e.arrs]
        if any(isinstance(a, ScalarValue) for a in arrs):
            raise InterpError("concat of scalars")
        if any(isinstance(a, BValue) for a in arrs):
            B = next(a.data.shape[0] for a in arrs if isinstance(a, BValue))
            bs = [self._to_batched(a, B) for a in arrs]
            inner = bs[0].data.shape[2:]
            for b in bs[1:]:
                if b.data.shape[2:] != inner:
                    raise InterpError("concat of arrays with unequal rows")
            data = np.concatenate([b.data for b in bs], axis=1)
            self._mark_fresh(data)
            return (BValue(data, bs[0].elem, bs[0].rank),)
        inner = arrs[0].data.shape[1:]
        for a in arrs[1:]:
            if a.data.shape[1:] != inner:
                raise InterpError("concat of arrays with unequal rows")
        data = np.concatenate([a.data for a in arrs], axis=0)
        self._mark_fresh(data)
        return (ArrayValue(data, arrs[0].elem),)

    def _eval_apply(self, e: A.ApplyExp, env: VEnv, spec: bool):
        args = [self._atom(env, a) for a in e.args]
        if any(isinstance(a, BValue) for a in args):
            raise VmFallback("function call at batched arguments")
        if spec:
            try:
                return self._interp.run(e.fname, args)
            except Exception as err:
                raise VmFallback(f"uniform call trapped: {err}")
        return self._interp.run(e.fname, args)

    # -- SOACs --------------------------------------------------------------

    def _soac_inputs(self, env: VEnv, width_atom, arrs, what: str):
        width = self._atom(env, width_atom)
        if isinstance(width, BValue):
            raise VmFallback(f"{what} of batched width")
        width = int(width.value)
        vals = [self._atom(env, a) for a in arrs]
        for a, v in zip(arrs, vals):
            if isinstance(v, ScalarValue):
                raise InterpError(f"expected array, got scalar for {a}")
            outer = v.data.shape[1] if isinstance(v, BValue) else v.data.shape[0]
            if outer != width:
                raise InterpError(
                    f"{what}: input {a.name} has outer size {outer}, "
                    f"expected {width}"
                )
        return width, vals

    def _eval_map(self, e: A.MapExp, env: VEnv, spec: bool):
        width, vals = self._soac_inputs(env, e.width, e.arrs, "map")
        if width == 0 or not vals:
            raise VmFallback("map without vectorizable extent")
        if self._extents:
            return self._map_batched(e, env, spec, width, vals)
        child = env.child()
        for p, v in zip(e.lam.params, vals):
            self._bind_param(
                child, p, BValue(v.data, v.elem, v.data.ndim - 1)
            )
        self._extents.append(width)
        try:
            outs = self._eval_body(e.lam.body, child, spec)
        finally:
            self._extents.pop()
        results = []
        for o in outs:
            b = self._to_batched(o, width, copy=True)
            out = ArrayValue(b.data, b.elem)
            if not isinstance(o, BValue):
                # The batched lambda result may be a view of an input
                # (an identity map); only broadcast copies are owned.
                self._mark_fresh(out.data)
            results.append(out)
        return tuple(results)

    def _map_batched(self, e, env: VEnv, spec: bool, width: int, vals):
        """A map inside a batch extends it: flatten ``(B, n)`` into a
        ``B*n`` batch (row-major — exactly the order the flat index
        space enumerates), evaluate once, and fold the axis back.
        Uniform inputs are tiled and captured lane values repeated on
        lookup (``VEnv.get``), so the lambda may read the enclosing
        batch."""
        B = self._extents[-1]
        child = env.child(expand=width)
        for p, v in zip(e.lam.params, vals):
            if isinstance(v, BValue):
                if v.data.shape[0] != B:
                    raise VmFallback("batch width mismatch in map")
                data = v.data.reshape((B * width,) + v.data.shape[2:])
                self._bind_param(child, p, BValue(data, v.elem, v.rank - 1))
            else:
                data = np.tile(v.data, (B,) + (1,) * (v.data.ndim - 1))
                self._bind_param(
                    child, p, BValue(data, v.elem, v.data.ndim - 1)
                )
        self._extents.append(B * width)
        try:
            outs = self._eval_body(e.lam.body, child, spec)
        finally:
            self._extents.pop()
        results = []
        for o in outs:
            b = self._to_batched(o, B * width)
            data = b.data.reshape((B, width) + b.data.shape[1:])
            results.append(BValue(data, b.elem, b.rank + 1))
        return tuple(results)

    def _eval_reduce(self, e: A.ReduceExp, env: VEnv, spec: bool):
        width, vals = self._soac_inputs(env, e.width, e.arrs, "reduce")
        neutral = [self._atom(env, a) for a in e.neutral]
        if width == 0:
            return tuple(neutral)
        if len(vals) == 1 and len(neutral) == 1:
            v = vals[0]
            op = self._lam_op(e.lam)
            uf = _ufunc_for(op, v.elem)
            if uf is not None:
                if isinstance(v, BValue):
                    red = uf.reduce(v.data, axis=1)
                else:
                    red = uf.reduce(v.data, axis=0)
                return (
                    self._combine(
                        op, neutral[0], red, isinstance(v, BValue), scan=False
                    ),
                )
        acc = list(neutral)
        for i in range(width):
            args = acc + [self._row(v, i) for v in vals]
            acc = list(self._apply_lambda(e.lam, args, env, spec))
        return tuple(acc)

    def _eval_scan(self, e: A.ScanExp, env: VEnv, spec: bool):
        width, vals = self._soac_inputs(env, e.width, e.arrs, "scan")
        if width == 0:
            raise VmFallback("zero-width scan")
        neutral = [self._atom(env, a) for a in e.neutral]
        if len(vals) == 1 and len(neutral) == 1:
            v = vals[0]
            op = self._lam_op(e.lam)
            uf = _ufunc_for(op, v.elem)
            if uf is not None:
                if isinstance(v, BValue):
                    acc = uf.accumulate(v.data, axis=1)
                else:
                    acc = uf.accumulate(v.data, axis=0)
                return (
                    self._combine(
                        op, neutral[0], acc, isinstance(v, BValue), scan=True
                    ),
                )
        acc = list(neutral)
        rows = []
        for i in range(width):
            args = acc + [self._row(v, i) for v in vals]
            acc = list(self._apply_lambda(e.lam, args, env, spec))
            rows.append(tuple(acc))
        return tuple(
            self._stack_column([r[j] for r in rows])
            for j in range(len(acc))
        )

    def _combine(self, op, neutral, red: np.ndarray, red_batched, scan):
        """``neutral ⊕ folded`` — the interpreter folds starting from
        the neutral element, so it must be applied even though it is
        (semantically) an identity: a non-neutral "neutral" must give
        the same answer here as there."""
        batched = red_batched or isinstance(neutral, BValue)
        nd = self._raw(neutral)
        if scan and isinstance(neutral, BValue):
            nd = nd[:, None]
        elem = self._elem_of(neutral)
        with np.errstate(all="ignore"):
            data = self._np_binop(op, elem, nd, red, False)
        dt = elem.to_dtype()
        if data.dtype != dt:
            data = data.astype(dt)
        return self._wrap_raw(data, elem, batched)

    def _stack_column(self, col):
        if any(isinstance(c, BValue) for c in col):
            B = next(c.data.shape[0] for c in col if isinstance(c, BValue))
            datas = [self._to_batched(c, B).data for c in col]
            data = np.stack(datas, axis=1)
            return BValue(data, self._elem_of(col[0]), data.ndim - 1)
        if all(isinstance(c, ScalarValue) for c in col):
            t = col[0].type
            return ArrayValue(
                np.array([c.value for c in col], dtype=t.to_dtype()), t
            )
        shapes = {c.data.shape for c in col}
        if len(shapes) != 1:
            raise InterpError("irregular array produced")
        return ArrayValue(np.stack([c.data for c in col]), col[0].elem)

    # -- streams ------------------------------------------------------------

    def _chunks(self, width: int, vals):
        sizes = list(self.chunk_policy(width))
        if sum(sizes) != width or any(s <= 0 for s in sizes):
            raise InterpError(
                f"chunk policy returned {sizes}, which does not "
                f"partition a stream of width {width}"
            )
        offset = 0
        for size in sizes:
            yield size, [
                ArrayValue(v.data[offset:offset + size], v.elem)
                for v in vals
            ]
            offset += size

    def _stream_inputs(self, env: VEnv, e, what: str):
        width, vals = self._soac_inputs(env, e.width, e.arrs, what)
        if self._extents or any(isinstance(v, BValue) for v in vals):
            raise VmFallback(f"batched {what}")
        if width == 0:
            raise VmFallback(f"zero-width {what}")
        return width, vals

    def _eval_stream_map(self, e: A.StreamMapExp, env: VEnv, spec: bool):
        width, vals = self._stream_inputs(env, e, "stream_map")
        n_out = len(e.lam.ret_types)
        pieces: List[List[ArrayValue]] = [[] for _ in range(n_out)]
        for size, chunks in self._chunks(width, vals):
            args = [scalar(size, I32)] + list(chunks)
            outs = self._apply_lambda(e.lam, args, env, spec)
            for j, out in enumerate(outs):
                if not isinstance(out, ArrayValue):
                    raise InterpError("stream_map chunk result must be array")
                pieces[j].append(out)
        return tuple(_concat_pieces(p, width) for p in pieces)

    def _eval_stream_red(self, e: A.StreamRedExp, env: VEnv, spec: bool):
        width, vals = self._stream_inputs(env, e, "stream_red")
        n_acc = e.num_accs
        init = [self._atom(env, a) for a in e.accs]
        if any(isinstance(a, BValue) for a in init):
            raise VmFallback("batched stream_red accumulator")
        n_arr_out = len(e.fold_lam.ret_types) - n_acc
        pieces: List[List[ArrayValue]] = [[] for _ in range(n_arr_out)]
        acc = None
        for size, chunks in self._chunks(width, vals):
            chunk_init = []
            for a in init:
                if isinstance(a, ArrayValue):
                    a = a.copy()
                    self._mark_fresh(a.data)
                chunk_init.append(a)
            args = [scalar(size, I32)] + chunk_init + list(chunks)
            outs = self._apply_lambda(e.fold_lam, args, env, spec)
            chunk_acc = list(outs[:n_acc])
            for j, out in enumerate(outs[n_acc:]):
                if not isinstance(out, ArrayValue):
                    raise InterpError("stream_red chunk result must be array")
                pieces[j].append(out)
            if acc is None:
                acc = chunk_acc
            else:
                acc = list(
                    self._apply_lambda(e.red_lam, acc + chunk_acc, env, spec)
                )
        if acc is None:
            acc = init
        if any(isinstance(a, BValue) for a in acc):
            raise VmFallback("batched stream_red result")
        arrays = [_concat_pieces(p, width) for p in pieces]
        return tuple(acc) + tuple(arrays)

    def _eval_stream_seq(self, e: A.StreamSeqExp, env: VEnv, spec: bool):
        width, vals = self._stream_inputs(env, e, "stream_seq")
        n_acc = e.num_accs
        acc = [self._atom(env, a) for a in e.accs]
        if any(isinstance(a, BValue) for a in acc):
            raise VmFallback("batched stream_seq accumulator")
        n_arr_out = len(e.lam.ret_types) - n_acc
        pieces: List[List[ArrayValue]] = [[] for _ in range(n_arr_out)]
        for size, chunks in self._chunks(width, vals):
            args = [scalar(size, I32)] + acc + list(chunks)
            outs = self._apply_lambda(e.lam, args, env, spec)
            acc = list(outs[:n_acc])
            for j, out in enumerate(outs[n_acc:]):
                if not isinstance(out, ArrayValue):
                    raise InterpError("stream_seq chunk result must be array")
                pieces[j].append(out)
        if any(isinstance(a, BValue) for a in acc):
            raise VmFallback("batched stream_seq result")
        arrays = [_concat_pieces(p, width) for p in pieces]
        return tuple(acc) + tuple(arrays)

    def _eval_filter(self, e: A.FilterExp, env: VEnv, spec: bool):
        width, (val,) = self._soac_inputs(env, e.width, (e.arr,), "filter")
        if self._extents or isinstance(val, BValue):
            raise VmFallback("batched filter")
        if width == 0:
            raise VmFallback("zero-width filter")
        child = env.child()
        self._bind_param(
            child,
            e.lam.params[0],
            BValue(val.data, val.elem, val.data.ndim - 1),
        )
        self._extents.append(width)
        try:
            (flag,) = self._eval_body(e.lam.body, child, spec)
        finally:
            self._extents.pop()
        mask = self._to_batched(flag, width)
        if not mask.elem.is_bool or mask.rank != 0:
            raise InterpError("filter predicate must return bool")
        m = mask.data.astype(bool)
        data = val.data[m]
        self._mark_fresh(data)
        return (scalar(int(m.sum()), I32), ArrayValue(data, val.elem))

    def _eval_scatter(self, e: A.ScatterExp, env: VEnv, spec: bool):
        dest = self._atom(env, e.dest)
        idx = self._atom(env, e.idx_arr)
        val = self._atom(env, e.val_arr)
        if any(isinstance(v, BValue) for v in (dest, idx, val)):
            raise VmFallback("batched scatter")
        if any(isinstance(v, ScalarValue) for v in (dest, idx, val)):
            raise InterpError("scatter operands must be arrays")
        if idx.data.shape[0] != val.data.shape[0]:
            raise InterpError("scatter: index/value length mismatch")
        if self.in_place and not spec and self._owns(dest.data):
            data = dest.data
        else:
            data = dest.data.copy()
            self._mark_fresh(data)
        n = data.shape[0]
        iv = idx.data
        ok = (iv >= 0) & (iv < n)
        # NumPy fancy assignment applies duplicates in order, so the
        # last write wins — the same as the interpreter's loop.
        data[iv[ok].astype(np.int64)] = val.data[ok]
        return (ArrayValue(data, dest.elem),)


_NP_CMPOPS = {
    "eq": np.equal,
    "neq": np.not_equal,
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
}

_NP_UNOPS = {
    "neg": np.negative,
    "not": np.logical_not,
    "abs": np.abs,
    "sgn": np.sign,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "atan": np.arctan,
    "floor": np.floor,
    "ceil": np.ceil,
}

_DISPATCH = {
    A.AtomExp: VectorEvaluator._eval_atomexp,
    A.BinOpExp: VectorEvaluator._eval_binop,
    A.CmpOpExp: VectorEvaluator._eval_cmpop,
    A.UnOpExp: VectorEvaluator._eval_unop,
    A.ConvOpExp: VectorEvaluator._eval_convop,
    A.IfExp: VectorEvaluator._eval_if,
    A.IndexExp: VectorEvaluator._eval_index,
    A.UpdateExp: VectorEvaluator._eval_update,
    A.IotaExp: VectorEvaluator._eval_iota,
    A.ReplicateExp: VectorEvaluator._eval_replicate,
    A.RearrangeExp: VectorEvaluator._eval_rearrange,
    A.ReshapeExp: VectorEvaluator._eval_reshape,
    A.CopyExp: VectorEvaluator._eval_copy,
    A.ConcatExp: VectorEvaluator._eval_concat,
    A.ApplyExp: VectorEvaluator._eval_apply,
    A.LoopExp: VectorEvaluator._eval_loop,
    A.MapExp: VectorEvaluator._eval_map,
    A.ReduceExp: VectorEvaluator._eval_reduce,
    A.ScanExp: VectorEvaluator._eval_scan,
    A.StreamMapExp: VectorEvaluator._eval_stream_map,
    A.StreamRedExp: VectorEvaluator._eval_stream_red,
    A.StreamSeqExp: VectorEvaluator._eval_stream_seq,
    A.FilterExp: VectorEvaluator._eval_filter,
    A.ScatterExp: VectorEvaluator._eval_scatter,
}
