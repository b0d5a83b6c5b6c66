"""Kernel transpiler: core-IR kernel expressions to Python/NumPy source.

The reference interpreter runs a map kernel by evaluating its lambda
once per element.  This module walks the kernel's IR tree *once* per
launch signature and emits a straight-line NumPy program that runs the
lambda once over a *batch*: every scalar in the lambda body becomes an
array with one entry per thread of the flat index space, every scalar
operation becomes one ufunc application over a named local, and every
constant is hoisted to module level.  Nested maps extend the batch (a
``(B, n)`` batch is a ``B*n`` batch in row-major order) — the
execution-side mirror of the flattening the compiler itself performs.
This is the one kernel lowering of the repository; the rules below are
its definition.

Values are tracked statically as :class:`JVal` descriptors — a kind
(uniform scalar ``S``, uniform array ``A``, or batched ``B``), element
type and rank.  The kinds are fully static because a kernel launch
environment contains only uniform values: batched values are
introduced (and eliminated) by the SOAC structure of the expression
itself, which the transpiler sees.  Uniform scalar arithmetic calls the
very same ``eval_binop``/``eval_unop``/... used by the interpreter, so
scalar results are bit-identical by construction; batched arithmetic
emits guarded ufunc sequences (:meth:`KernelCodegen._np_binop`).

Associative folds run the way a GPU runs them: a kernel-level
``reduce`` as a log-depth pairwise tree, a ``stream_red`` with one
chunk per lane and a tree over the lane accumulators
(:meth:`KernelCodegen._tree_combine`).

Divergent control flow is handled GPU-style: both branches of a
batched ``if`` run speculatively and merge with ``np.where``;
data-dependent loops run to the longest active trip count under a lane
mask.  In speculative position trapping inputs (out-of-bounds indices,
zero divisors, negative ``sqrt`` arguments) are substituted with safe
values, because the lanes that would trap discard their result in the
merge — the contract real GPU kernels have.  Outside speculation every
trap condition is checked explicitly.

The scalar interpreter stays the sole reference semantics, through two
escape hatches:

* :class:`JitUnsupported` is raised *at transpile time* for constructs
  outside the transpilable subset (function calls, batched streams,
  ...).  The engine memoizes the failure and runs every launch of that
  kernel on the interpreter.
* ``JitFallback`` is raised *at run time* by generated code whenever a
  trap check fires — the error message, or the decision that it is no
  error at all, is the interpreter's to make.  The engine catches it
  and re-runs that launch on the interpreter.  Generated code never
  mutates an array it did not itself allocate, so the re-run starts
  from unmodified inputs.

Generated modules are self-contained (they import only ``numpy`` and
stable ``repro`` entry points), so their source can be persisted
verbatim in the artifact cache and ``compile()``d in a later process
without re-transpiling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...core import ast as A
from ...core.prim import BINOPS, BOOL, I32, PrimType, prim_from_name
from ...core.traversal import free_vars_lambda
from ...core.types import Array

__all__ = ["JitUnsupported", "transpile_kernel", "PYCODE_SCHEMA"]

#: Schema tag embedded in every generated module; bump on any change to
#: the generated code's shape so stale cached artifacts are discarded.
PYCODE_SCHEMA = "repro.pycode/v3"

#: Hard cap on emitted statements: speculative if-arms and masked loops
#: duplicate their bodies, so deeply nested divergence can explode.
_MAX_LINES = 50_000


class JitUnsupported(Exception):
    """The kernel (at this signature) is outside the transpilable
    subset; the engine routes it to the interpreter permanently."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _Rewiden(Exception):
    """Internal: a fixpoint attempt assumed loop-state kinds that the
    body outgrew; retry with the widened ones."""

    def __init__(self, kds) -> None:
        super().__init__("rewiden")
        self.kds = kds


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
    allocated by this kernel evaluation and may be mutated in place."""

    kind: str
    elem: PrimType
    rank: int
    var: str
    owned: bool = False

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
        if (ar if ak == "B" else br) != 0 or (ar if ak == "S" else br) != 0:
            raise JitUnsupported("control-flow join of different ranks")
        return ("B", ae, 0, owned)
    if kinds == {"A", "B"}:
        if ar != br:
            raise JitUnsupported("control-flow join of different ranks")
        return ("B", ae, ar, owned)
    raise JitUnsupported(f"control-flow join of kinds {ak} and {bk}")


class _Scope:
    """Lexical IR-name -> JVal bindings.

    ``barrier`` marks a batch-expansion boundary (entering a map
    lambda): batched values must not be read across it — the
    transpiler expands them eagerly (``np.repeat``) at the boundary
    instead."""

    __slots__ = ("parent", "vars", "barrier")

    def __init__(self, parent: Optional["_Scope"] = None, barrier: bool = False):
        self.parent = parent
        self.vars: Dict[str, JVal] = {}
        self.barrier = barrier

    def child(self, barrier: bool = False) -> "_Scope":
        return _Scope(self, barrier)

    def bind(self, name: str, v: JVal) -> None:
        self.vars[name] = v

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

    def splice(self, other: "_Emitter") -> None:
        base = self.indent
        self.lines.extend((base + i, t) for i, t in other.lines)

    def render(self, base: int) -> List[str]:
        return ["    " * (base + i) + t for i, t in self.lines]


class _Indent:
    def __init__(self, em: _Emitter) -> None:
        self.em = em

    def __enter__(self) -> None:
        self.em.indent += 1

    def __exit__(self, *exc) -> None:
        self.em.indent -= 1


# ---------------------------------------------------------------------------
# The transpiler
# ---------------------------------------------------------------------------

_NP_CMP_SRC = {
    "eq": "np.equal",
    "neq": "np.not_equal",
    "lt": "np.less",
    "le": "np.less_equal",
    "gt": "np.greater",
    "ge": "np.greater_equal",
}

_NP_UN_SRC = {
    "neg": "np.negative",
    "not": "np.logical_not",
    "abs": "np.abs",
    "sgn": "np.sign",
    "exp": "np.exp",
    "log": "np.log",
    "sqrt": "np.sqrt",
    "sin": "np.sin",
    "cos": "np.cos",
    "tan": "np.tan",
    "atan": "np.arctan",
    "floor": "np.floor",
    "ceil": "np.ceil",
}


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


def _ufunc_src(op: Optional[str], elem: PrimType) -> Optional[str]:
    """Source text of the NumPy ufunc that can run a fold with operator
    ``op`` natively, or None.  ``and``/``or`` short-circuit on integers,
    so only their boolean (logical) forms are safe to lift."""
    if op is None:
        return None
    if op in ("add", "mul") and not elem.is_bool:
        return "np.add" if op == "add" else "np.multiply"
    if op == "min":
        return "np.minimum"
    if op == "max":
        return "np.maximum"
    if op == "xor" and not elem.is_float:
        return "np.bitwise_xor"
    if op in ("and", "or") and elem.is_bool:
        return "np.logical_and" if op == "and" else "np.logical_or"
    return None


_TRAPPING_BINOPS = frozenset(("div", "idiv", "imod", "pow", "shl", "shr"))
_TRAPPING_UNOPS = frozenset(("exp", "log", "sqrt"))


def _trap_free(lam: A.Lambda) -> bool:
    """True when the batched lowering of ``lam`` has no data-dependent
    trap site: scalar operators that cannot trap, ``if``, and the same
    lifted through ``map``.  Only such an operator may be applied to
    partial results the left-to-right fold never forms — any other
    could raise, or hide, a trap the interpreter's order would not.
    (In step with the checks ``_np_binop``, ``_gen_unop`` and
    ``_gen_convop`` emit.)"""

    def ok_body(body: A.Body) -> bool:
        return all(ok(bnd.exp) for bnd in body.bindings)

    def ok(e: A.Exp) -> bool:
        if isinstance(e, (A.AtomExp, A.CmpOpExp)):
            return True
        if isinstance(e, A.BinOpExp):
            return e.op not in _TRAPPING_BINOPS
        if isinstance(e, A.UnOpExp):
            return e.op not in _TRAPPING_UNOPS
        if isinstance(e, A.ConvOpExp):
            return not (e.from_t.is_float and e.to_t.is_integral)
        if isinstance(e, A.IfExp):
            return ok_body(e.t_body) and ok_body(e.f_body)
        if isinstance(e, A.MapExp):
            return ok_body(e.lam.body)
        return False

    return ok_body(lam.body)


class KernelCodegen:
    """Transpiles one kernel expression at one launch signature."""

    def __init__(self, kernel, sig: Sequence[Tuple[str, str, str, int]]):
        self.kernel = kernel
        self.sig = tuple(sig)
        self.em = _Emitter()
        self._counter = 0
        #: Hoisted module-level names: insertion-ordered name -> init expr.
        self._hoisted: Dict[str, str] = {}
        self._const_pool: Dict[Tuple[str, str], str] = {}
        #: Stack of batch extent expressions, innermost last;
        #: non-empty means "a batch is in scope", and its top is the
        #: ``B`` a nested map extends.
        self._extents: List[str] = []
        self._total_lines = 0

    # -- small utilities ----------------------------------------------------

    def fresh(self, prefix: str = "_t") -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def line(self, text: str) -> None:
        self._total_lines += 1
        if self._total_lines > _MAX_LINES:
            raise JitUnsupported("generated code exceeds size limit")
        self.em.emit(text)

    def indented(self) -> _Indent:
        return _Indent(self.em)

    def _capture(self, fn: Callable[[], object]) -> Tuple[_Emitter, object]:
        saved, self.em = self.em, _Emitter()
        try:
            ret = fn()
        finally:
            buf, self.em = self.em, saved
        return buf, ret

    def _with_buffer(self, buf: _Emitter, fn: Callable[[], object]) -> object:
        saved, self.em = self.em, buf
        try:
            return fn()
        finally:
            self.em = saved

    # -- hoisted constants --------------------------------------------------

    def _hoist(self, name: str, expr: str) -> str:
        if name not in self._hoisted:
            self._hoisted[name] = expr
        return name

    def _t(self, t: PrimType) -> str:
        return self._hoist(f"_T_{t.name}", f'prim_from_name("{t.name}")')

    def _dt(self, t: PrimType) -> str:
        self._t(t)
        return self._hoist(f"_DT_{t.name}", f"_T_{t.name}.to_dtype()")

    def _bop(self, op: str) -> str:
        return self._hoist(f"_BOP_{op}", f'BINOPS["{op}"]')

    def _cop(self, op: str) -> str:
        return self._hoist(f"_CMP_{op}", f'CMPOPS["{op}"]')

    def _uop(self, op: str) -> str:
        return self._hoist(f"_UN_{op}", f'UNOPS["{op}"]')

    def _conv(self, t: PrimType) -> str:
        self._t(t)
        return self._hoist(f"_CONV_{t.name}", f'ConvOp("conv", _T_{t.name})')

    def _const(self, value, t: PrimType) -> str:
        key = (repr(value), t.name)
        name = self._const_pool.get(key)
        if name is None:
            self._t(t)
            name = f"_K{len(self._const_pool)}"
            self._const_pool[key] = name
            self._hoist(name, f"_T_{t.name}.coerce({value!r})")
        return name

    # -- extents ------------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._extents)

    @property
    def extent(self) -> str:
        if not self._extents:
            raise JitUnsupported("batched value outside any batch extent")
        return self._extents[-1]

    # -- atoms --------------------------------------------------------------

    def atom(self, scope: _Scope, a: A.Atom) -> JVal:
        if isinstance(a, A.Const):
            return JVal("S", a.type, 0, self._const(a.value, a.type))
        return scope.lookup(a.name)

    # -- kind coercion ------------------------------------------------------

    def _asarray(self, v: JVal) -> str:
        """A value as an ndarray expression."""
        if v.kind == "S":
            return f"np.asarray({v.var}, dtype={self._dt(v.elem)})"
        return v.var

    def _coerce(self, v: JVal, kd: KD) -> JVal:
        """Emit the code turning ``v`` into kind descriptor ``kd``
        (broadcast views, no copy)."""
        kind, elem, rank, owned = kd
        if v.kind == kind:
            return replace(v, owned=v.owned and owned)
        if kind != "B":
            raise JitUnsupported(f"cannot coerce kind {v.kind} to {kind}")
        ext = self.extent
        out = self.fresh()
        if v.kind == "S":
            self.line(
                f"{out} = np.broadcast_to("
                f"np.asarray({v.var}, dtype={self._dt(elem)}), ({ext},))"
            )
        else:  # A -> B
            self.line(
                f"{out} = np.broadcast_to({v.var}, ({ext},) + {v.var}.shape)"
            )
        return JVal("B", elem, rank, out, False)

    def _to_batched_checked(self, v: JVal, ext: str, reason: str) -> JVal:
        """Coerce ``v`` to a batch of extent ``ext``, with a width check
        on an already-batched value."""
        if v.kind == "B":
            self.line(f"if {v.var}.shape[0] != {ext}:")
            with self.indented():
                self.line(f'raise JitFallback("{reason}")')
            return v
        return self._coerce(v, ("B", v.elem, v.rank, False))

    # -- speculative merge --------------------------------------------------

    def _where(self, mask: str, t: JVal, f: JVal) -> JVal:
        if t.rank != f.rank:
            raise JitUnsupported("merge of values with different ranks")
        tb = self._coerce(t, ("B", t.elem, t.rank, False))
        fb = self._coerce(f, ("B", f.elem, f.rank, False))
        m = mask
        if t.rank:
            m = f"{mask}.reshape({mask}.shape + (1,) * {t.rank})"
        out = self.fresh()
        self.line(f"{out} = np.where({m}, {tb.var}, {fb.var})")
        return JVal("B", t.elem, t.rank, out, True)

    # -- parameter binding --------------------------------------------------

    def _bind_param(self, scope: _Scope, p: A.Param, v: JVal) -> None:
        """Bind ``v``, unifying not-yet-bound symbolic sizes in the
        declared type from the runtime shape (as the interpreter
        does)."""
        t = p.type
        if isinstance(t, Array):
            if v.kind == "S":
                raise JitUnsupported(
                    f"binding of {p.name}: expected array, got scalar"
                )
            off = 1 if v.kind == "B" else 0
            for k, d in enumerate(t.shape):
                if isinstance(d, str) and not scope.has(d):
                    dim = self.fresh("_d")
                    self.line(f"{dim} = int({v.var}.shape[{k + off}])")
                    scope.bind(d, JVal("S", I32, 0, dim))
        scope.bind(p.name, v)

    # -- bodies and lambdas -------------------------------------------------

    def gen_body(self, body: A.Body, scope: _Scope, spec: bool) -> List[JVal]:
        for bnd in body.bindings:
            results = self.gen_exp(bnd.exp, scope, spec)
            if len(results) != len(bnd.pat):
                raise JitUnsupported(
                    f"pattern arity mismatch: {len(bnd.pat)} names for "
                    f"{len(results)} values"
                )
            for p, v in zip(bnd.pat, results):
                self._bind_param(scope, p, v)
        return [self.atom(scope, a) for a in body.result]

    def gen_lambda(
        self, lam: A.Lambda, args: List[JVal], scope: _Scope, spec: bool
    ) -> List[JVal]:
        if len(args) != len(lam.params):
            raise JitUnsupported("lambda arity mismatch")
        child = scope.child()
        for p, a in zip(lam.params, args):
            self._bind_param(child, p, a)
        return self.gen_body(lam.body, child, spec)

    # -- dispatch -----------------------------------------------------------

    def gen_exp(self, e: A.Exp, scope: _Scope, spec: bool) -> List[JVal]:
        fn = _GEN.get(type(e))
        if fn is None:
            raise JitUnsupported(f"cannot transpile {type(e).__name__}")
        return fn(self, e, scope, spec)

    # -- scalar operators ---------------------------------------------------

    def _gen_atomexp(self, e: A.AtomExp, scope: _Scope, spec: bool):
        return [self.atom(scope, e.atom)]

    def _scalar_operand(self, t: PrimType, v: JVal) -> str:
        if v.kind == "A" or (v.kind == "B" and v.rank != 0):
            raise JitUnsupported("expected scalar operand")
        if v.kind == "B":
            return v.var
        return f"np.asarray({v.var}, dtype={self._dt(t)})"

    def _uniform_op(self, call: str, op_name: str, spec: bool) -> str:
        out = self.fresh()
        if spec:
            self.line("try:")
            with self.indented():
                self.line(f"{out} = {call}")
            self.line("except Exception as _ex:")
            with self.indented():
                self.line(
                    "raise JitFallback("
                    f'f"uniform {op_name} trapped: {{_ex}}")'
                )
        else:
            self.line(f"{out} = {call}")
        return out

    def _dtype_fix(self, var: str, t: PrimType) -> None:
        dt = self._dt(t)
        self.line(f"if {var}.dtype != {dt}:")
        with self.indented():
            self.line(f"{var} = {var}.astype({dt})")

    def _gen_binop(self, e: A.BinOpExp, scope: _Scope, spec: bool):
        x = self.atom(scope, e.x)
        y = self.atom(scope, e.y)
        if x.kind == "S" and y.kind == "S":
            call = (
                f"eval_binop({self._bop(e.op)}, {self._t(e.t)}, "
                f"{x.var}, {y.var})"
            )
            return [JVal("S", e.t, 0, self._uniform_op(call, e.op, spec))]
        xd = self._scalar_operand(e.t, x)
        yd = self._scalar_operand(e.t, y)
        out = self._np_binop(e.op, e.t, xd, yd, spec)
        self._dtype_fix(out, e.t)
        return [JVal("B", e.t, 0, out)]

    def _np_binop(self, op: str, t: PrimType, x: str, y: str, spec: bool) -> str:
        """Emit the batched operator with its trap checks, returning
        the local holding the (pre-dtype-fix) result."""
        out = self.fresh()
        if op in ("add", "sub", "mul"):
            sym = {"add": "+", "sub": "-", "mul": "*"}[op]
            self.line(f"{out} = {x} {sym} {y}")
            return out
        if op in ("div", "idiv", "imod"):
            yv = self.fresh("_y")
            self.line(f"{yv} = {y}")
            self.line(f"if ({yv} == 0).any():")
            with self.indented():
                if spec:
                    self.line(
                        f"{yv} = np.where({yv} == 0, "
                        f"{yv}.dtype.type(1), {yv})"
                    )
                else:
                    self.line('raise JitFallback("zero divisor in batch")')
            expr = {"div": f"{x} / {yv}", "idiv": f"{x} // {yv}",
                    "imod": f"np.mod({x}, {yv})"}[op]
            self.line(f"{out} = {expr}")
            return out
        if op == "min":
            self.line(f"{out} = np.minimum({x}, {y})")
            return out
        if op == "max":
            self.line(f"{out} = np.maximum({x}, {y})")
            return out
        if op == "pow":
            xv, yv = self.fresh("_x"), self.fresh("_y")
            self.line(f"{xv} = {x}")
            self.line(f"{yv} = {y}")
            if t.is_float:
                bad = self.fresh("_bad")
                self.line(f"{bad} = ({xv} < 0) & (np.mod({yv}, 1) != 0)")
                self.line(f"if {bad}.any():")
                with self.indented():
                    if spec:
                        self.line(f"{xv} = np.where({bad}, -{xv}, {xv})")
                    else:
                        self.line(
                            'raise JitFallback('
                            '"fractional power of negative base")'
                        )
                self.line(f"{out} = np.power({xv}, {yv})")
                if not spec:
                    self.line(
                        f"if (np.isinf({out}) & np.isfinite({xv}) "
                        f"& np.isfinite({yv})).any():"
                    )
                    with self.indented():
                        self.line(
                            'raise JitFallback("float pow overflow in batch")'
                        )
                return out
            self.line(f"if ({yv} < 0).any():")
            with self.indented():
                if spec:
                    self.line(f"{yv} = np.where({yv} < 0, 0, {yv})")
                else:
                    self.line(
                        'raise JitFallback('
                        '"negative integer exponent in batch")'
                    )
            self.line(f"{out} = np.power({xv}, {yv})")
            return out
        if op in ("and", "or"):
            xv = self.fresh("_x")
            self.line(f"{xv} = {x}")
            truthy = xv if t.is_bool else f"({xv} != 0)"
            if op == "and":
                self.line(f"{out} = np.where({truthy}, {y}, {xv})")
            else:
                self.line(f"{out} = np.where({truthy}, {xv}, {y})")
            return out
        if op == "xor":
            self.line(f"{out} = np.bitwise_xor({x}, {y})")
            return out
        if op in ("shl", "shr"):
            yv = self.fresh("_y")
            self.line(f"{yv} = {y}")
            self.line(
                f"if (({yv} < 0) | ({yv} >= {t.bitwidth})).any():"
            )
            with self.indented():
                if spec:
                    self.line(
                        f"{yv} = np.clip({yv}, 0, {t.bitwidth - 1})"
                    )
                else:
                    self.line(
                        'raise JitFallback('
                        '"out-of-range shift count in batch")'
                    )
            fn = "np.left_shift" if op == "shl" else "np.right_shift"
            self.line(f"{out} = {fn}({x}, {yv})")
            return out
        raise JitUnsupported(f"unknown binary operator {op}")

    def _gen_cmpop(self, e: A.CmpOpExp, scope: _Scope, spec: bool):
        x = self.atom(scope, e.x)
        y = self.atom(scope, e.y)
        if x.kind == "S" and y.kind == "S":
            out = self.fresh()
            self.line(
                f"{out} = eval_cmpop({self._cop(e.op)}, {x.var}, {y.var})"
            )
            return [JVal("S", BOOL, 0, out)]
        xd = self._scalar_operand(e.t, x)
        yd = self._scalar_operand(e.t, y)
        out = self.fresh()
        self.line(f"{out} = {_NP_CMP_SRC[e.op]}({xd}, {yd})")
        return [JVal("B", BOOL, 0, out)]

    def _gen_unop(self, e: A.UnOpExp, scope: _Scope, spec: bool):
        x = self.atom(scope, e.x)
        if x.kind == "S":
            call = f"eval_unop({self._uop(e.op)}, {self._t(e.t)}, {x.var})"
            return [JVal("S", e.t, 0, self._uniform_op(call, e.op, spec))]
        if x.kind != "B" or x.rank != 0:
            raise JitUnsupported("expected scalar operand")
        src = _NP_UN_SRC.get(e.op)
        if src is None:
            raise JitUnsupported(f"unknown unary operator {e.op}")
        xv = x.var
        if e.op in ("log", "sqrt"):
            xv = self.fresh("_x")
            self.line(f"{xv} = {x.var}")
            cond = f"{xv} <= 0" if e.op == "log" else f"{xv} < 0"
            self.line(f"if ({cond}).any():")
            with self.indented():
                if spec:
                    if e.op == "log":
                        self.line(
                            f"{xv} = np.where({cond}, "
                            f"{xv}.dtype.type(1), {xv})"
                        )
                    else:
                        self.line(f"{xv} = np.where({cond}, -{xv}, {xv})")
                else:
                    word = (
                        "log of non-positive value"
                        if e.op == "log"
                        else "sqrt of negative value"
                    )
                    self.line(f'raise JitFallback("{word} in batch")')
        out = self.fresh()
        self.line(f"{out} = {src}({xv})")
        if e.op == "exp" and not spec:
            self.line(f"if (np.isinf({out}) & np.isfinite({xv})).any():")
            with self.indented():
                self.line('raise JitFallback("exp overflow in batch")')
        self._dtype_fix(out, e.t)
        return [JVal("B", e.t, 0, out)]

    def _gen_convop(self, e: A.ConvOpExp, scope: _Scope, spec: bool):
        x = self.atom(scope, e.x)
        if x.kind == "S":
            out = self.fresh()
            self.line(f"{out} = eval_convop({self._conv(e.to_t)}, {x.var})")
            return [JVal("S", e.to_t, 0, out)]
        if x.kind != "B" or x.rank != 0:
            raise JitUnsupported("expected scalar operand")
        xv = x.var
        if e.from_t.is_float and e.to_t.is_integral:
            xv = self.fresh("_x")
            self.line(f"{xv} = {x.var}")
            self.line(f"if (~np.isfinite({xv})).any():")
            with self.indented():
                if spec:
                    self.line(
                        f"{xv} = np.where(~np.isfinite({xv}), "
                        f"{xv}.dtype.type(0), {xv})"
                    )
                else:
                    self.line(
                        'raise JitFallback('
                        '"non-finite float to int conversion")'
                    )
        out = self.fresh()
        self.line(f"{out} = {xv}.astype({self._dt(e.to_t)})")
        return [JVal("B", e.to_t, 0, out)]

    # -- control flow -------------------------------------------------------

    def _gen_if(self, e: A.IfExp, scope: _Scope, spec: bool):
        cond = self.atom(scope, e.cond)
        if cond.kind == "A" or cond.rank != 0:
            raise JitUnsupported("if condition must be a boolean scalar")

        def arm(body: A.Body, sp: bool) -> Tuple[_Emitter, List[JVal]]:
            buf, vals = self._capture(
                lambda: self.gen_body(body, scope.child(), sp)
            )
            return buf, vals  # type: ignore[return-value]

        if cond.kind == "S":
            t_buf, t_vals = arm(e.t_body, spec)
            f_buf, f_vals = arm(e.f_body, spec)
            if len(t_vals) != len(f_vals):
                raise JitUnsupported("if arms produce different arities")
            kds = [_join_kd(_kd(t), _kd(f)) for t, f in zip(t_vals, f_vals)]
            outs = [self.fresh("_o") for _ in kds]
            self.line(f"if {cond.var}:")
            with self.indented():
                self._splice_arm(t_buf, t_vals, kds, outs)
            self.line("else:")
            with self.indented():
                self._splice_arm(f_buf, f_vals, kds, outs)
            return [
                JVal(k, el, r, o, ow)
                for (k, el, r, ow), o in zip(kds, outs)
            ]

        # Batched condition: convergent fast paths plus a speculative
        # both-arms merge (exactly `_eval_if`).
        tc_buf, tc_vals = arm(e.t_body, spec)
        fc_buf, fc_vals = arm(e.f_body, spec)
        ts_buf, ts_vals = arm(e.t_body, True)
        fs_buf, fs_vals = arm(e.f_body, True)
        arities = {len(v) for v in (tc_vals, fc_vals, ts_vals, fs_vals)}
        if len(arities) != 1:
            raise JitUnsupported("if arms produce different arities")
        kds = [
            _join_kd(
                _join_kd(_kd(a), _kd(b)), _join_kd(_kd(c), _kd(d))
            )
            for a, b, c, d in zip(tc_vals, fc_vals, ts_vals, fs_vals)
        ]
        # Divergent lanes make every result per-lane even when both
        # arms are uniform, so the static kind must be batched on all
        # three paths (the convergent arms broadcast into it).
        kds = self._widen_all_b(kds)
        outs = [self.fresh("_o") for _ in kds]
        mask = self.fresh("_m")
        self.line(f"{mask} = {cond.var}.astype(bool)")
        self.line(f"if {mask}.all():")
        with self.indented():
            self._splice_arm(tc_buf, tc_vals, kds, outs)
        self.line(f"elif not {mask}.any():")
        with self.indented():
            self._splice_arm(fc_buf, fc_vals, kds, outs)
        self.line("else:")
        with self.indented():
            self.em.splice(ts_buf)
            self.em.splice(fs_buf)
            for (k, el, r, ow), o, tv, fv in zip(kds, outs, ts_vals, fs_vals):
                merged = self._where(mask, tv, fv)
                self.line(f"{o} = {merged.var}")
        # The speculative arm's np.where allocates fresh buffers, but
        # the convergent arms may return views — ownership must hold on
        # every path, so it joins across all three.
        return [
            JVal(k, el, r, o, ow) for (k, el, r, ow), o in zip(kds, outs)
        ]

    def _splice_arm(
        self,
        buf: _Emitter,
        vals: List[JVal],
        kds: List[KD],
        outs: List[str],
    ) -> None:
        """Splice an if-arm and assign its (kind-coerced) results to
        the shared output locals."""
        self.em.splice(buf)
        for kd, o, v in zip(kds, outs, vals):
            cv = self._coerce(v, kd)
            self.line(f"{o} = {cv.var}")

    # -- loops --------------------------------------------------------------

    def _require_kds(self, kds: List[KD], new_kds: List[KD]) -> None:
        """Abort the current fixpoint attempt if the loop body produced
        wider state kinds than assumed (the attempt's emitted code is
        discarded and regenerated under the new assumption)."""
        if new_kds != kds:
            raise _Rewiden(new_kds)

    def _fixpoint(
        self,
        seeds: List[KD],
        attempt: Callable[[List[KD]], Tuple[List[KD], object]],
    ):
        """Iterate ``attempt`` until the state kind descriptors it
        produces match the ones it assumed (widening is monotone:
        S/A -> B once, owned True -> False once, so this converges)."""
        kds = list(seeds)
        for _ in range(4 * len(seeds) + 8):
            try:
                buf, (new, payload) = self._capture(lambda: attempt(kds))
            except _Rewiden as rw:
                kds = list(rw.kds)
                continue
            if new == kds:
                self.em.splice(buf)
                return kds, payload
            kds = new
        raise JitUnsupported("loop state kinds failed to converge")

    def _widen_all_b(self, kds: List[KD]) -> List[KD]:
        out = []
        for k, el, r, ow in kds:
            if k == "A" or k == "S":
                out.append(("B", el, r, ow))
            else:
                out.append((k, el, r, ow))
        return out

    def _emit_state_init(
        self, init: List[JVal], kds: List[KD], slots: List[str]
    ) -> List[JVal]:
        """Assign the (coerced) initial values into the loop-state
        locals, pre-copying unowned arrays when the converged state is
        owned — a copy-on-first-update hoisted out of the loop, so
        later iterations mutate in place."""
        state = []
        for v, kd, s in zip(init, kds, slots):
            cv = self._coerce(v, kd)
            kind, el, r, ow = kd
            if ow and kind != "S" and not cv.owned:
                self.line(f"{s} = {cv.var}.copy()")
            else:
                self.line(f"{s} = {cv.var}")
            state.append(JVal(kind, el, r, s, ow))
        return state

    def _state_join(
        self, kds: List[KD], results: List[JVal]
    ) -> List[KD]:
        return [_join_kd(kd, _kd(r)) for kd, r in zip(kds, results)]

    def _gen_loop(self, e: A.LoopExp, scope: _Scope, spec: bool):
        init = [self.atom(scope, a) for _, a in e.merge]
        params = [p for p, _ in e.merge]
        slots = [self.fresh("_s") for _ in params]
        nexts = [self.fresh("_n") for _ in params]
        # Seed owned=True for arrays: _emit_state_init pre-copies, and
        # the fixpoint downgrades if the body hands back borrowed data.
        seeds = [
            (v.kind, v.elem, v.rank, v.kind != "S") for v in init
        ]

        def run_body(
            extra: List[Tuple[str, JVal]],
            state: List[JVal],
            sp: bool,
        ) -> List[JVal]:
            child = scope.child()
            for name, v in extra:
                child.bind(name, v)
            for p, v in zip(params, state):
                self._bind_param(child, p, v)
            results = self.gen_body(e.body, child, sp)
            if len(results) != len(state):
                raise JitUnsupported("loop body arity mismatch")
            return results

        def advance(results: List[JVal], kds: List[KD]) -> None:
            # Stage through temps: a result may *be* another slot.
            for n, r, kd in zip(nexts, results, kds):
                cv = self._coerce(r, kd)
                self.line(f"{n} = {cv.var}")
            for s, n in zip(slots, nexts):
                self.line(f"{s} = {n}")

        if isinstance(e.form, A.ForLoop):
            bound = self.atom(scope, e.form.bound)
            if bound.kind == "A" or bound.rank != 0:
                raise JitUnsupported("for-loop bound must be a scalar")
            masked = bound.kind == "B"
            ivar = self.fresh("_i")

            def attempt(kds: List[KD]):
                kds = self._widen_all_b(kds) if masked else kds
                state = self._emit_state_init(init, kds, slots)
                iv = JVal("S", I32, 0, ivar)
                if not masked:
                    self.line(f"for {ivar} in range(int({bound.var})):")
                    with self.indented():
                        res = run_body([(e.form.ivar, iv)], state, spec)
                        new_kds = self._state_join(kds, res)
                        self._require_kds(kds, new_kds)
                        advance(res, kds)
                    return new_kds, None
                trip = self.fresh("_trip")
                self.line(
                    f"{trip} = int({bound.var}.max()) "
                    f"if {bound.var}.size else 0"
                )
                active = self.fresh("_act")
                self.line(f"for {ivar} in range({trip}):")
                with self.indented():
                    self.line(f"{active} = {bound.var} > {ivar}")
                    self.line(f"if {active}.all():")
                    with self.indented():
                        res = run_body([(e.form.ivar, iv)], state, spec)
                        new_kds = self._state_join(kds, res)
                        self._require_kds(kds, new_kds)
                        advance(res, kds)
                    self.line("else:")
                    with self.indented():
                        res = run_body([(e.form.ivar, iv)], state, True)
                        new_kds = [
                            _join_kd(a, b)
                            for a, b in zip(
                                new_kds, self._state_join(kds, res)
                            )
                        ]
                        self._require_kds(kds, new_kds)
                        merged = [
                            self._where(active, n, o)
                            for n, o in zip(res, state)
                        ]
                        advance(merged, kds)
                return new_kds, None

            kds, _ = self._fixpoint(seeds, attempt)
        else:
            cond_index = next(
                (k for k, p in enumerate(params) if p.name == e.form.cond),
                None,
            )
            if cond_index is None:
                raise JitUnsupported(
                    f"while condition {e.form.cond} is not a merge parameter"
                )

            def attempt(kds: List[KD]):
                masked = kds[cond_index][0] == "B"
                kds = self._widen_all_b(kds) if masked else kds
                state = self._emit_state_init(init, kds, slots)
                guard = self.fresh("_g")
                self.line(f"{guard} = 0")
                self.line("while True:")
                with self.indented():
                    if not masked:
                        self.line(f"if not {slots[cond_index]}:")
                        with self.indented():
                            self.line("break")
                        res = run_body([], state, spec)
                        new_kds = self._state_join(kds, res)
                        self._require_kds(kds, new_kds)
                        advance(res, kds)
                    else:
                        active = self.fresh("_act")
                        self.line(
                            f"{active} = "
                            f"{slots[cond_index]}.astype(bool)"
                        )
                        self.line(f"if not {active}.any():")
                        with self.indented():
                            self.line("break")
                        self.line(f"if {active}.all():")
                        with self.indented():
                            res = run_body([], state, spec)
                            new_kds = self._state_join(kds, res)
                            self._require_kds(kds, new_kds)
                            advance(res, kds)
                        self.line("else:")
                        with self.indented():
                            res = run_body([], state, True)
                            new_kds = [
                                _join_kd(a, b)
                                for a, b in zip(
                                    new_kds, self._state_join(kds, res)
                                )
                            ]
                            self._require_kds(kds, new_kds)
                            merged = [
                                self._where(active, n, o)
                                for n, o in zip(res, state)
                            ]
                            advance(merged, kds)
                    self.line(f"{guard} += 1")
                    self.line(f"if {guard} > 10000000:")
                    with self.indented():
                        self.line(
                            'raise JitFallback('
                            '"while loop exceeded iteration guard")'
                        )
                return new_kds, None

            kds, _ = self._fixpoint(seeds, attempt)
        return [
            JVal(k, el, r, s, ow) for (k, el, r, ow), s in zip(kds, slots)
        ]

    # -- array primitives ---------------------------------------------------

    def _gen_index(self, e: A.IndexExp, scope: _Scope, spec: bool):
        arr = scope.lookup(e.arr.name)
        idxs = [self.atom(scope, i) for i in e.idxs]
        if arr.kind == "S":
            raise JitUnsupported(f"expected array, got scalar for {e.arr}")
        batched = arr.kind == "B" or any(i.kind == "B" for i in idxs)
        if not batched:
            parts = []
            for k, iv in enumerate(idxs):
                if iv.kind != "S":
                    raise JitUnsupported("array used as index")
                ii = self.fresh("_i")
                self.line(f"{ii} = int({iv.var})")
                self.line(
                    f"if not (0 <= {ii} < {arr.var}.shape[{k}]):"
                )
                with self.indented():
                    self.line(
                        'raise JitFallback("uniform index out of bounds")'
                    )
                parts.append(ii)
            out_rank = arr.rank - len(idxs)
            if out_rank < 0:
                raise JitUnsupported("too many indices")
            out = self.fresh()
            sub = f"{arr.var}[{', '.join(parts)}]"
            if out_rank == 0:
                self.line(f"{out} = {sub}.item()")
                return [JVal("S", arr.elem, 0, out)]
            self.line(f"{out} = {sub}")
            return [JVal("A", arr.elem, out_rank, out, arr.owned)]
        if arr.kind == "B":
            dim_off = 1
            out_rank = arr.rank - len(idxs)
        else:
            dim_off = 0
            out_rank = arr.rank - len(idxs)
        if out_rank < 0:
            raise JitUnsupported("too many indices")
        parts: List[str] = []
        all_uniform_idxs = True
        for k, iv in enumerate(idxs):
            d = f"{arr.var}.shape[{k + dim_off}]"
            if iv.kind == "B":
                if iv.rank != 0:
                    raise JitUnsupported("array used as index")
                all_uniform_idxs = False
                ia = self.fresh("_ia")
                if spec:
                    self.line(f"{ia} = np.clip({iv.var}, 0, {d} - 1)")
                else:
                    self.line(f"{ia} = {iv.var}")
                    self.line(
                        f"if {ia}.size and "
                        f"(({ia} < 0) | ({ia} >= {d})).any():"
                    )
                    with self.indented():
                        self.line(
                            'raise JitFallback('
                            '"out-of-bounds gather in batch")'
                        )
                parts.append(ia)
            elif iv.kind == "S":
                ii = self.fresh("_i")
                self.line(f"{ii} = int({iv.var})")
                self.line(f"if not (0 <= {ii} < {d}):")
                with self.indented():
                    if spec:
                        self.line(f"{ii} = min(max({ii}, 0), {d} - 1)")
                    else:
                        self.line(
                            'raise JitFallback('
                            '"uniform index out of bounds")'
                        )
                parts.append(ii)
            else:
                raise JitUnsupported("array used as index")
        out = self.fresh()
        if arr.kind == "B":
            if all_uniform_idxs:
                self.line(
                    f"{out} = {arr.var}[(slice(None), {', '.join(parts)})]"
                )
                return [JVal("B", arr.elem, out_rank, out, arr.owned)]
            self.line(
                f"{out} = {arr.var}"
                f"[(R.arange({arr.var}.shape[0]), {', '.join(parts)})]"
            )
            return [JVal("B", arr.elem, out_rank, out, True)]
        self.line(f"{out} = {arr.var}[({', '.join(parts)},)]")
        return [JVal("B", arr.elem, out_rank, out, True)]

    def _gen_update(self, e: A.UpdateExp, scope: _Scope, spec: bool):
        arr = scope.lookup(e.arr.name)
        idxs = [self.atom(scope, i) for i in e.idxs]
        value = self.atom(scope, e.value)
        if arr.kind == "S":
            raise JitUnsupported(f"expected array, got scalar for {e.arr}")
        batched = (
            arr.kind == "B"
            or value.kind == "B"
            or any(i.kind == "B" for i in idxs)
        )
        if not batched:
            parts = []
            for k, iv in enumerate(idxs):
                if iv.kind != "S":
                    raise JitUnsupported("array used as index")
                ii = self.fresh("_i")
                self.line(f"{ii} = int({iv.var})")
                self.line(f"if not (0 <= {ii} < {arr.var}.shape[{k}]):")
                with self.indented():
                    self.line(
                        'raise JitFallback("uniform update out of bounds")'
                    )
                parts.append(ii)
            tgt = self.fresh("_u")
            if arr.owned and not spec:
                self.line(f"if R.in_place:")
                with self.indented():
                    self.line(f"{tgt} = {arr.var}")
                self.line("else:")
                with self.indented():
                    self.line(f"{tgt} = {arr.var}.copy()")
            else:
                self.line(f"{tgt} = {arr.var}.copy()")
            self.line(f"{tgt}[{', '.join(parts)}] = {value.var}")
            return [JVal("A", arr.elem, arr.rank, tgt, True)]
        if arr.kind != "B":
            # A uniform array updated at batched positions diverges per
            # lane — materialize one copy per lane.
            b_src = next(
                v for v in idxs + [value] if v.kind == "B"
            )
            ab = self.fresh("_ab")
            self.line(
                f"{ab} = np.broadcast_to({arr.var}, "
                f"({b_src.var}.shape[0],) + {arr.var}.shape).copy()"
            )
            arr = JVal("B", arr.elem, arr.rank, ab, True)
        if len(idxs) > arr.rank:
            raise JitUnsupported("too many indices")
        parts = []
        for k, iv in enumerate(idxs):
            d = f"{arr.var}.shape[{k + 1}]"
            if iv.kind == "B":
                if iv.rank != 0:
                    raise JitUnsupported("array used as index")
                ia = self.fresh("_ia")
                if spec:
                    self.line(f"{ia} = np.clip({iv.var}, 0, {d} - 1)")
                else:
                    self.line(f"{ia} = {iv.var}")
                    self.line(
                        f"if {ia}.size and "
                        f"(({ia} < 0) | ({ia} >= {d})).any():"
                    )
                    with self.indented():
                        self.line(
                            'raise JitFallback('
                            '"out-of-bounds scatter in batch")'
                        )
                parts.append(ia)
            elif iv.kind == "S":
                ii = self.fresh("_i")
                self.line(f"{ii} = int({iv.var})")
                self.line(f"if not (0 <= {ii} < {d}):")
                with self.indented():
                    if spec:
                        self.line(f"{ii} = min(max({ii}, 0), {d} - 1)")
                    else:
                        self.line(
                            'raise JitFallback('
                            '"uniform index out of bounds")'
                        )
                parts.append(ii)
            else:
                raise JitUnsupported("array used as index")
        data = self.fresh("_u")
        # NB a batched update consults only ownership and speculation
        # (not the in_place flag).
        if arr.owned and not spec:
            self.line(f"{data} = {arr.var}")
        else:
            self.line(f"{data} = {arr.var}.copy()")
        vd = value.var
        self.line(
            f"{data}[(R.arange({data}.shape[0]), {', '.join(parts)})]"
            f" = {vd}"
        )
        return [JVal("B", arr.elem, arr.rank, data, True)]

    def _gen_iota(self, e: A.IotaExp, scope: _Scope, spec: bool):
        n = self.atom(scope, e.n)
        if n.kind == "B":
            raise JitUnsupported("iota of batched size")
        out = self.fresh()
        self.line(f"if {n.var} < 0:")
        with self.indented():
            self.line('raise JitFallback("iota of negative size")')
        self.line(f"{out} = np.arange(int({n.var}), dtype=np.int32)")
        return [JVal("A", I32, 1, out, True)]

    def _gen_replicate(self, e: A.ReplicateExp, scope: _Scope, spec: bool):
        n = self.atom(scope, e.n)
        if n.kind == "B":
            raise JitUnsupported("replicate of batched size")
        self.line(f"if {n.var} < 0:")
        with self.indented():
            self.line('raise JitFallback("replicate of negative size")')
        v = self.atom(scope, e.value)
        out = self.fresh()
        if v.kind == "S":
            self.line(
                f"{out} = np.full(int({n.var}), {v.var}, "
                f"dtype={self._dt(v.elem)})"
            )
            return [JVal("A", v.elem, 1, out, True)]
        if v.kind == "A":
            self.line(
                f"{out} = np.broadcast_to({v.var}, "
                f"(int({n.var}),) + {v.var}.shape).copy()"
            )
            return [JVal("A", v.elem, v.rank + 1, out, True)]
        self.line(
            f"{out} = np.repeat({v.var}[:, None], int({n.var}), axis=1)"
        )
        return [JVal("B", v.elem, v.rank + 1, out, True)]

    def _gen_rearrange(self, e: A.RearrangeExp, scope: _Scope, spec: bool):
        arr = scope.lookup(e.arr.name)
        if arr.kind == "S":
            raise JitUnsupported(f"expected array, got scalar for {e.arr}")
        if sorted(e.perm) != list(range(arr.rank)):
            raise JitUnsupported(
                f"rearrange {e.perm} does not permute rank {arr.rank}"
            )
        out = self.fresh()
        if arr.kind == "B":
            perm = (0,) + tuple(p + 1 for p in e.perm)
            self.line(f"{out} = np.transpose({arr.var}, {perm})")
        else:
            self.line(f"{out} = np.transpose({arr.var}, {tuple(e.perm)})")
        return [JVal(arr.kind, arr.elem, arr.rank, out, arr.owned)]

    def _gen_reshape(self, e: A.ReshapeExp, scope: _Scope, spec: bool):
        arr = scope.lookup(e.arr.name)
        dims = []
        for s in e.shape:
            v = self.atom(scope, s)
            if v.kind == "B":
                raise JitUnsupported("reshape to batched shape")
            if v.kind != "S":
                raise JitUnsupported("reshape dimension must be a scalar")
            dims.append(f"int({v.var})")
        if arr.kind == "S":
            raise JitUnsupported(f"expected array, got scalar for {e.arr}")
        shape = "(" + ", ".join(dims) + ("," if len(dims) == 1 else "") + ")"
        out = self.fresh()
        if arr.kind == "B":
            self.line(
                f"if int(np.prod({shape}, dtype=np.int64)) != "
                f"int(np.prod({arr.var}.shape[1:], dtype=np.int64)):"
            )
            with self.indented():
                self.line(
                    'raise JitFallback("reshape changes element count")'
                )
            self.line(
                f"{out} = {arr.var}.reshape(({arr.var}.shape[0],) + {shape})"
            )
            return [JVal("B", arr.elem, len(dims), out, arr.owned)]
        self.line(
            f"if int(np.prod({shape}, dtype=np.int64)) != {arr.var}.size:"
        )
        with self.indented():
            self.line('raise JitFallback("reshape changes element count")')
        self.line(f"{out} = {arr.var}.reshape({shape})")
        return [JVal("A", arr.elem, len(dims), out, arr.owned)]

    def _gen_copy(self, e: A.CopyExp, scope: _Scope, spec: bool):
        arr = scope.lookup(e.arr.name)
        if arr.kind == "S":
            raise JitUnsupported(f"expected array, got scalar for {e.arr}")
        out = self.fresh()
        self.line(f"{out} = {arr.var}.copy()")
        return [JVal(arr.kind, arr.elem, arr.rank, out, True)]

    def _gen_concat(self, e: A.ConcatExp, scope: _Scope, spec: bool):
        arrs = [scope.lookup(a.name) for a in e.arrs]
        if any(a.kind == "S" for a in arrs):
            raise JitUnsupported("concat of scalars")
        out = self.fresh()
        if any(a.kind == "B" for a in arrs):
            first = next(a for a in arrs if a.kind == "B")
            ext = f"{first.var}.shape[0]"
            parts = []
            for a in arrs:
                b = self._to_batched_checked(
                    a, ext, "batch width mismatch in concat"
                ) if a.kind == "B" else self._coerce(
                    a, ("B", a.elem, a.rank, False)
                )
                parts.append(b.var)
            self.line(
                f"{out} = np.concatenate([{', '.join(parts)}], axis=1)"
            )
            return [JVal("B", arrs[0].elem, arrs[0].rank, out, True)]
        self.line(
            f"{out} = np.concatenate("
            f"[{', '.join(a.var for a in arrs)}], axis=0)"
        )
        return [JVal("A", arrs[0].elem, arrs[0].rank, out, True)]

    def _gen_apply(self, e: A.ApplyExp, scope: _Scope, spec: bool):
        raise JitUnsupported(f"function call {e.fname} is not transpiled")

    # -- SOACs --------------------------------------------------------------

    def _soac_inputs(
        self, scope: _Scope, width_atom: A.Atom, arrs, what: str
    ) -> Tuple[str, List[JVal]]:
        width = self.atom(scope, width_atom)
        if width.kind == "B":
            raise JitUnsupported(f"{what} of batched width")
        if width.kind != "S":
            raise JitUnsupported(f"{what} width must be a scalar")
        w = self.fresh("_w")
        self.line(f"{w} = int({width.var})")
        vals = []
        for a in arrs:
            v = scope.lookup(a.name)
            if v.kind == "S":
                raise JitUnsupported(f"expected array, got scalar for {a}")
            outer = f"{v.var}.shape[{1 if v.kind == 'B' else 0}]"
            self.line(f"if {outer} != {w}:")
            with self.indented():
                self.line(
                    f'raise JitFallback("{what}: input outer size '
                    f'mismatch")'
                )
            vals.append(v)
        return w, vals

    def _expand_captures(
        self, lam: A.Lambda, scope: _Scope, width: str
    ) -> List[Tuple[str, JVal]]:
        """Eagerly repeat every batched free variable of ``lam`` by the
        inner width."""
        out = []
        for name in sorted(free_vars_lambda(lam)):
            v = scope.maybe(name)
            if v is not None and v.kind == "B":
                nv = self.fresh("_xp")
                self.line(f"{nv} = np.repeat({v.var}, {width}, axis=0)")
                out.append((name, JVal("B", v.elem, v.rank, nv, False)))
        return out

    def _gen_map(self, e: A.MapExp, scope: _Scope, spec: bool):
        w, vals = self._soac_inputs(scope, e.width, e.arrs, "map")
        if not vals:
            raise JitUnsupported("map without inputs")
        self.line(f"if {w} == 0:")
        with self.indented():
            self.line(
                'raise JitFallback("map without vectorizable extent")'
            )
        if self.depth > 0:
            return self._map_batched(e, scope, spec, w, vals)
        # Entering the batch: lambda parameters become batched views of
        # the uniform inputs; the whole body runs once over the batch.
        child = scope.child(barrier=True)
        for p, v in zip(e.lam.params, vals):
            self._bind_param(
                child, p, JVal("B", v.elem, v.rank - 1, v.var, v.owned)
            )
        self._extents.append(w)
        try:
            outs = self.gen_body(e.lam.body, child, spec)
        finally:
            self._extents.pop()
        results = []
        for o in outs:
            if o.kind == "B":
                self.line(f"if {o.var}.shape[0] != {w}:")
                with self.indented():
                    self.line(
                        'raise JitFallback("batch width mismatch")'
                    )
                results.append(
                    JVal("A", o.elem, o.rank + 1, o.var, o.owned)
                )
            elif o.kind == "S":
                out = self.fresh()
                self.line(
                    f"{out} = np.full(({w},), {o.var}, "
                    f"dtype={self._dt(o.elem)})"
                )
                results.append(JVal("A", o.elem, 1, out, True))
            else:
                out = self.fresh()
                self.line(
                    f"{out} = np.broadcast_to({o.var}, "
                    f"({w},) + {o.var}.shape).copy()"
                )
                results.append(JVal("A", o.elem, o.rank + 1, out, True))
        return results

    def _map_batched(
        self, e: A.MapExp, scope: _Scope, spec: bool, w: str, vals
    ):
        """A map inside a batch extends it: flatten ``(B, n)`` into
        ``B*n``.  Batched inputs are reshaped, uniform ones tiled, and
        the lane values the lambda captures repeated, so the body never
        sees the enclosing batch at its old width."""
        b = self.extent
        expanded = self._expand_captures(e.lam, scope, w)
        child = scope.child(barrier=True)
        for name, v in expanded:
            child.bind(name, v)
        ext = self.fresh("_e")
        self.line(f"{ext} = {b} * {w}")
        for p, v in zip(e.lam.params, vals):
            pv = self.fresh("_p")
            if v.kind == "B":
                self.line(f"if {v.var}.shape[0] != {b}:")
                with self.indented():
                    self.line(
                        'raise JitFallback("batch width mismatch in map")'
                    )
                self.line(
                    f"{pv} = {v.var}.reshape(({ext},) + {v.var}.shape[2:])"
                )
                self._bind_param(
                    child, p, JVal("B", v.elem, v.rank - 1, pv, v.owned)
                )
            else:
                reps = "(" + ", ".join([b] + ["1"] * (v.rank - 1)) + ")"
                self.line(f"{pv} = np.tile({v.var}, {reps})")
                self._bind_param(
                    child, p, JVal("B", v.elem, v.rank - 1, pv, False)
                )
        self._extents.append(ext)
        try:
            outs = self.gen_body(e.lam.body, child, spec)
        finally:
            self._extents.pop()
        results = []
        for o in outs:
            ob = self._to_batched_checked(
                o, ext, "batch width mismatch"
            )
            out = self.fresh()
            self.line(
                f"{out} = {ob.var}.reshape(({b}, {w}) + {ob.var}.shape[1:])"
            )
            results.append(JVal("B", o.elem, ob.rank + 1, out, ob.owned))
        return results

    def _row(self, v: JVal, i: str) -> JVal:
        """Element ``i`` of a (possibly batched) array, per thread."""
        out = self.fresh("_r")
        if v.kind == "B":
            self.line(f"{out} = {v.var}[:, {i}]")
            return JVal("B", v.elem, v.rank - 1, out, v.owned)
        if v.rank - 1 == 0:
            self.line(f"{out} = {v.var}[{i}].item()")
            return JVal("S", v.elem, 0, out)
        self.line(f"{out} = {v.var}[{i}]")
        return JVal("A", v.elem, v.rank - 1, out, v.owned)

    # -- reduce / scan ------------------------------------------------------

    def _combine(
        self, op: str, neutral: JVal, red_var: str, red_ndim: int,
        red_batched: bool, scan: bool,
    ) -> JVal:
        """``neutral (+) folded`` exactly as ``_combine`` computes it."""
        batched = red_batched or neutral.kind == "B"
        nd = self._asarray(neutral)
        nd_ndim = neutral.ndim
        if scan and neutral.kind == "B":
            ndv = self.fresh("_nd")
            self.line(f"{ndv} = {nd}[:, None]")
            nd = ndv
            nd_ndim += 1
        out = self._np_binop(op, neutral.elem, nd, red_var, False)
        self._dtype_fix(out, neutral.elem)
        ndim = max(nd_ndim, red_ndim)
        if batched:
            return JVal("B", neutral.elem, ndim - 1, out, False)
        if ndim == 0:
            s = self.fresh()
            self.line(f"{s} = {out}.item()")
            return JVal("S", neutral.elem, 0, s)
        return JVal("A", neutral.elem, ndim, out, False)

    def _gen_reduce(self, e: A.ReduceExp, scope: _Scope, spec: bool):
        w, vals = self._soac_inputs(scope, e.width, e.arrs, "reduce")
        neutral = [self.atom(scope, a) for a in e.neutral]
        op = _simple_op(e.lam)
        ufunc = (
            _ufunc_src(op, vals[0].elem)
            if len(vals) == 1 and len(neutral) == 1
            else None
        )
        if ufunc is not None:
            v = vals[0]
            axis = 1 if v.kind == "B" else 0
            red = self.fresh("_red")
            red_buf, combined = self._capture(
                lambda: (
                    self.line(
                        f"{red} = {ufunc}.reduce({v.var}, axis={axis})"
                    ),
                    self._combine(
                        op, neutral[0], red, v.ndim - 1,
                        v.kind == "B", scan=False,
                    ),
                )[1]
            )
            return self._unless_empty(w, neutral, red_buf, [combined])
        if self.depth == 0 and _trap_free(e.lam):
            return self._reduce_tree(e.lam, neutral, vals, w, scope, spec)
        return self._fold_sequential(
            e.lam, neutral, vals, w, scope, spec, scan=False
        )

    def _unless_empty(
        self, w: str, neutral: List[JVal], buf: _Emitter, outs: List[JVal]
    ) -> List[JVal]:
        """``outs`` (computed by ``buf``), or the neutrals untouched
        when the width is 0; both paths must produce the same static
        kinds, so join them."""
        if len(outs) != len(neutral):
            raise JitUnsupported("fold arity mismatch")
        kds = [_join_kd(_kd(n), _kd(o)) for n, o in zip(neutral, outs)]
        res = [self.fresh("_o") for _ in kds]
        self.line(f"if {w} == 0:")
        with self.indented():
            self._splice_arm(_Emitter(), neutral, kds, res)
        self.line("else:")
        with self.indented():
            self._splice_arm(buf, outs, kds, res)
        return [
            JVal(k, el, r, o, ow) for (k, el, r, ow), o in zip(kds, res)
        ]

    def _apply_batched(
        self, lam: A.Lambda, args: List[JVal], ext: str, scope: _Scope,
        spec: bool,
    ) -> List[JVal]:
        """Apply ``lam`` once over a batch of ``ext`` lanes entered
        from uniform code; every result comes back batched."""
        self._extents.append(ext)
        try:
            return [
                self._to_batched_checked(o, ext, "batch width mismatch")
                for o in self.gen_lambda(lam, args, scope, spec)
            ]
        finally:
            self._extents.pop()

    def _tree_combine(
        self, lam: A.Lambda, vals: List[JVal], n: str, scope: _Scope,
        spec: bool,
    ) -> List[JVal]:
        """Fold the ``n >= 1`` rows of the uniform arrays ``vals`` with
        ``lam`` as a pairwise tree: each step applies ``lam`` once, in
        batched mode, to ``x[0:2h:2]`` and ``x[1:2h:2]`` and carries an
        odd last row over, so the rows stay in order and only
        associativity is assumed — never commutativity.  Returns
        one-row arrays after ``ceil(log2 n)`` steps."""
        cur = [self.fresh("_s") for _ in vals]
        for s, v in zip(cur, vals):
            self.line(f"{s} = {v.var}")
        count, half = self.fresh("_n"), self.fresh("_h")
        self.line(f"{count} = {n}")
        self.line(f"while {count} > 1:")
        with self.indented():
            self.line(f"{half} = {count} >> 1")
            sides: List[JVal] = []
            for first in (0, 1):
                for s, v in zip(cur, vals):
                    x = self.fresh("_x")
                    self.line(f"{x} = {s}[{first}:2 * {half}:2]")
                    sides.append(JVal("B", v.elem, v.rank - 1, x))
            outs = self._apply_batched(lam, sides, half, scope, spec)
            if len(outs) != len(vals):
                raise JitUnsupported("fold arity mismatch")
            for s, v, o in zip(cur, vals, outs):
                if o.elem is not v.elem or o.rank != v.rank - 1:
                    raise JitUnsupported(
                        "fold operator changes its operand type"
                    )
                self.line(
                    f"{s} = np.concatenate(({o.var}, {s}[2 * {half}:]))"
                )
            self.line(f"{count} -= {half}")
        return [
            JVal("A", v.elem, v.rank, s) for s, v in zip(cur, vals)
        ]

    def _reduce_tree(
        self, lam: A.Lambda, neutral: List[JVal], vals: List[JVal],
        w: str, scope: _Scope, spec: bool,
    ):
        """A kernel-level reduce with a trap-free operator: the tree,
        then one uniform ``neutral (+) folded`` application."""

        def folded() -> List[JVal]:
            rows = self._tree_combine(lam, vals, w, scope, spec)
            firsts = [self._row(r, "0") for r in rows]
            return self.gen_lambda(lam, neutral + firsts, scope, spec)

        buf, outs = self._capture(folded)
        return self._unless_empty(w, neutral, buf, outs)

    def _gen_scan(self, e: A.ScanExp, scope: _Scope, spec: bool):
        w, vals = self._soac_inputs(scope, e.width, e.arrs, "scan")
        self.line(f"if {w} == 0:")
        with self.indented():
            self.line('raise JitFallback("zero-width scan")')
        neutral = [self.atom(scope, a) for a in e.neutral]
        op = _simple_op(e.lam)
        ufunc = (
            _ufunc_src(op, vals[0].elem)
            if len(vals) == 1 and len(neutral) == 1
            else None
        )
        if ufunc is not None:
            v = vals[0]
            axis = 1 if v.kind == "B" else 0
            acc = self.fresh("_acc")
            self.line(f"{acc} = {ufunc}.accumulate({v.var}, axis={axis})")
            return [
                self._combine(
                    op, neutral[0], acc, v.ndim, v.kind == "B", scan=True
                )
            ]
        return self._fold_sequential(
            e.lam, neutral, vals, w, scope, spec, scan=True
        )

    def _fold_sequential(
        self, lam: A.Lambda, neutral: List[JVal], vals: List[JVal],
        w: str, scope: _Scope, spec: bool, scan: bool,
    ):
        """The general fold: a runtime loop applying the lambda row by
        row, with the accumulator kinds stabilized by fixpoint."""
        slots = [self.fresh("_s") for _ in neutral]
        nexts = [self.fresh("_n") for _ in neutral]
        i = self.fresh("_i")
        cols = [self.fresh("_col") for _ in neutral] if scan else []
        seeds = [_kd(v) for v in neutral]

        def attempt(kds: List[KD]):
            acc = []
            for v, kd, s in zip(neutral, kds, slots):
                cv = self._coerce(v, kd)
                self.line(f"{s} = {cv.var}")
                kind, el, r, ow = kd
                acc.append(JVal(kind, el, r, s, ow))
            for c in cols:
                self.line(f"{c} = []")
            self.line(f"for {i} in range(int({w})):")
            with self.indented():
                args = acc + [self._row(v, i) for v in vals]
                outs = self.gen_lambda(lam, args, scope, spec)
                if len(outs) != len(acc):
                    raise JitUnsupported("fold arity mismatch")
                new_kds = self._state_join(kds, outs)
                self._require_kds(kds, new_kds)
                for n, o, kd in zip(nexts, outs, kds):
                    cv = self._coerce(o, kd)
                    self.line(f"{n} = {cv.var}")
                for s, n in zip(slots, nexts):
                    self.line(f"{s} = {n}")
                for c, s in zip(cols, slots):
                    self.line(f"{c}.append({s})")
            return new_kds, None

        kds, _ = self._fixpoint(seeds, attempt)
        if not scan:
            return [
                JVal(k, el, r, s, ow)
                for (k, el, r, ow), s in zip(kds, slots)
            ]
        results = []
        for c, (kind, elem, rank, owned) in zip(cols, kds):
            out = self.fresh()
            if kind == "B":
                self.line(f"{out} = np.stack({c}, axis=1)")
                results.append(JVal("B", elem, rank + 1, out, False))
            elif kind == "S":
                self.line(f"{out} = np.array({c}, dtype={self._dt(elem)})")
                results.append(JVal("A", elem, 1, out, False))
            else:
                self.line(f"{out} = np.stack({c})")
                results.append(JVal("A", elem, rank + 1, out, False))
        return results

    # -- streams ------------------------------------------------------------

    def _stream_inputs(self, scope: _Scope, e, what: str):
        w, vals = self._soac_inputs(scope, e.width, e.arrs, what)
        if self.depth > 0 or any(v.kind == "B" for v in vals):
            raise JitUnsupported(f"batched {what}")
        self.line(f"if {w} == 0:")
        with self.indented():
            self.line(f'raise JitFallback("zero-width {what}")')
        return w, vals

    def _chunk_slices(self, vals, size: str, off: str) -> List[JVal]:
        out = []
        for v in vals:
            c = self.fresh("_ch")
            self.line(f"{c} = {v.var}[{off}:{off} + {size}]")
            out.append(JVal("A", v.elem, v.rank, c, v.owned))
        return out

    def _concat_pieces(self, pieces: str, w: str, elem, rank) -> JVal:
        out = self.fresh()
        self.line(f"{out} = np.concatenate({pieces}, axis=0)")
        self.line(f"if {out}.shape[0] != {w}:")
        with self.indented():
            self.line(
                'raise JitFallback("chunk results do not reassemble")'
            )
        return JVal("A", elem, rank, out, False)

    def _gen_stream_map(self, e: A.StreamMapExp, scope: _Scope, spec: bool):
        w, vals = self._stream_inputs(scope, e, "stream_map")
        n_out = len(e.lam.ret_types)
        pieces = [self.fresh("_ps") for _ in range(n_out)]
        for p in pieces:
            self.line(f"{p} = []")
        size, off = self.fresh("_size"), self.fresh("_off")
        self.line(f"for {size}, {off} in R.chunks({w}):")
        with self.indented():
            chunks = self._chunk_slices(vals, size, off)
            args = [JVal("S", I32, 0, size)] + chunks
            outs = self.gen_lambda(e.lam, args, scope, spec)
            for p, o in zip(pieces, outs):
                if o.kind != "A":
                    raise JitUnsupported(
                        "stream_map chunk result must be a uniform array"
                    )
                self.line(f"{p}.append({o.var})")
        return [
            self._concat_pieces(p, w, o.elem, o.rank)
            for p, o in zip(pieces, outs)
        ]

    def _gen_stream_red(self, e: A.StreamRedExp, scope: _Scope, spec: bool):
        """Every chunk of ``R.lane_groups(w)`` folds on its own lane:
        the fold body runs once per group of equal-size chunks, over a
        batch of that group's lanes, and the lane accumulators — in
        stream order — are tree-combined with the reduction operator."""
        w, vals = self._stream_inputs(scope, e, "stream_red")
        n_acc = e.num_accs
        init = [self.atom(scope, a) for a in e.accs]
        if any(a.kind == "B" for a in init):
            raise JitUnsupported("batched stream_red accumulator")
        n_arr_out = len(e.fold_lam.ret_types) - n_acc
        lane_accs = [self.fresh("_ps") for _ in range(n_acc)]
        pieces = [self.fresh("_ps") for _ in range(n_arr_out)]
        for p in lane_accs + pieces:
            self.line(f"{p} = []")
        lanes, size, off = (
            self.fresh("_lanes"), self.fresh("_size"), self.fresh("_off")
        )
        self.line(f"for {lanes}, {size}, {off} in R.lane_groups({w}):")
        with self.indented():
            args = [JVal("S", I32, 0, size)]
            for a in init:
                # Each lane starts from its own copy of the initial
                # accumulator, which the fold may then update in place.
                ci = self.fresh("_ci")
                shape = f"({lanes},)"
                if a.kind == "A":
                    shape += f" + {a.var}.shape"
                self.line(
                    f"{ci} = np.broadcast_to({self._asarray(a)}, {shape})"
                    ".copy()"
                )
                args.append(JVal("B", a.elem, a.rank, ci, True))
            for v in vals:
                c = self.fresh("_ch")
                self.line(
                    f"{c} = {v.var}[{off}:{off} + {lanes} * {size}]"
                    f".reshape(({lanes}, {size}) + {v.var}.shape[1:])"
                )
                args.append(JVal("B", v.elem, v.rank, c, v.owned))
            outs = self._apply_batched(e.fold_lam, args, lanes, scope, spec)
            if len(outs) != n_acc + n_arr_out:
                raise JitUnsupported("stream_red arity mismatch")
            for a, o in zip(init, outs):
                if o.elem is not a.elem or o.rank != a.rank:
                    raise JitUnsupported(
                        "stream_red fold changes its accumulator type"
                    )
            for p, o in zip(lane_accs, outs):
                self.line(f"{p}.append({o.var})")
            for p, o in zip(pieces, outs[n_acc:]):
                if o.rank == 0:
                    raise JitUnsupported(
                        "stream_red chunk result must be an array"
                    )
                # (lanes, size', ...) flattens back into stream order.
                self.line(
                    f"{p}.append({o.var}.reshape(({o.var}.shape[0] * "
                    f"{o.var}.shape[1],) + {o.var}.shape[2:]))"
                )
        rows = []
        for p, a in zip(lane_accs, init):
            self.line(f"{p} = np.concatenate({p}, axis=0)")
            rows.append(JVal("A", a.elem, a.rank + 1, p))
        if rows:
            rows = self._tree_combine(
                e.red_lam, rows, f"{lane_accs[0]}.shape[0]", scope, spec
            )
        arrays = [
            self._concat_pieces(p, w, o.elem, o.rank)
            for p, o in zip(pieces, outs[n_acc:])
        ]
        return [self._row(r, "0") for r in rows] + arrays

    def _gen_stream_seq(self, e: A.StreamSeqExp, scope: _Scope, spec: bool):
        w, vals = self._stream_inputs(scope, e, "stream_seq")
        n_acc = e.num_accs
        init = [self.atom(scope, a) for a in e.accs]
        if any(a.kind == "B" for a in init):
            raise JitUnsupported("batched stream_seq accumulator")
        n_arr_out = len(e.lam.ret_types) - n_acc
        pieces = [self.fresh("_ps") for _ in range(n_arr_out)]
        slots = [self.fresh("_s") for _ in range(n_acc)]
        nexts = [self.fresh("_n") for _ in range(n_acc)]
        size, off = self.fresh("_size"), self.fresh("_off")
        seeds = [_kd(v) for v in init]
        arr_info: List[JVal] = []

        def attempt(kds: List[KD]):
            for v, kd, s in zip(init, kds, slots):
                cv = self._coerce(v, kd)
                self.line(f"{s} = {cv.var}")
            for p in pieces:
                self.line(f"{p} = []")
            self.line(f"for {size}, {off} in R.chunks({w}):")
            with self.indented():
                acc_in = [
                    JVal(k, el, r, s, ow)
                    for (k, el, r, ow), s in zip(kds, slots)
                ]
                chunks = self._chunk_slices(vals, size, off)
                args = [JVal("S", I32, 0, size)] + acc_in + chunks
                outs = self.gen_lambda(e.lam, args, scope, spec)
                chunk_acc = list(outs[:n_acc])
                arr_outs = list(outs[n_acc:])
                for p, o in zip(pieces, arr_outs):
                    if o.kind != "A":
                        raise JitUnsupported(
                            "stream_seq chunk result must be a uniform array"
                        )
                    self.line(f"{p}.append({o.var})")
                new_kds = self._state_join(kds, chunk_acc)
                self._require_kds(kds, new_kds)
                for n, o, kd in zip(nexts, chunk_acc, kds):
                    cv = self._coerce(o, kd)
                    self.line(f"{n} = {cv.var}")
                for s, n in zip(slots, nexts):
                    self.line(f"{s} = {n}")
            arr_info.clear()
            arr_info.extend(arr_outs)
            return new_kds, None

        kds, _ = self._fixpoint(seeds, attempt)
        accs = [
            JVal(k, el, r, s, ow)
            for (k, el, r, ow), s in zip(kds, slots)
        ]
        arrays = [
            self._concat_pieces(p, w, o.elem, o.rank)
            for p, o in zip(pieces, arr_info)
        ]
        return accs + arrays

    # -- filter / scatter ---------------------------------------------------

    def _gen_filter(self, e: A.FilterExp, scope: _Scope, spec: bool):
        w, (val,) = self._soac_inputs(scope, e.width, (e.arr,), "filter")
        if self.depth > 0 or val.kind == "B":
            raise JitUnsupported("batched filter")
        self.line(f"if {w} == 0:")
        with self.indented():
            self.line('raise JitFallback("zero-width filter")')
        child = scope.child(barrier=True)
        self._bind_param(
            child,
            e.lam.params[0],
            JVal("B", val.elem, val.rank - 1, val.var, val.owned),
        )
        self._extents.append(w)
        try:
            (flag,) = self.gen_body(e.lam.body, child, spec)
        finally:
            self._extents.pop()
        if not flag.elem.is_bool or flag.rank != 0:
            raise JitUnsupported("filter predicate must return bool")
        fb = self._to_batched_checked(flag, w, "batch width mismatch")
        m = self.fresh("_m")
        self.line(f"{m} = {fb.var}.astype(bool)")
        data = self.fresh()
        self.line(f"{data} = {val.var}[{m}]")
        count = self.fresh("_cnt")
        self.line(f"{count} = int({m}.sum())")
        return [
            JVal("S", I32, 0, count),
            JVal("A", val.elem, val.rank, data, True),
        ]

    def _gen_scatter(self, e: A.ScatterExp, scope: _Scope, spec: bool):
        dest = scope.lookup(e.dest.name)
        idx = scope.lookup(e.idx_arr.name)
        val = scope.lookup(e.val_arr.name)
        if any(v.kind == "B" for v in (dest, idx, val)):
            raise JitUnsupported("batched scatter")
        if any(v.kind == "S" for v in (dest, idx, val)):
            raise JitUnsupported("scatter operands must be arrays")
        self.line(f"if {idx.var}.shape[0] != {val.var}.shape[0]:")
        with self.indented():
            self.line(
                'raise JitFallback("scatter: index/value length mismatch")'
            )
        data = self.fresh("_u")
        if dest.owned and not spec:
            self.line("if R.in_place:")
            with self.indented():
                self.line(f"{data} = {dest.var}")
            self.line("else:")
            with self.indented():
                self.line(f"{data} = {dest.var}.copy()")
        else:
            self.line(f"{data} = {dest.var}.copy()")
        ok = self.fresh("_ok")
        self.line(
            f"{ok} = ({idx.var} >= 0) & ({idx.var} < {data}.shape[0])"
        )
        self.line(
            f"{data}[{idx.var}[{ok}].astype(np.int64)] = {val.var}[{ok}]"
        )
        return [JVal("A", dest.elem, dest.rank, data, True)]

    # -- whole-kernel entry point -------------------------------------------

    def generate(self) -> str:
        scope = _Scope()
        params = []
        for j, (name, kind, elem_name, rank) in enumerate(self.sig):
            pv = f"p{j}"
            params.append(pv)
            scope.bind(
                name, JVal(kind, prim_from_name(elem_name), rank, pv)
            )
        body_buf, outs = self._capture(
            lambda: self.gen_exp(self.kernel.exp, scope.child(), False)
        )
        for o in outs:
            if o.kind == "B":
                raise JitUnsupported(
                    "kernel produced an unlowered batched value"
                )
        ret = ", ".join(o.var for o in outs)

        lines = [
            f"# Transpiled from kernel {self.kernel.name!r} "
            f"({self.kernel.kind}) — generated code, do not edit.",
            f'SCHEMA = "{PYCODE_SCHEMA}"',
            f"KERNEL = {self.kernel.name!r}",
            f"SIG = {self.sig!r}",
            f"PARAMS = {tuple(name for name, _, _, _ in self.sig)!r}",
            "OUTS = "
            + repr(tuple((o.kind, o.elem.name, o.rank) for o in outs)),
            "",
            "import numpy as np",
            "",
            "from repro.core.prim import (",
            "    BINOPS, CMPOPS, UNOPS, ConvOp, prim_from_name,",
            "    eval_binop, eval_cmpop, eval_convop, eval_unop,",
            ")",
            "from repro.vm.jit.runtime import JitFallback",
            "",
        ]
        for name, expr in self._hoisted.items():
            lines.append(f"{name} = {expr}")
        if self._hoisted:
            lines.append("")
        lines.append("")
        lines.append(f"def run(R, {', '.join(params)}):")
        # One errstate for the whole kernel: it only silences warnings
        # — values and the explicit trap checks are unaffected.
        lines.append('    with np.errstate(all="ignore"):')
        body = body_buf.render(base=2)
        lines.extend(body if body else ["        pass"])
        lines.append(f"        return ({ret}{',' if ret else ''})")
        lines.append("")
        return "\n".join(lines)


_GEN = {
    A.AtomExp: KernelCodegen._gen_atomexp,
    A.BinOpExp: KernelCodegen._gen_binop,
    A.CmpOpExp: KernelCodegen._gen_cmpop,
    A.UnOpExp: KernelCodegen._gen_unop,
    A.ConvOpExp: KernelCodegen._gen_convop,
    A.IfExp: KernelCodegen._gen_if,
    A.IndexExp: KernelCodegen._gen_index,
    A.UpdateExp: KernelCodegen._gen_update,
    A.IotaExp: KernelCodegen._gen_iota,
    A.ReplicateExp: KernelCodegen._gen_replicate,
    A.RearrangeExp: KernelCodegen._gen_rearrange,
    A.ReshapeExp: KernelCodegen._gen_reshape,
    A.CopyExp: KernelCodegen._gen_copy,
    A.ConcatExp: KernelCodegen._gen_concat,
    A.ApplyExp: KernelCodegen._gen_apply,
    A.LoopExp: KernelCodegen._gen_loop,
    A.MapExp: KernelCodegen._gen_map,
    A.ReduceExp: KernelCodegen._gen_reduce,
    A.ScanExp: KernelCodegen._gen_scan,
    A.StreamMapExp: KernelCodegen._gen_stream_map,
    A.StreamRedExp: KernelCodegen._gen_stream_red,
    A.StreamSeqExp: KernelCodegen._gen_stream_seq,
    A.FilterExp: KernelCodegen._gen_filter,
    A.ScatterExp: KernelCodegen._gen_scatter,
}


def transpile_kernel(kernel, sig: Sequence[Tuple[str, str, str, int]]) -> str:
    """Transpile ``kernel`` at launch signature ``sig``.

    ``sig`` is a tuple of ``(name, kind, elem_name, rank)`` describing
    the free variables of the kernel expression as the launch
    environment binds them (``kind`` is ``"S"`` or ``"A"``).  Returns
    self-contained Python module source.  Raises :class:`JitUnsupported`
    when the kernel is outside the transpilable subset."""
    return KernelCodegen(kernel, sig).generate()
