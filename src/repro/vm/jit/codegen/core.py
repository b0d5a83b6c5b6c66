"""The transpiler core: :class:`KernelCodegen` — fresh names, hoisted
constants, the batch-extent stack, kind coercion, bodies and lambdas,
dispatch over the rule modules' table rows — and the whole-kernel
entry point."""

from __future__ import annotations

import contextlib
from dataclasses import replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ....core import ast as A
from ....core.prim import I32, PrimType, prim_from_name
from ....core.types import Array
from . import arrays, control, elementwise, folds, maps
from .values import KD, JitUnsupported, JVal, _Emitter, _Scope

#: Schema tag embedded in every generated module; bump on any change to
#: the generated code's shape so stale cached artifacts are discarded.
PYCODE_SCHEMA = "repro.pycode/v11"

#: Hard cap on emitted statements, the discarded attempts of a kind
#: fixpoint included: a loop's body is emitted once per widening of its
#: state, so nested loops multiply it.
_MAX_LINES = 50_000


class KernelCodegen:
    """Transpiles one kernel expression at one launch signature."""

    def __init__(self, kernel, sig: Sequence[Tuple[str, str, str, int]]):
        self.kernel = kernel
        self.sig = tuple(sig)
        self.em = _Emitter()
        self._counter = 0
        #: Hoisted module-level names: insertion-ordered name -> init expr.
        self._hoisted: Dict[str, str] = {}
        #: The hoisted arrays that are made read-only once built.
        self._read_only: Set[str] = set()
        self._const_pool: Dict[Tuple[str, str], str] = {}
        #: Hoisted constant name -> the constant it holds.
        self._constants: Dict[str, A.Const] = {}
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

    def indented(self) -> _Emitter:
        return self.em

    def hand_over_if(self, cond: str, reason: str) -> None:
        """Emit the hand-over: where ``cond`` holds at run time, the
        launch is the interpreter's (``JitFallback``)."""
        self.line(f"if {cond}:")
        with self.indented():
            self.line(f'raise JitFallback("{reason}")')

    def _capture(self, fn: Callable[[], object]) -> Tuple[_Emitter, object]:
        saved, self.em = self.em, _Emitter()
        try:
            ret = fn()
        finally:
            buf, self.em = self.em, saved
        return buf, ret

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

    def _const(self, c: A.Const) -> str:
        key = (repr(c.value), c.type.name)
        name = self._const_pool.get(key)
        if name is None:
            self._t(c.type)
            name = f"_K{len(self._const_pool)}"
            self._const_pool[key] = name
            self._constants[name] = c
            self._hoist(name, f"_T_{c.type.name}.coerce({c.value!r})")
        return name

    def constant(self, v: JVal) -> Optional[A.Const]:
        """The constant ``v`` holds when it is one (its value is known
        at transpile time), else None."""
        return self._constants.get(v.var) if v.kind == "S" else None

    # -- extents ------------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._extents)

    @property
    def extent(self) -> str:
        if not self._extents:
            raise JitUnsupported("batched value outside any batch extent")
        return self._extents[-1]

    @contextlib.contextmanager
    def batch(self, ext: str) -> Iterator[None]:
        """``ext`` is the innermost batch extent for the duration."""
        self._extents.append(ext)
        try:
            yield
        finally:
            self._extents.pop()

    # -- atoms --------------------------------------------------------------

    def atom(self, scope: _Scope, a: A.Atom) -> JVal:
        if isinstance(a, A.Const):
            return JVal("S", a.type, 0, self._const(a))
        return scope.lookup(a.name)

    # -- kind coercion ------------------------------------------------------

    def _asarray(self, v: JVal, t: Optional[PrimType] = None) -> str:
        """A value as an ndarray expression (a scalar as a 0-d array of
        element type ``t``, by default its own).  A constant's is built
        once, at module level beside it, and is read-only: every launch
        shares it."""
        if v.kind != "S":
            return v.var
        t = t or v.elem
        expr = f"np.asarray({v.var}, dtype={self._dt(t)})"
        if self.constant(v) is None:
            return expr
        name = self._hoist(f"{v.var}_{t.name}", expr)
        self._read_only.add(name)
        return name

    def _coerce(self, v: JVal, kd: KD) -> JVal:
        """Emit the code turning ``v`` into kind descriptor ``kd``: a
        scalar filled into a lane vector of its own, an array broadcast
        (a view, no copy)."""
        kind, elem, rank, owned = kd
        if v.kind == kind:
            return replace(v, owned=v.owned and owned)
        if kind != "B":
            raise JitUnsupported(f"cannot coerce kind {v.kind} to {kind}")
        ext = self.extent
        out = self.fresh()
        if v.kind == "S":
            self.line(
                f"{out} = np.full(({ext},), {v.var}, dtype={self._dt(elem)})"
            )
            return JVal("B", elem, rank, out, owned)
        self.line(
            f"{out} = np.broadcast_to({v.var}, ({ext},) + {v.var}.shape)"
        )
        return JVal("B", elem, rank, out, False)

    def mask(self, v: JVal) -> str:
        """The lane vector of the batched condition ``v`` as booleans:
        ``v`` itself when its values already are."""
        if v.elem.is_bool:
            return v.var
        m = self.fresh("_m")
        self.line(f"{m} = {v.var}.astype(bool)")
        return m

    def _to_batched_checked(self, v: JVal, ext: str, reason: str) -> JVal:
        """Coerce ``v`` to a batch of extent ``ext``, with a width check
        on an already-batched value."""
        if v.kind == "B":
            self.hand_over_if(f"{v.var}.shape[0] != {ext}", reason)
            return v
        return self._coerce(v, ("B", v.elem, v.rank, False))

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

    def gen_body(self, body: A.Body, scope: _Scope) -> List[JVal]:
        for bnd in body.bindings:
            results = self.gen_exp(bnd.exp, scope)
            if len(results) != len(bnd.pat):
                raise JitUnsupported(
                    f"pattern arity mismatch: {len(bnd.pat)} names for "
                    f"{len(results)} values"
                )
            for p, v in zip(bnd.pat, results):
                self._bind_param(scope, p, v)
        return [self.atom(scope, a) for a in body.result]

    def gen_lambda(
        self, lam: A.Lambda, args: List[JVal], scope: _Scope
    ) -> List[JVal]:
        if len(args) != len(lam.params):
            raise JitUnsupported("lambda arity mismatch")
        child = scope.child()
        for p, a in zip(lam.params, args):
            self._bind_param(child, p, a)
        return self.gen_body(lam.body, child)

    # -- dispatch -----------------------------------------------------------

    def gen_exp(self, e: A.Exp, scope: _Scope) -> List[JVal]:
        fn = _GEN.get(type(e))
        if fn is None:
            raise JitUnsupported(f"cannot transpile {type(e).__name__}")
        return fn(self, e, scope)

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
            lambda: self.gen_exp(self.kernel.exp, scope.child())
        )
        for o in outs:
            if o.kind == "B":
                raise JitUnsupported(
                    "kernel produced an unlowered batched value"
                )
        # An array the kernel did not allocate may be a view of an input
        # the host goes on to update in place: a result is never one.
        ret = ", ".join(
            o.var if o.kind == "S" or o.owned else f"{o.var}.copy()"
            for o in outs
        )

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
            if name in self._read_only:
                lines.append(f"{name}.setflags(write=False)")
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


#: The dispatch table: expression class -> rule, a plain function of
#: ``(codegen, exp, scope)``; each rule module names its rows.
_GEN = {
    **elementwise.RULES,
    **control.RULES,
    **arrays.RULES,
    **maps.RULES,
    **folds.RULES,
}


def transpile_kernel(kernel, sig: Sequence[Tuple[str, str, str, int]]) -> str:
    """Transpile ``kernel`` at launch signature ``sig``.

    ``sig`` is a tuple of ``(name, kind, elem_name, rank)`` describing
    the free variables of the kernel expression as the launch
    environment binds them (``kind`` is ``"S"`` or ``"A"``).  Returns
    self-contained Python module source.  Raises :class:`JitUnsupported`
    when the kernel is outside the transpilable subset."""
    return KernelCodegen(kernel, sig).generate()
