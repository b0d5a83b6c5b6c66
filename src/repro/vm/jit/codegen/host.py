"""The host program as one generated Python function.

A :class:`~repro.backend.kernel_ir.HostProgram` is transpiled once into
a module whose ``build(HP, S)`` — given the program and its statements
numbered as :func:`host_statements` numbers them — returns the entry
point as ``main(B, L, I, args)``: ``B`` the device's books
(:class:`~repro.gpu.simulator.DeviceAccounting`), ``L`` one callable per
launch site (the kernel runner's), ``I`` the reference interpreter.
Both executors run this one function; only ``L`` differs.

Locals hold raw values — ndarrays and Python scalars — and a size
variable is a Python ``int``, bound where the interpreter's
``bind_param`` would unify it.  Every check that binding makes is kept,
as integer comparisons on the shape; when one fails the binding is
handed to ``Interpreter.bind_param`` itself (``gpu.simulator.reject``),
so the error is the interpreter's, word for word.  A ``HostLoopStmt``
is a Python ``for``/``while``, a ``HostIfStmt`` an ``if``.  A scalar
``HostEval`` is emitted through the kernel lowering's uniform rules
(the interpreter's own ``eval_*`` functions); any other wraps its free
variables and calls ``I.eval_exp``.  Each launch site's signature — the
kind, element type and rank of the kernel's free variables — is fixed
here from the declared types and listed in ``SITES``.  The books are
called once per host statement, in program order, with the sizes the
statement names.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ....backend.kernel_ir import (
    AllocStmt,
    Count,
    FreeStmt,
    HostEval,
    HostIfStmt,
    HostLoopStmt,
    LaunchStmt,
    ManifestStmt,
)
from ....core import ast as A
from ....core.prim import I32
from ....core.traversal import free_vars_exp
from ....core.types import Array
from ....errors import CompilerBug
from .core import PYCODE_SCHEMA, KernelCodegen
from .values import JitUnsupported, JVal, _Scope

#: The host evaluations emitted inline through the kernel lowering's
#: uniform scalar rules; any other runs on the interpreter.
SCALAR_EVALS = (A.BinOpExp, A.CmpOpExp, A.UnOpExp, A.ConvOpExp)


def host_statements(stmts: Sequence) -> List:
    """Every statement of a host program, nested ones included, in the
    order the generated function numbers them (``S[k]``)."""
    out: List = []
    for s in stmts:
        out.append(s)
        if isinstance(s, HostLoopStmt):
            out += host_statements(s.body)
        elif isinstance(s, HostIfStmt):
            out += host_statements(s.then_body)
            out += host_statements(s.else_body)
    return out


def _dims(*counts: Count) -> List[str]:
    """The size variables ``counts`` name, first occurrence first."""
    return list(dict.fromkeys(
        d for c in counts for _, dims in c.terms for d in dims
    ))


def _targets(names: Sequence[str]) -> str:
    """The left-hand side unpacking a sequence into ``names``."""
    if not names:
        return ""
    return ", ".join(names) + ("," if len(names) == 1 else "") + " = "


class HostCodegen:
    """Transpiles one host program.  The kernel lowering's
    :class:`KernelCodegen` provides the emitter, the fresh temporaries,
    the hoisted module-level names and the scalar rules."""

    def __init__(self, hp) -> None:
        self.hp = hp
        self.cg = KernelCodegen(None, ())
        self._index = {
            id(s): k for k, s in enumerate(host_statements(hp.stmts))
        }
        #: What ``build`` binds for ``main``: name -> expression over
        #: ``HP`` and ``S``.
        self._prelude: Dict[str, str] = {}
        self._locals: Set[str] = set()
        #: Locals known to hold a Python ``int`` (unified sizes, loop
        #: counters); any other size is read through ``int()``.
        self._ints: Set[str] = set()
        #: ``(statement index, signature)`` per launch site; a signature
        #: is ``(name, kind, element type, rank)`` per free variable of
        #: the kernel the site binds, by name.
        self.sites: List[Tuple[int, tuple]] = []

    def line(self, text: str) -> None:
        self.cg.line(text)

    # -- names --------------------------------------------------------------

    def local(self, name: str) -> str:
        """A fresh local for the IR name ``name``: one per binding site,
        so no binding shadows another."""
        base = "v_" + re.sub(r"\W", "_", name)
        out, n = base, 1
        while out in self._locals:
            n += 1
            out = f"{base}_{n}"
        self._locals.add(out)
        return out

    def ref(self, name: str, expr: str) -> str:
        """``name``, bound by ``build`` to ``expr``."""
        self._prelude.setdefault(name, expr)
        return name

    def stmt(self, s) -> Tuple[int, str]:
        k = self._index[id(s)]
        return k, self.ref(f"S{k}", f"S[{k}]")

    # -- values -------------------------------------------------------------

    def value(self, scope: _Scope, a: A.Atom) -> JVal:
        """``a`` as the function holds it.  An unbound name reads as a
        call raising the interpreter's error, where it is read."""
        if isinstance(a, A.Var) and scope.maybe(a.name) is None:
            return JVal("U", I32, 0, f"unbound({a.name!r})")
        return self.cg.atom(scope, a)

    def size(self, scope: _Scope, name: str) -> Optional[str]:
        """The size variable ``name`` as a Python int, or None when the
        scope does not bind it to an integer."""
        v = scope.maybe(name)
        if v is None or v.kind != "S" or not v.elem.is_integral:
            return None
        return v.var if v.var in self._ints else f"int({v.var})"

    def sizes(self, scope: _Scope, names: Sequence[str]) -> str:
        """The bound ones of ``names`` as a dict literal."""
        items = [(n, self.size(scope, n)) for n in names]
        return "{" + ", ".join(
            f"{n!r}: {e}" for n, e in items if e is not None
        ) + "}"

    def wrap(self, v: JVal) -> str:
        """A raw value as the interpreter's ``Value``."""
        cls = "ArrayValue" if v.kind == "A" else "ScalarValue"
        return f"{cls}({v.var}, {self.cg._t(v.elem)})"

    # -- binding ------------------------------------------------------------

    def bind(
        self, scope: _Scope, p: A.Param, var: str, src: Optional[JVal],
        path: str,
    ) -> Optional[str]:
        """Bind the local ``var`` to ``p`` with the checks
        ``Interpreter.bind_param`` makes: for an array type, that the
        value is an array, its rank, its constant dimensions, and each
        size variable equal to the one in scope — or, unbound, bound
        here.  ``src`` is what the value is statically (None: known at
        run time only): an ``A`` is an ndarray, and one of the declared
        rank needs no rank check.  ``path`` locates ``p`` from
        ``HP``/``S``.  Returns the local holding the shape, if one
        does."""
        t = p.type
        if not isinstance(t, Array):
            scope.bind(p.name, JVal("S", t.t, 0, var))
            return None
        rank = len(t.shape)
        array = src is not None and src.kind == "A"
        sh = self.cg.fresh("_sh")
        conds = [] if array and src.rank == rank else [f"len({sh}) != {rank}"]
        bound: Dict[str, str] = {}
        unified: Dict[str, int] = {}
        for k, d in enumerate(t.shape):
            if isinstance(d, int):
                conds.append(f"{sh}[{k}] != {d}")
            elif d in unified:
                conds.append(f"{sh}[{k}] != {sh}[{unified[d]}]")
            else:
                v = scope.maybe(d)
                if v is None:
                    unified[d] = k
                elif v.kind == "S":
                    conds.append(f"{sh}[{k}] != {v.var}")
                    bound[d] = v.var
        if not (conds or unified):
            sh = None
        else:
            self.line(
                f"{sh} = {var}.shape" if array
                else f"{sh} = {var}.shape if isinstance({var}, ndarray) "
                "else ()"
            )
        if conds:
            sizes = ", ".join(f"{d!r}: {e}" for d, e in bound.items())
            self.line(f"if {' or '.join(conds)}:")
            with self.cg.indented():
                self.line(f"reject(I, {path}, {var}, {{{sizes}}})")
        for d, k in unified.items():
            dim = self.local(d)
            self.line(f"{dim} = {sh}[{k}]")
            self._ints.add(dim)
            scope.bind(d, JVal("S", I32, 0, dim))
        scope.bind(p.name, JVal("A", t.elem, rank, var))
        return sh

    def bind_all(
        self, scope: _Scope, pat: Sequence[A.Param], vals: Sequence[str],
        srcs: Sequence[Optional[JVal]], path: str,
    ) -> None:
        """Bind each ``pat[j]`` (at ``path.format(j=j)``) to the value
        ``vals[j]`` holds, through a fresh local named after it."""
        for j, (p, val, src) in enumerate(zip(pat, vals, srcs)):
            var = self.local(p.name)
            self.line(f"{var} = {val}")
            self.bind(scope, p, var, src, path.format(j=j))

    # -- statements ---------------------------------------------------------

    def stmts(self, stmts: Sequence, scope: _Scope) -> None:
        for s in stmts:
            _EMIT[type(s)](self, s, scope)

    def launch(self, s: LaunchStmt, scope: _Scope) -> None:
        k, _ = self.stmt(s)
        kernel = s.kernel
        path = f"S[{k}].kernel.pat[{{j}}]"
        src = None if s.elide_copy is None else scope.maybe(s.elide_copy)
        if src is not None:
            # The memory planner proved the source dies here: the copy
            # is a no-op and the result aliases it.
            n = len(kernel.pat)
            self.bind_all(scope, kernel.pat, [src.var] * n, [src] * n, path)
            return
        sig = tuple(
            (name, v.kind, v.elem.name, v.rank)
            for name in sorted(free_vars_exp(kernel.exp))
            for v in [scope.maybe(name)] if v is not None
        )
        site = len(self.sites)
        self.sites.append((k, sig))
        sizes = "".join(
            f"{self.size(scope, n) or 'None'}, " for n in kernel.size_names
        )
        args = "".join(f", {scope.lookup(n).var}" for n, _, _, _ in sig)
        outs = [self.local(p.name) for p in kernel.pat]
        kname = self.ref(f"K{k}", f"S[{k}].kernel")
        self.line(
            f"{_targets(outs)}B.launch({kname}, ({sizes.rstrip()}), "
            f"L{site}{args})"
        )
        for j, (p, var) in enumerate(zip(kernel.pat, outs)):
            self.bind(scope, p, var, None, path.format(j=j))

    def host_eval(self, s: HostEval, scope: _Scope) -> None:
        k, name = self.stmt(s)
        e, pat = s.binding.exp, s.binding.pat
        path = f"S[{k}].binding.pat[{{j}}]"
        v = self.scalar_eval(e, scope)
        if v is not None:
            self.bind_all(scope, pat[:1], [v.var], [v], path)
        else:
            env = ", ".join(
                f"{n!r}: {self.wrap(b)}"
                for n in sorted(free_vars_exp(e))
                for b in [scope.maybe(n)] if b is not None
            )
            outs = [self.local(p.name) for p in pat]
            exp = self.ref(f"E{k}", f"S[{k}].binding.exp")
            self.line(
                f"{_targets(outs)}raw_values(I.eval_exp({exp}, {{{env}}}))"
            )
            for j, (p, var) in enumerate(zip(pat, outs)):
                self.bind(scope, p, var, None, path.format(j=j))
        self.line(f"B.host_eval({name})")

    def scalar_eval(self, e: A.Exp, scope: _Scope) -> Optional[JVal]:
        """A scalar operator emitted inline as the kernel lowering emits
        it in uniform position — the interpreter's own ``eval_*`` on
        the raw scalars — or None when ``e`` is not one."""
        if not isinstance(e, SCALAR_EVALS):
            return None
        cg = self.cg
        try:
            buf, (v,) = cg._capture(lambda: cg.gen_exp(e, scope, False))
        except JitUnsupported:
            return None  # an array operand: the interpreter's error
        cg.em.splice(buf)
        if isinstance(e, A.UnOpExp) and e.op == "not" and not e.t.is_bool:
            # ``eval_unop`` answers a bool; the interpreter's ``scalar``
            # makes it an integer of the operator's type.
            cg.line(f"{v.var} = {cg._t(e.t)}.coerce({v.var})")
        return v

    def manifest(self, s: ManifestStmt, scope: _Scope) -> None:
        _, name = self.stmt(s)
        v = scope.maybe(s.src)
        if s.src != s.dst and v is not None:
            # Layout change only; the logical value is unchanged.
            var = self.local(s.dst)
            self.line(f"{var} = {v.var}")
            scope.bind(s.dst, replace(v, var=var))
        self.line(f"B.manifest({name}, {self.sizes(scope, _dims(s.elems))})")

    def alloc(self, s: AllocStmt, scope: _Scope) -> None:
        _, name = self.stmt(s)
        sizes = self.sizes(scope, _dims(s.block.elems))
        self.line(f"B.alloc({name}, {sizes})")

    def free(self, s: FreeStmt, scope: _Scope) -> None:
        self.line(f"B.free({self.stmt(s)[1]})")

    def loop(self, s: HostLoopStmt, scope: _Scope) -> None:
        k, name = self.stmt(s)
        cg = self.cg
        params = [p for p, _ in s.merge]
        inits = [self.value(scope, a) for _, a in s.merge]
        slots = [cg.fresh("_s") for _ in params]
        for slot, v in zip(slots, inits):
            self.line(f"{slot} = {v.var}")
        copied = _dims(*(
            Count.of(1.0, *p.type.shape) for p in params
            if p.name in s.double_buffered and isinstance(p.type, Array)
        ))
        copies = cg.fresh("_c")
        self.line(
            f"{copies} = B.loop_copies({name}, {self.sizes(scope, copied)})"
        )
        body = scope.child()
        if isinstance(s.form, A.ForLoop):
            bound = self.value(scope, s.form.bound)
            ivar = self.local(s.form.ivar)
            self._ints.add(ivar)
            body.bind(s.form.ivar, JVal("S", I32, 0, ivar))
            self.line(f"for {ivar} in range(int({bound.var})):")
        else:
            cond = next(
                (j for j, p in enumerate(params) if p.name == s.form.cond),
                None,
            )
            if cond is None:
                raise CompilerBug(
                    "host", "transpile",
                    f"while condition {s.form.cond} is not a merge parameter",
                )
            self.line(f"while {slots[cond]}:")
        with cg.indented():
            self.bind_all(
                body, params, slots, [None] * len(slots),
                f"S[{k}].merge[{{j}}][0]",
            )
            self.stmts(s.body, body)
            results = [self.value(body, a) for a in s.body_result]
            if slots:
                self.line(
                    f"{', '.join(slots)} = "
                    f"{', '.join(r.var for r in results)}"
                )
            self.line(f"B.loop_copy({copies})")
        # A slot holds its initial value or the body's last result.
        srcs = [
            v if (v.kind, v.rank) == (r.kind, r.rank) else None
            for v, r in zip(inits, results)
        ]
        self.bind_all(scope, s.pat, slots, srcs, f"S[{k}].pat[{{j}}]")

    def branch(self, s: HostIfStmt, scope: _Scope) -> None:
        k, _ = self.stmt(s)
        cg = self.cg
        outs = [cg.fresh("_o") for _ in s.pat]
        self.line(f"if {self.value(scope, s.cond).var}:")
        arms = []
        for body, result in (
            (s.then_body, s.then_result), (s.else_body, s.else_result),
        ):
            if arms:
                self.line("else:")
            with cg.indented():
                inner = scope.child()
                before = len(cg.em.lines)
                self.stmts(body, inner)
                vals = [self.value(inner, a) for a in result]
                for o, v in zip(outs, vals):
                    self.line(f"{o} = {v.var}")
                if len(cg.em.lines) == before:
                    self.line("pass")
            arms.append(vals)
        srcs = [
            t if (t.kind, t.rank) == (f.kind, f.rank) else None
            for t, f in zip(*arms)
        ]
        self.bind_all(scope, s.pat, outs, srcs, f"S[{k}].pat[{{j}}]")

    # -- the function -------------------------------------------------------

    def prologue(self, scope: _Scope) -> None:
        """Check each argument's type (``check_argument`` raises the
        ``ArgumentError``), copy and bind them, and open the books at
        the sizes they give (``costmodel.size_env_from_args``)."""
        cg = self.cg
        params = self.hp.params
        args = [f"a{j}" for j in range(len(params))]
        if args:
            self.line(f"{_targets(args)}args")
        for j, (p, a) in enumerate(zip(params, args)):
            t = p.type
            if isinstance(t, Array):
                test = (
                    f"{a}.__class__ is not ArrayValue"
                    f" or {a}.elem is not {cg._t(t.elem)}"
                    f" or {a}.data.dtype is not {cg._dt(t.elem)}"
                )
            else:
                test = (
                    f"{a}.__class__ is not ScalarValue"
                    f" or {a}.type is not {cg._t(t.t)}"
                )
            self.line(f"if {test}:")
            with cg.indented():
                self.line(f"check_argument(HP, {j}, {a})")
        sizes: Dict[str, str] = {}
        for j, (p, a) in enumerate(zip(params, args)):
            var = self.local(p.name)
            t = p.type
            if isinstance(t, Array):
                self.line(f"{var} = {a}.data.copy()")
                # An ndarray, of a rank still to check.
                sh = self.bind(
                    scope, p, var, JVal("A", t.elem, -1, var),
                    f"HP.params[{j}]",
                )
                for k, d in enumerate(t.shape):
                    if isinstance(d, str):
                        sizes.setdefault(d, f"{sh}[{k}]")
            else:
                self.line(f"{var} = {a}.value")
                self.bind(scope, p, var, None, f"HP.params[{j}]")
                if t.t.is_integral:
                    sizes.setdefault(p.name, f"int({var})")
        self.line(
            "B.begin(HP, {"
            + ", ".join(f"{n!r}: {e}" for n, e in sizes.items())
            + "})"
        )

    def generate(self) -> str:
        cg = self.cg
        scope = _Scope()
        self.prologue(scope)
        self.stmts(self.hp.stmts, scope)
        ret = "".join(
            f"{self.wrap(self.value(scope, a))}, " for a in self.hp.result
        )
        self.line(f"return ({ret.rstrip()}), B.finish()")

        lines = [
            f"# Transpiled from host program {self.hp.name!r} — "
            "generated code, do not edit.",
            f'SCHEMA = "{PYCODE_SCHEMA}"',
            f"ENTRY = {self.hp.name!r}",
            f"SITES = {tuple(self.sites)!r}",
            "",
            "from numpy import ndarray",
            "",
            "from repro.core.prim import (",
            "    BINOPS, CMPOPS, UNOPS, ConvOp, prim_from_name,",
            "    eval_binop, eval_cmpop, eval_convop, eval_unop,",
            ")",
            "from repro.core.values import ArrayValue, ScalarValue",
            "from repro.gpu.simulator import (",
            "    check_argument, raw_values, reject, unbound,",
            ")",
            "",
        ]
        for name, expr in cg._hoisted.items():
            lines.append(f"{name} = {expr}")
            if name in cg._read_only:
                lines.append(f"{name}.setflags(write=False)")
        lines += ["", "", "def build(HP, S):"]
        lines += [f"    {n} = {e}" for n, e in self._prelude.items()]
        lines += ["", "    def main(B, L, I, args):"]
        launchers = [f"L{j}" for j in range(len(self.sites))]
        if launchers:
            lines.append(f"        {_targets(launchers)}L")
        lines += cg.em.render(base=2)
        lines += ["", "    return main", ""]
        return "\n".join(lines)


_EMIT = {
    LaunchStmt: HostCodegen.launch,
    HostEval: HostCodegen.host_eval,
    ManifestStmt: HostCodegen.manifest,
    AllocStmt: HostCodegen.alloc,
    FreeStmt: HostCodegen.free,
    HostLoopStmt: HostCodegen.loop,
    HostIfStmt: HostCodegen.branch,
}


def transpile_host(hp) -> str:
    """The generated module of ``hp``'s entry point.  Every host
    program transpiles: what the generated code cannot run itself runs
    on the interpreter."""
    return HostCodegen(hp).generate()
