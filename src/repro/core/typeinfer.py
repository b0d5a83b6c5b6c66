"""Local type inference for core-IR expressions.

Given the types of variables in scope, every core-language expression
has uniquely determined result types; this module computes them.  It is
shared by the builder DSL (which uses it to avoid redundant type
annotations) and the type checker (which additionally validates operand
types); compiler passes use it to recompute pattern types after
rewriting.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from . import ast as A
from .prim import BINOPS, BOOL, CMPOPS, I32, UNOPS
from .types import (
    Array,
    Dim,
    Prim,
    Type,
    TypeError_,
    array_of,
    row_type,
)

__all__ = ["TypeEnv", "FunSigs", "exp_types", "atom_type", "atom_dim"]

TypeEnv = Mapping[str, Type]
#: Maps function name to (parameters, return types).  Parameter *names*
#: matter: result dims may refer to scalar i32 parameters by name.
FunSigs = Mapping[str, Tuple[Tuple[A.Param, ...], Tuple[Type, ...]]]


def atom_type(a: A.Atom, env: TypeEnv) -> Type:
    if isinstance(a, A.Const):
        return Prim(a.type)
    try:
        return env[a.name]
    except KeyError:
        raise TypeError_(f"variable not in scope: {a.name}") from None


def atom_dim(a: A.Atom) -> Dim:
    """View an i32 atom as a symbolic/constant array dimension."""
    if isinstance(a, A.Const):
        if not isinstance(a.value, int) or isinstance(a.value, bool):
            raise TypeError_(f"dimension must be integral, got {a}")
        return int(a.value)
    return a.name


def _array_arg(a: A.Var, env: TypeEnv, what: str) -> Array:
    t = atom_type(a, env)
    if not isinstance(t, Array):
        raise TypeError_(f"{what} {a.name} must be an array, has type {t}")
    return t


def exp_types(
    e: A.Exp, env: TypeEnv, sigs: Optional[FunSigs] = None
) -> Tuple[Type, ...]:
    """The result types of expression ``e`` in environment ``env``."""
    if isinstance(e, A.AtomExp):
        return (atom_type(e.atom, env),)

    if isinstance(e, A.BinOpExp):
        if e.op not in BINOPS:
            raise TypeError_(f"unknown binary operator {e.op!r}")
        return (Prim(e.t),)

    if isinstance(e, A.CmpOpExp):
        if e.op not in CMPOPS:
            raise TypeError_(f"unknown comparison operator {e.op!r}")
        return (Prim(BOOL),)

    if isinstance(e, A.UnOpExp):
        if e.op not in UNOPS:
            raise TypeError_(f"unknown unary operator {e.op!r}")
        return (Prim(e.t),)

    if isinstance(e, A.ConvOpExp):
        return (Prim(e.to_t),)

    if isinstance(e, A.IfExp):
        return tuple(e.ret_types)

    if isinstance(e, A.IndexExp):
        arr_t = _array_arg(e.arr, env, "indexed value")
        if len(e.idxs) > len(arr_t.shape):
            raise TypeError_(
                f"indexing {e.arr.name}: {len(e.idxs)} indices into "
                f"rank-{len(arr_t.shape)} array"
            )
        return (row_type(arr_t, len(e.idxs)),)

    if isinstance(e, A.UpdateExp):
        return (atom_type(e.arr, env),)

    if isinstance(e, A.IotaExp):
        return (Array(I32, (atom_dim(e.n),)),)

    if isinstance(e, A.ReplicateExp):
        v_t = atom_type(e.value, env)
        return (array_of(v_t, atom_dim(e.n)),)

    if isinstance(e, A.RearrangeExp):
        arr_t = _array_arg(e.arr, env, "rearranged value")
        if sorted(e.perm) != list(range(len(arr_t.shape))):
            raise TypeError_(
                f"rearrange: {e.perm} is not a permutation of the "
                f"dimensions of {arr_t}"
            )
        new_shape = tuple(arr_t.shape[k] for k in e.perm)
        return (Array(arr_t.elem, new_shape),)

    if isinstance(e, A.ReshapeExp):
        arr_t = _array_arg(e.arr, env, "reshaped value")
        return (Array(arr_t.elem, tuple(atom_dim(s) for s in e.shape)),)

    if isinstance(e, A.CopyExp):
        return (atom_type(e.arr, env),)

    if isinstance(e, A.ConcatExp):
        ts = [_array_arg(a, env, "concat operand") for a in e.arrs]
        outer: Dim
        if all(isinstance(t.shape[0], int) for t in ts):
            outer = sum(t.shape[0] for t in ts)  # type: ignore[misc]
        else:
            outer = "+".join(str(t.shape[0]) for t in ts)
        return (Array(ts[0].elem, (outer,) + ts[0].shape[1:]),)

    if isinstance(e, A.ApplyExp):
        if sigs is None or e.fname not in sigs:
            raise TypeError_(f"call of unknown function {e.fname!r}")
        params, ret_ts = sigs[e.fname]
        # Instantiate symbolic result dims from the actual arguments:
        # array parameter dims bind to the actual array's dims, and a
        # scalar i32 parameter's *name* binds to the actual argument.
        dim_env: Dict[str, Dim] = {}
        for p, arg in zip(params, e.args):
            pt = p.type
            if isinstance(pt, Array):
                at = atom_type(arg, env)
                if isinstance(at, Array):
                    for d_formal, d_actual in zip(pt.shape, at.shape):
                        if isinstance(d_formal, str):
                            dim_env.setdefault(d_formal, d_actual)
            elif isinstance(pt, Prim) and pt.t == I32:
                dim_env.setdefault(p.name, atom_dim(arg))
        out = []
        for t in ret_ts:
            if isinstance(t, Array):
                shape = tuple(
                    dim_env.get(d, d) if isinstance(d, str) else d
                    for d in t.shape
                )
                out.append(Array(t.elem, shape))
            else:
                out.append(t)
        return tuple(out)

    if isinstance(e, A.LoopExp):
        return tuple(p.type for p, _ in e.merge)

    if isinstance(e, A.MapExp):
        w = atom_dim(e.width)
        return tuple(array_of(t, w) for t in e.lam.ret_types)

    if isinstance(e, A.ReduceExp):
        return tuple(e.lam.ret_types)

    if isinstance(e, A.ScanExp):
        w = atom_dim(e.width)
        return tuple(array_of(t, w) for t in e.lam.ret_types)

    if isinstance(e, A.StreamMapExp):
        w = atom_dim(e.width)
        return tuple(
            _chunk_result_type(t, w) for t in e.lam.ret_types
        )

    if isinstance(e, A.StreamRedExp):
        n_acc = e.num_accs
        acc_ts = tuple(e.fold_lam.ret_types[:n_acc])
        w = atom_dim(e.width)
        arr_ts = tuple(
            _chunk_result_type(t, w) for t in e.fold_lam.ret_types[n_acc:]
        )
        return acc_ts + arr_ts

    if isinstance(e, A.StreamSeqExp):
        n_acc = e.num_accs
        acc_ts = tuple(e.lam.ret_types[:n_acc])
        w = atom_dim(e.width)
        arr_ts = tuple(
            _chunk_result_type(t, w) for t in e.lam.ret_types[n_acc:]
        )
        return acc_ts + arr_ts

    if isinstance(e, A.FilterExp):
        arr_t = _array_arg(e.arr, env, "filtered value")
        return (
            Prim(I32),
            Array(arr_t.elem, (e.size_name,) + arr_t.shape[1:]),
        )

    if isinstance(e, A.ScatterExp):
        return (atom_type(e.dest, env),)

    raise TypeError_(f"exp_types: unhandled expression {type(e).__name__}")


def _chunk_result_type(t: Type, width: Dim) -> Type:
    """The whole-stream type of a per-chunk result type.

    A chunk-sized result array (outer dim = the chunk size) concatenates
    to an array of the full stream width.
    """
    if isinstance(t, Array):
        return Array(t.elem, (width,) + t.shape[1:])
    raise TypeError_(
        f"stream chunk results must be arrays, got {t}"
    )
