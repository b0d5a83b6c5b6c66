"""Abstract syntax of the Futhark core language (paper Fig. 1).

The IR is in A-normal form, structured as the real Futhark compiler's IR:
a *body* is a sequence of bindings followed by a result, a *binding*
binds a pattern (one or more typed names) to an expression, and all
expression operands are *atoms* (variables or constants).  SOACs take a
lambda and one or more input arrays and may produce several values.

All nodes are immutable; transformations construct new trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple, Union

from .prim import PrimType
from .types import Array, Dim, Prim, Type, TypeDecl

__all__ = [
    "Var",
    "Const",
    "Atom",
    "Param",
    "Binding",
    "Body",
    "Lambda",
    "FunDef",
    "Prog",
    "Exp",
    "AtomExp",
    "BinOpExp",
    "CmpOpExp",
    "UnOpExp",
    "ConvOpExp",
    "IfExp",
    "IndexExp",
    "UpdateExp",
    "IotaExp",
    "ReplicateExp",
    "RearrangeExp",
    "ReshapeExp",
    "CopyExp",
    "ConcatExp",
    "ApplyExp",
    "ForLoop",
    "WhileLoop",
    "LoopForm",
    "LoopExp",
    "MapExp",
    "ReduceExp",
    "ScanExp",
    "StreamMapExp",
    "StreamRedExp",
    "StreamSeqExp",
    "FilterExp",
    "ScatterExp",
    "SOAC_TYPES",
    "is_soac",
]


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """A reference to a bound name."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A primitive constant with its type."""

    value: Union[bool, int, float]
    type: PrimType

    def __str__(self) -> str:
        if self.type.is_bool:
            return "true" if self.value else "false"
        if self.type.is_float:
            return f"{self.value!r}{self.type}"
        if self.type.name == "i32":
            return f"{self.value}"
        return f"{self.value}{self.type}"


Atom = Union[Var, Const]


# ---------------------------------------------------------------------------
# Binding structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """A typed name: a function/lambda parameter or a pattern element.

    ``unique`` carries the ``*`` ownership attribute of Section 3 and is
    only meaningful on function parameters and stream accumulators.
    """

    name: str
    type: Type
    unique: bool = False

    def __str__(self) -> str:
        star = "*" if self.unique else ""
        return f"{self.name}: {star}{self.type}"


@dataclass(frozen=True)
class Binding:
    """``let (p1, ..., pn) = exp``."""

    pat: Tuple[Param, ...]
    exp: "Exp"

    def names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.pat)


@dataclass(frozen=True)
class Body:
    """A sequence of bindings ending in a (multi-valued) result."""

    bindings: Tuple[Binding, ...]
    result: Tuple[Atom, ...]


@dataclass(frozen=True)
class Lambda:
    """An anonymous function; used as the functional argument of SOACs."""

    params: Tuple[Param, ...]
    body: Body
    ret_types: Tuple[Type, ...]


@dataclass(frozen=True)
class FunDef:
    """A named top-level function with uniqueness-annotated signature."""

    name: str
    params: Tuple[Param, ...]
    ret: Tuple[TypeDecl, ...]
    body: Body

    @property
    def ret_types(self) -> Tuple[Type, ...]:
        return tuple(d.type for d in self.ret)


@dataclass(frozen=True)
class Prog:
    """A whole program: a sequence of function definitions."""

    funs: Tuple[FunDef, ...]

    def fun(self, name: str) -> FunDef:
        for f in self.funs:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r}")

    def with_fun(self, new_fun: FunDef) -> "Prog":
        """A program with ``new_fun`` replacing the same-named function."""
        out = []
        replaced = False
        for f in self.funs:
            if f.name == new_fun.name:
                out.append(new_fun)
                replaced = True
            else:
                out.append(f)
        if not replaced:
            out.append(new_fun)
        return Prog(tuple(out))


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomExp:
    """An expression that is just an atom (used to bind constants/copies
    of scalar variables)."""

    atom: Atom


@dataclass(frozen=True)
class BinOpExp:
    """A homogeneous binary operation at primitive type ``t``."""

    op: str
    x: Atom
    y: Atom
    t: PrimType


@dataclass(frozen=True)
class CmpOpExp:
    """A comparison at operand type ``t``; the result type is bool."""

    op: str
    x: Atom
    y: Atom
    t: PrimType


@dataclass(frozen=True)
class UnOpExp:
    op: str
    x: Atom
    t: PrimType


@dataclass(frozen=True)
class ConvOpExp:
    """Conversion from primitive type ``from_t`` to ``to_t``."""

    to_t: PrimType
    x: Atom
    from_t: PrimType


@dataclass(frozen=True)
class IfExp:
    """``if cond then t_body else f_body``; both branches produce values
    of types ``ret_types``."""

    cond: Atom
    t_body: Body
    f_body: Body
    ret_types: Tuple[Type, ...]


@dataclass(frozen=True)
class IndexExp:
    """``arr[i1, ..., ik]``.  When ``k`` equals the rank of ``arr`` the
    result is a scalar; when ``k`` is smaller the result is a slice
    (which, per the ALIAS-SLICEARRAY rule, aliases ``arr``)."""

    arr: Var
    idxs: Tuple[Atom, ...]


@dataclass(frozen=True)
class UpdateExp:
    """``arr with [i1, ..., ik] <- value`` — the in-place update of
    Section 3.  Consumes ``arr``."""

    arr: Var
    idxs: Tuple[Atom, ...]
    value: Atom


@dataclass(frozen=True)
class IotaExp:
    """``iota n`` = [0, 1, ..., n-1] of type [n]i32."""

    n: Atom


@dataclass(frozen=True)
class ReplicateExp:
    """``replicate n v`` = [v, ..., v] of outer size n."""

    n: Atom
    value: Atom


@dataclass(frozen=True)
class RearrangeExp:
    """``rearrange (k0, ..., k(r-1)) arr`` — dimension permutation.
    ``transpose`` is sugar for ``rearrange (1, 0, 2, ...)``."""

    perm: Tuple[int, ...]
    arr: Var


@dataclass(frozen=True)
class ReshapeExp:
    """Reshape an array to the given dimensions (the curry/uncurry
    isomorphism of Section 2.1); the element count must be preserved."""

    shape: Tuple[Atom, ...]
    arr: Var


@dataclass(frozen=True)
class CopyExp:
    """A deep copy; the result aliases nothing."""

    arr: Var


@dataclass(frozen=True)
class ConcatExp:
    """Concatenation of arrays along the outermost dimension."""

    arrs: Tuple[Var, ...]


@dataclass(frozen=True)
class ApplyExp:
    """A call of a named top-level function."""

    fname: str
    args: Tuple[Atom, ...]


@dataclass(frozen=True)
class ForLoop:
    """``for i < bound`` — the loop variable ``ivar`` has type i32."""

    ivar: str
    bound: Atom


@dataclass(frozen=True)
class WhileLoop:
    """``while cond`` — ``cond`` names a boolean merge parameter."""

    cond: str


LoopForm = Union[ForLoop, WhileLoop]


@dataclass(frozen=True)
class LoopExp:
    """``loop (p1 = a1, ..., pn = an) for i < v do body`` (Fig. 1).

    Sequential semantics: the body is evaluated repeatedly with the merge
    parameters bound to the previous iteration's results (Fig. 2 gives
    the equivalent tail-recursive function).
    """

    merge: Tuple[Tuple[Param, Atom], ...]
    form: LoopForm
    body: Body

    @property
    def merge_init(self) -> Tuple[Atom, ...]:
        return tuple(a for _, a in self.merge)


# ---------------------------------------------------------------------------
# SOACs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MapExp:
    """``map lam arr1 ... arrn`` over arrays of outer size ``width``."""

    width: Atom
    lam: Lambda
    arrs: Tuple[Var, ...]


@dataclass(frozen=True)
class ReduceExp:
    """``reduce lam (n1, ..., nk) arr1 ... arrk``.

    ``lam`` must be associative (a programmer obligation, as in the
    paper); ``comm`` records whether it is also declared commutative.
    """

    width: Atom
    lam: Lambda
    neutral: Tuple[Atom, ...]
    arrs: Tuple[Var, ...]
    comm: bool = False


@dataclass(frozen=True)
class ScanExp:
    """Inclusive prefix scan with an associative operator."""

    width: Atom
    lam: Lambda
    neutral: Tuple[Atom, ...]
    arrs: Tuple[Var, ...]


@dataclass(frozen=True)
class StreamMapExp:
    """``stream_map f arrs`` (Fig. 8).

    ``lam``'s parameters are ``[chunk_size] ++ chunk_arrays`` and it
    returns chunk-sized arrays which are concatenated.  Well-definedness
    for every partition is a programmer obligation.
    """

    width: Atom
    lam: Lambda
    arrs: Tuple[Var, ...]


@dataclass(frozen=True)
class StreamRedExp:
    """``stream_red op f accs arrs`` (Fig. 8).

    ``fold_lam``'s parameters are ``[chunk_size] ++ acc_params ++
    chunk_arrays``; it returns new accumulator values followed by
    chunk-sized mapped arrays.  Per-chunk accumulators are combined with
    the associative ``red_lam``.
    """

    width: Atom
    red_lam: Lambda
    fold_lam: Lambda
    accs: Tuple[Atom, ...]
    arrs: Tuple[Var, ...]

    @property
    def num_accs(self) -> int:
        return len(self.accs)


@dataclass(frozen=True)
class StreamSeqExp:
    """``stream_seq f accs arrs`` (Fig. 8): chunks processed in sequence,
    threading the accumulator."""

    width: Atom
    lam: Lambda
    accs: Tuple[Atom, ...]
    arrs: Tuple[Var, ...]

    @property
    def num_accs(self) -> int:
        return len(self.accs)


@dataclass(frozen=True)
class FilterExp:
    """``filter p xs`` — keep the elements satisfying the predicate.

    Produces two values: the number of kept elements and the compacted
    array, whose (existential) size is named ``size_name`` — the same
    name the count is bound to, following the paper's size-slicing
    treatment of sizes that cannot be computed in advance.  An
    extension the paper mentions (§8 footnote on supported SOACs) but
    keeps out of scope; flattening treats it sequentially, and the
    backend prices it as the usual scan+scatter implementation.
    """

    width: Atom
    lam: Lambda
    arr: Var
    size_name: str


@dataclass(frozen=True)
class ScatterExp:
    """``scatter dest is vs`` — writes vs[i] to dest[is[i]]; consumes
    ``dest``.  Out-of-bounds indices are ignored.  (An extension the
    paper mentions but leaves out of scope.)"""

    width: Atom
    dest: Var
    idx_arr: Var
    val_arr: Var


Exp = Union[
    AtomExp,
    BinOpExp,
    CmpOpExp,
    UnOpExp,
    ConvOpExp,
    IfExp,
    IndexExp,
    UpdateExp,
    IotaExp,
    ReplicateExp,
    RearrangeExp,
    ReshapeExp,
    CopyExp,
    ConcatExp,
    ApplyExp,
    LoopExp,
    MapExp,
    ReduceExp,
    ScanExp,
    StreamMapExp,
    StreamRedExp,
    StreamSeqExp,
    FilterExp,
    ScatterExp,
]

SOAC_TYPES = (
    MapExp,
    ReduceExp,
    ScanExp,
    StreamMapExp,
    StreamRedExp,
    StreamSeqExp,
    FilterExp,
    ScatterExp,
)


def is_soac(e: Exp) -> bool:
    """Whether an expression is a second-order array combinator."""
    return isinstance(e, SOAC_TYPES)
