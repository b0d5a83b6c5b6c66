"""Types of the Futhark core language.

Array types carry exact (possibly symbolic) shape information, as in the
paper (Section 2.2): ``[n][m]f32`` denotes an n-by-m array of 32-bit
floats, where ``n`` and ``m`` may be integer constants or size variables
bound by the enclosing function's parameters.

Uniqueness (the ``*`` attribute of Section 3) is not part of value types;
it is an attribute of function parameter and return types, modelled by
:class:`TypeDecl`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple, Union

from .prim import PrimType

__all__ = [
    "Dim",
    "Type",
    "Prim",
    "Array",
    "TypeDecl",
    "array",
    "rank",
    "elem_type",
    "row_type",
    "array_of",
    "dims_of",
    "substitute_dims",
    "dim_equal",
    "types_compatible",
    "TypeError_",
]

# A dimension is either a known integer or the name of a size variable.
Dim = Union[int, str]


class TypeError_(Exception):
    """A core-language type error (named to avoid shadowing the builtin)."""


@dataclass(frozen=True)
class Prim:
    """A scalar type."""

    t: PrimType

    def __str__(self) -> str:
        return str(self.t)


@dataclass(frozen=True)
class Array:
    """A regular multi-dimensional array of primitive elements."""

    elem: PrimType
    shape: Tuple[Dim, ...]

    def __post_init__(self) -> None:
        if not self.shape:
            raise ValueError("Array type must have at least one dimension")

    def __str__(self) -> str:
        dims = "".join(f"[{d}]" for d in self.shape)
        return f"{dims}{self.elem}"


Type = Union[Prim, Array]


@dataclass(frozen=True)
class TypeDecl:
    """A declared type with an optional uniqueness attribute.

    Used for function parameters and return types; ``*[n]i32`` is written
    ``TypeDecl(array(I32, 'n'), unique=True)``.
    """

    type: Type
    unique: bool = False

    def __str__(self) -> str:
        star = "*" if self.unique else ""
        return f"{star}{self.type}"


def array(elem: PrimType, *shape: Dim) -> Array:
    """Convenience constructor: ``array(F32, 'n', 'm')`` is ``[n][m]f32``."""
    return Array(elem, tuple(shape))


def rank(t: Type) -> int:
    """The number of array dimensions of a type (0 for scalars)."""
    return len(t.shape) if isinstance(t, Array) else 0


def elem_type(t: Type) -> PrimType:
    """The underlying primitive type."""
    return t.elem if isinstance(t, Array) else t.t


def row_type(t: Array, n: int = 1) -> Type:
    """The type of an element obtained by indexing with ``n`` indices."""
    if not isinstance(t, Array) or n > len(t.shape):
        raise TypeError_(f"cannot take rank-{n} row of {t}")
    remaining = t.shape[n:]
    if remaining:
        return Array(t.elem, remaining)
    return Prim(t.elem)


def array_of(t: Type, outer: Dim) -> Array:
    """Wrap a type in one more (outermost) array dimension."""
    if isinstance(t, Array):
        return Array(t.elem, (outer,) + t.shape)
    return Array(t.t, (outer,))


def dims_of(t: Type) -> Tuple[Dim, ...]:
    return t.shape if isinstance(t, Array) else ()


def substitute_dims(t: Type, env: Mapping[str, Dim]) -> Type:
    """Replace symbolic dimensions in ``t`` according to ``env``."""
    if isinstance(t, Prim):
        return t
    new_shape = tuple(
        env.get(d, d) if isinstance(d, str) else d for d in t.shape
    )
    return Array(t.elem, new_shape)


def dim_equal(a: Dim, b: Dim) -> bool:
    """Whether two dims are statically known to be equal.

    Unknown-vs-constant comparisons are optimistically accepted; the
    interpreter re-checks shapes dynamically (the paper's hybrid
    approach to shape checking).
    """
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    return True


def types_compatible(a: Type, b: Type) -> bool:
    """Structural compatibility modulo unknown sizes."""
    if isinstance(a, Prim) and isinstance(b, Prim):
        return a.t == b.t
    if isinstance(a, Array) and isinstance(b, Array):
        if a.elem != b.elem or len(a.shape) != len(b.shape):
            return False
        return all(dim_equal(x, y) for x, y in zip(a.shape, b.shape))
    return False
