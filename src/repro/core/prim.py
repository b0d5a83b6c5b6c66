"""Primitive types and primitive operators of the Futhark core language.

The paper (Fig. 1) works with a monomorphic core language whose scalar
values are booleans, integers and floats.  This module defines those
primitive types, their numpy representations, and the binary/unary/
conversion operators that appear in core-language expressions, together
with a small constant-evaluation facility used by the interpreter and the
simplification engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "PrimType",
    "BOOL",
    "I8",
    "I16",
    "I32",
    "I64",
    "F32",
    "F64",
    "INT_TYPES",
    "FLOAT_TYPES",
    "ALL_PRIM_TYPES",
    "prim_from_name",
    "BinOp",
    "UnOp",
    "CmpOp",
    "ConvOp",
    "BINOPS",
    "UNOPS",
    "CMPOPS",
    "binop_result_type",
    "eval_binop",
    "eval_unop",
    "eval_cmpop",
    "eval_convop",
    "PrimValue",
]

PrimValue = Union[bool, int, float]


@dataclass(frozen=True)
class PrimType:
    """A primitive scalar type such as ``i32`` or ``f64``."""

    name: str

    @property
    def is_integral(self) -> bool:
        return self.name.startswith("i")

    @property
    def is_float(self) -> bool:
        return self.name.startswith("f")

    @property
    def is_bool(self) -> bool:
        return self.name == "bool"

    @property
    def bitwidth(self) -> int:
        if self.is_bool:
            return 8
        return int(self.name[1:])

    @property
    def nbytes(self) -> int:
        return max(1, self.bitwidth // 8)

    def to_dtype(self) -> np.dtype:
        return np.dtype(_NUMPY_DTYPES[self.name])

    def zero(self) -> PrimValue:
        if self.is_bool:
            return False
        if self.is_integral:
            return 0
        return 0.0

    def coerce(self, value: PrimValue) -> PrimValue:
        """Coerce a Python value to this primitive type's value domain."""
        if self.is_bool:
            return bool(value)
        if self.is_integral:
            return _wrap_int(int(value), self.bitwidth)
        return float(np.dtype(_NUMPY_DTYPES[self.name]).type(value))

    def __str__(self) -> str:
        return self.name


_NUMPY_DTYPES = {
    "bool": np.bool_,
    "i8": np.int8,
    "i16": np.int16,
    "i32": np.int32,
    "i64": np.int64,
    "f32": np.float32,
    "f64": np.float64,
}

BOOL = PrimType("bool")
I8 = PrimType("i8")
I16 = PrimType("i16")
I32 = PrimType("i32")
I64 = PrimType("i64")
F32 = PrimType("f32")
F64 = PrimType("f64")

INT_TYPES = (I8, I16, I32, I64)
FLOAT_TYPES = (F32, F64)
ALL_PRIM_TYPES = (BOOL,) + INT_TYPES + FLOAT_TYPES

_BY_NAME = {t.name: t for t in ALL_PRIM_TYPES}


def prim_from_name(name: str) -> PrimType:
    """Look up a primitive type by its source-language name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown primitive type: {name!r}") from None


def _wrap_int(value: int, bits: int) -> int:
    """Two's-complement wraparound, matching fixed-width GPU integers."""
    mask = (1 << bits) - 1
    value &= mask
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


@dataclass(frozen=True)
class BinOp:
    """An arithmetic/logical binary operator, operating within one type."""

    name: str
    fn: Callable[[PrimValue, PrimValue], PrimValue]
    associative: bool = False
    commutative: bool = False

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class CmpOp:
    """A comparison operator; result type is always ``bool``."""

    name: str
    fn: Callable[[PrimValue, PrimValue], bool]

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class UnOp:
    """A unary operator, operating within one type."""

    name: str
    fn: Callable[[PrimValue], PrimValue]

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ConvOp:
    """A conversion operator between two primitive types."""

    name: str
    to_type: PrimType

    def __str__(self) -> str:
        return self.name


def _safe_div(x, y):
    if y == 0:
        raise ZeroDivisionError("division by zero in core-language program")
    return x / y


def _int_div(x, y):
    if y == 0:
        raise ZeroDivisionError("division by zero in core-language program")
    return x // y


def _int_mod(x, y):
    if y == 0:
        raise ZeroDivisionError("modulo by zero in core-language program")
    return x % y


def _pow(x, y):
    if isinstance(x, int) and isinstance(y, int) and y < 0:
        raise ValueError("negative integer exponent in core-language program")
    result = x ** y
    if isinstance(result, complex):
        raise ValueError(
            "fractional power of a negative base in core-language program"
        )
    return result


BINOPS = {
    op.name: op
    for op in (
        BinOp("add", lambda x, y: x + y, associative=True, commutative=True),
        BinOp("sub", lambda x, y: x - y),
        BinOp("mul", lambda x, y: x * y, associative=True, commutative=True),
        BinOp("div", _safe_div),
        BinOp("idiv", _int_div),
        BinOp("imod", _int_mod),
        BinOp("pow", _pow),
        BinOp("min", min, associative=True, commutative=True),
        BinOp("max", max, associative=True, commutative=True),
        BinOp("and", lambda x, y: x and y, associative=True, commutative=True),
        BinOp("or", lambda x, y: x or y, associative=True, commutative=True),
        BinOp("xor", lambda x, y: x ^ y, associative=True, commutative=True),
        BinOp("shl", lambda x, y: x << y),
        BinOp("shr", lambda x, y: x >> y),
    )
}

CMPOPS = {
    op.name: op
    for op in (
        CmpOp("eq", lambda x, y: x == y),
        CmpOp("neq", lambda x, y: x != y),
        CmpOp("lt", lambda x, y: x < y),
        CmpOp("le", lambda x, y: x <= y),
        CmpOp("gt", lambda x, y: x > y),
        CmpOp("ge", lambda x, y: x >= y),
    )
}

UNOPS = {
    op.name: op
    for op in (
        UnOp("neg", lambda x: -x),
        UnOp("not", lambda x: not x),
        UnOp("abs", abs),
        UnOp("sgn", lambda x: (x > 0) - (x < 0)),
        UnOp("exp", math.exp),
        UnOp("log", math.log),
        UnOp("sqrt", math.sqrt),
        UnOp("sin", math.sin),
        UnOp("cos", math.cos),
        UnOp("tan", math.tan),
        UnOp("atan", math.atan),
        UnOp("floor", math.floor),
        UnOp("ceil", math.ceil),
    )
}

# Unary operators whose results are floats regardless of widening rules.
_FLOAT_ONLY_UNOPS = frozenset(
    {"exp", "log", "sqrt", "sin", "cos", "tan", "atan"}
)


def binop_result_type(op: BinOp, operand_type: PrimType) -> PrimType:
    """The result type of applying ``op`` at ``operand_type``.

    Core-language binary operators are homogeneous: both operands and the
    result share a single primitive type.
    """
    if op.name == "div" and operand_type.is_integral:
        raise TypeError("use 'idiv' for integral division")
    return operand_type


def eval_binop(op: BinOp, t: PrimType, x: PrimValue, y: PrimValue) -> PrimValue:
    return t.coerce(op.fn(x, y))


def eval_cmpop(op: CmpOp, x: PrimValue, y: PrimValue) -> bool:
    return bool(op.fn(x, y))


def eval_unop(op: UnOp, t: PrimType, x: PrimValue) -> PrimValue:
    result = op.fn(x)
    if op.name in _FLOAT_ONLY_UNOPS and not t.is_float:
        raise TypeError(f"unary operator {op.name} requires a float type")
    if op.name in ("not",):
        return bool(result)
    if op.name in ("floor", "ceil", "sgn"):
        return t.coerce(result)
    return t.coerce(result)


def eval_convop(op: ConvOp, x: PrimValue) -> PrimValue:
    return op.to_type.coerce(x)
