"""The identity convention of the traversal helpers: a rewrite that
changes nothing returns the *same object*, so passes can report
"changed" as ``out is not in`` and memoise analyses on node identity."""

import typing

import pytest

from repro.bench.suite import BENCHMARKS
from repro.core import ast as A
from repro.core.prim import BOOL, F32, I32
from repro.core.traversal import (
    FreeVars,
    exp_bodies,
    exp_lambdas,
    free_vars_body,
    free_vars_exp,
    free_vars_lambda,
    map_exp_bodies,
    map_exp_lambdas,
    map_exp_scopes,
)
from repro.core.types import Array, Prim

X, Y, N = A.Var("x"), A.Var("y"), A.Var("n")
XS, YS = A.Var("xs"), A.Var("ys")
ONE = A.Const(1, I32)
I32_T = Prim(I32)


def _body(*result):
    return A.Body((), tuple(result))


def _lam(*names):
    params = tuple(A.Param(n, I32_T) for n in names)
    return A.Lambda(params, _body(A.Var(names[0])), (I32_T,))


#: One instance of every expression class of the core IR.
EXPS = [
    A.AtomExp(X),
    A.BinOpExp("add", X, ONE, I32),
    A.CmpOpExp("lt", X, ONE, I32),
    A.UnOpExp("neg", X, I32),
    A.ConvOpExp(F32, X, I32),
    A.IfExp(X, _body(ONE), _body(Y), (I32_T,)),
    A.IndexExp(XS, (X,)),
    A.UpdateExp(XS, (X,), ONE),
    A.IotaExp(N),
    A.ReplicateExp(N, ONE),
    A.RearrangeExp((1, 0), XS),
    A.ReshapeExp((N,), XS),
    A.CopyExp(XS),
    A.ConcatExp((XS, YS)),
    A.ApplyExp("f", (X,)),
    A.LoopExp(((A.Param("acc", I32_T), ONE),), A.ForLoop("i", N),
              _body(A.Var("acc"))),
    A.LoopExp(((A.Param("go", Prim(BOOL)), X),), A.WhileLoop("go"),
              _body(A.Var("go"))),
    A.MapExp(N, _lam("a"), (XS,)),
    A.ReduceExp(N, _lam("a", "b"), (ONE,), (XS,)),
    A.ScanExp(N, _lam("a", "b"), (ONE,), (XS,)),
    A.StreamMapExp(N, _lam("c", "a"), (XS,)),
    A.StreamRedExp(N, _lam("a", "b"), _lam("c", "acc", "a"), (ONE,), (XS,)),
    A.StreamSeqExp(N, _lam("c", "acc", "a"), (ONE,), (XS,)),
    A.FilterExp(N, _lam("a"), XS, "m"),
    A.ScatterExp(N, XS, YS, XS),
]

_ids = [type(e).__name__ for e in EXPS]


def test_every_expression_class_is_covered():
    assert {type(e) for e in EXPS} == set(typing.get_args(A.Exp))


@pytest.mark.parametrize("e", EXPS, ids=_ids)
def test_identity_rewrite_returns_the_same_object(e):
    assert map_exp_lambdas(e, lambda lam: lam) is e
    assert map_exp_bodies(e, lambda b: b) is e
    assert map_exp_scopes(e, lambda b: b) is e


@pytest.mark.parametrize("e", EXPS, ids=_ids)
def test_a_changed_part_gives_a_new_object(e):
    new_lam, new_body = _lam("fresh"), _body(A.Var("fresh"))
    lams, bodies = list(exp_lambdas(e)), list(exp_bodies(e))

    out = map_exp_lambdas(e, lambda lam: new_lam)
    assert (out is e) == (not lams)
    assert list(exp_lambdas(out)) == [new_lam] * len(lams)

    out = map_exp_bodies(e, lambda b: new_body)
    assert (out is e) == (not bodies)
    assert list(exp_bodies(out)) == [new_body] * len(bodies)

    # Scopes are the sub-bodies and the lambda bodies together; a
    # rewritten lambda keeps its parameters and return types.
    out = map_exp_scopes(e, lambda b: new_body)
    assert (out is e) == (not lams and not bodies)
    assert list(exp_bodies(out)) == [new_body] * len(bodies)
    assert [
        (lam.params, lam.body, lam.ret_types) for lam in exp_lambdas(out)
    ] == [(lam.params, new_body, lam.ret_types) for lam in lams]


def test_changing_one_of_two_parts_keeps_the_other():
    red = next(e for e in EXPS if isinstance(e, A.StreamRedExp))
    new_lam = _lam("fresh")
    out = map_exp_lambdas(
        red, lambda lam: new_lam if lam is red.fold_lam else lam
    )
    assert out is not red
    assert out.red_lam is red.red_lam and out.fold_lam is new_lam

    branch = next(e for e in EXPS if isinstance(e, A.IfExp))
    new_body = _body(A.Var("fresh"))
    out = map_exp_bodies(
        branch, lambda b: new_body if b is branch.f_body else b
    )
    assert out.t_body is branch.t_body and out.f_body is new_body


class TestFreeVarsMemo:
    @pytest.mark.parametrize("e", EXPS, ids=_ids)
    def test_agrees_with_the_one_off_functions(self, e):
        memo = FreeVars()
        assert memo.exp(e) == free_vars_exp(e)
        for lam in exp_lambdas(e):
            assert memo.lam(lam) == free_vars_lambda(lam)
        for body in exp_bodies(e):
            assert memo.body(body) == free_vars_body(body)

    @pytest.mark.parametrize("name", BENCHMARKS.names())
    def test_agrees_on_whole_programs(self, name):
        memo = FreeVars()
        for fun in BENCHMARKS[name].program().funs:
            assert memo.body(fun.body) == free_vars_body(fun.body)
            for bnd in fun.body.bindings:
                assert memo.exp(bnd.exp) == free_vars_exp(bnd.exp)

    def test_answers_by_identity_and_keeps_the_node_alive(self):
        memo = FreeVars()
        e = A.MapExp(N, _lam("a"), (XS,))
        first = memo.exp(e)
        assert first == {"n", "xs"}
        assert memo.exp(e) is first
        # An equal but distinct node is a different key.
        twin = A.MapExp(N, _lam("a"), (XS,))
        assert twin == e and memo.exp(twin) is not first
        # The memo holds its nodes, so an id cannot be recycled under it.
        assert any(node is e for node, _ in memo._memo.values())

    def test_one_off_results_are_private_sets(self):
        e = A.BinOpExp("add", X, Y, I32)
        got = free_vars_exp(e)
        got.add("scribble")
        assert free_vars_exp(e) == {"x", "y"}

    def test_sizes_in_types_are_free(self):
        lam = A.Lambda(
            (A.Param("row", Array(I32, ("m",))),), _body(A.Var("row")),
            (Array(I32, ("m",)),),
        )
        assert FreeVars().lam(lam) == {"m"}
