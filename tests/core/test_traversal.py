"""Tests for free variables, substitution and alpha-renaming."""

from repro.core import ProgBuilder, array
from repro.core import ast as A
from repro.core.prim import F32, I32
from repro.core.types import Prim
from repro.core.traversal import (
    NameSource,
    alpha_rename_body,
    alpha_rename_lambda,
    bound_names_body,
    exp_atoms,
    free_vars_body,
    free_vars_exp,
    free_vars_lambda,
    map_exp_atoms,
    substitute_body,
    substitute_exp,
)

from tests.helpers import fig10_program, rowsums_program


class TestNameSource:
    def test_fresh_never_repeats(self):
        ns = NameSource()
        names = {ns.fresh("x") for _ in range(100)}
        assert len(names) == 100

    def test_declare_avoids_collision(self):
        ns = NameSource()
        ns.declare(["x_0", "x_1"])
        assert ns.fresh("x") not in {"x_0", "x_1"}

    def test_base_stripping(self):
        ns = NameSource()
        name = ns.fresh("acc_13")
        assert name.startswith("acc_")

    def test_generated_names_are_not_remembered(self):
        ns = NameSource()
        made = [ns.fresh("x") for _ in range(10)]
        assert ns._used == set()
        # Re-declaring them (as later passes do) records nothing either:
        # the counter has passed every one of them.
        ns.declare(made)
        assert ns._used == set()
        assert ns.fresh("x") not in made

    def test_only_names_the_counter_can_still_reach_are_remembered(self):
        ns = NameSource()
        for _ in range(5):
            ns.fresh()
        ns.declare(["x_3", "x_5", "x_40", "plain", "y_2_z"])
        assert ns._used == {"x_5", "x_40", "plain", "y_2_z"}
        drawn = {ns.fresh("x") for _ in range(50)}
        assert not drawn & {"x_3", "x_5", "x_40"}

    def test_reset_restarts_counter_and_forgets_declarations(self):
        ns = NameSource()
        ns.declare(["x_0"])
        assert ns.fresh("x") == "x_1"
        ns.reset()
        assert ns.fresh("x") == "x_0"
        ns.declare(["x_1"])  # reachable again after the reset
        assert ns.fresh("x") == "x_2"

    def test_repeated_compiles_do_not_grow_the_declared_set(self):
        from repro.bench.suite import BENCHMARKS
        from repro.core.traversal import name_source
        from repro.pipeline import compile_program

        prog = BENCHMARKS["LocVolCalib"].program()
        compile_program(prog, artifact_cache=None)
        after_first = set(name_source._used)
        for _ in range(50):
            compile_program(prog, artifact_cache=None)
        assert name_source._used == after_first


class TestExpAtoms:
    def test_binop_atoms(self):
        e = A.BinOpExp("add", A.Var("a"), A.Const(1, I32), I32)
        assert list(exp_atoms(e)) == [A.Var("a"), A.Const(1, I32)]

    def test_map_includes_width_and_arrays(self):
        prog = rowsums_program()
        exp = prog.fun("main").body.bindings[0].exp
        atoms = list(exp_atoms(exp))
        assert A.Var("n") in atoms
        assert A.Var("matrix") in atoms

    def test_map_exp_atoms_rewrites(self):
        e = A.BinOpExp("add", A.Var("a"), A.Var("b"), I32)
        e2 = map_exp_atoms(
            e, lambda x: A.Var("z") if x == A.Var("a") else x
        )
        assert e2.x == A.Var("z") and e2.y == A.Var("b")

    def test_update_atoms(self):
        e = A.UpdateExp(A.Var("xs"), (A.Var("i"),), A.Var("v"))
        assert set(a.name for a in exp_atoms(e)) == {"xs", "i", "v"}


class TestFreeVars:
    def test_simple_body(self):
        prog = rowsums_program()
        body = prog.fun("main").body
        free = free_vars_body(body)
        assert "matrix" in free
        assert "n" in free or "m" in free  # size vars occur in inner types

    def test_lambda_params_not_free(self):
        prog = rowsums_program()
        exp = prog.fun("main").body.bindings[0].exp
        lam = exp.lam
        free = free_vars_lambda(lam)
        assert all(p.name not in free for p in lam.params)

    def test_loop_merge_params_not_free(self):
        pb = ProgBuilder()
        with pb.function("main") as fb:
            n = fb.param("n", Prim(I32))
            with fb.loop(
                [("acc", Prim(I32), fb.i32(0))], for_lt=("i", n)
            ) as lp:
                (acc,) = lp.merge_vars
                lp.ret(lp.add(acc, lp.ivar))
            r = lp.end()
            fb.ret(r)
        prog = pb.build()
        loop_exp = prog.fun("main").body.bindings[-1].exp
        free = free_vars_exp(loop_exp)
        assert free == {"n"}

    def test_type_dims_are_free(self):
        # A lambda whose parameter type mentions a size variable makes
        # that variable free.
        lam = A.Lambda(
            (A.Param("x", array(F32, "k")),),
            A.Body((), (A.Var("x"),)),
            (array(F32, "k"),),
        )
        assert "k" in free_vars_lambda(lam)


class TestSubstitution:
    def test_substitute_atom(self):
        e = A.BinOpExp("add", A.Var("a"), A.Var("b"), I32)
        e2 = substitute_exp(e, {"a": A.Const(5, I32)})
        assert e2.x == A.Const(5, I32)

    def test_substitute_respects_shadowing(self):
        # let a = ... in a   — substituting outer 'a' must not touch the
        # occurrence bound by the inner binding.
        body = A.Body(
            (
                A.Binding(
                    (A.Param("a", Prim(I32)),),
                    A.BinOpExp("add", A.Var("a"), A.Const(1, I32), I32),
                ),
            ),
            (A.Var("a"),),
        )
        body2 = substitute_body(body, {"a": A.Const(9, I32)})
        # The RHS sees the outer 'a'; the result sees the inner binding.
        assert body2.bindings[0].exp.x == A.Const(9, I32)
        assert body2.result == (A.Var("a"),)

    def test_substitute_dims_in_types(self):
        lam = A.Lambda(
            (A.Param("x", array(F32, "k")),),
            A.Body((), (A.Var("x"),)),
            (array(F32, "k"),),
        )
        e = A.MapExp(A.Var("w"), lam, (A.Var("xs"),))
        e2 = substitute_exp(e, {"k": A.Const(4, I32)})
        assert e2.lam.params[0].type == array(F32, 4)
        assert e2.lam.ret_types[0] == array(F32, 4)


class TestAlphaRenaming:
    def test_rename_body_preserves_free_vars(self):
        prog = fig10_program()
        body = prog.fun("main").body
        ns = NameSource()
        ns.declare(bound_names_body(body) | free_vars_body(body))
        body2 = alpha_rename_body(body, ns)
        assert free_vars_body(body2) == free_vars_body(body)

    def test_rename_body_freshens_bound(self):
        prog = fig10_program()
        body = prog.fun("main").body
        ns = NameSource()
        ns.declare(bound_names_body(body) | free_vars_body(body))
        body2 = alpha_rename_body(body, ns)
        assert bound_names_body(body2).isdisjoint(bound_names_body(body))

    def test_rename_lambda(self):
        lam = A.Lambda(
            (A.Param("x", Prim(I32)),),
            A.Body(
                (
                    A.Binding(
                        (A.Param("y", Prim(I32)),),
                        A.BinOpExp("add", A.Var("x"), A.Var("g"), I32),
                    ),
                ),
                (A.Var("y"),),
            ),
            (Prim(I32),),
        )
        ns = NameSource()
        ns.declare({"x", "y", "g"})
        lam2 = alpha_rename_lambda(lam, ns)
        assert lam2.params[0].name != "x"
        assert free_vars_lambda(lam2) == {"g"}
