"""Structural: there is one attempt loop.

``repro.runtime.run_resilient`` is the only code that asks a circuit
breaker for admission and records its outcome, and the only code with
an interpreter floor.  The device pool hands it a shard, which hands
over the device of each stint, and the server reads the
:class:`~repro.runtime.RunReport`; if either grows its own protocol or
loop again (the cancelled-task probe leak, and a re-placed request's
report that forgot its failed attempts, came from exactly that split),
this fails.
"""

import ast
import inspect
from pathlib import Path

import repro
from repro.serve import Server

SRC = Path(repro.__file__).parent
PROTOCOL = {"allow", "record_success", "record_failure", "record_neutral"}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def test_only_the_runtime_drives_a_breaker():
    callers = {
        (name, node.func.attr)
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in PROTOCOL
    }
    assert callers == {("runtime.py", method) for method in PROTOCOL}


def test_only_the_runtime_has_an_interpreter_floor():
    importers = {
        name
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and any(alias.name == "run_program" for alias in node.names)
    }
    assert "runtime.py" in importers
    assert not {"serve/server.py", "sched/pool.py"} & importers


def test_the_interpreter_floor_has_one_call_site_in_the_attempt_loop():
    sites = [
        (name, fn.name)
        for name, tree in _modules()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "interpreter_floor"
    ]
    assert sites == [("runtime.py", "run_resilient")]


def test_the_pool_has_no_attempt_loop_of_its_own():
    (tree,) = [tree for name, tree in _modules() if name == "sched/pool.py"]
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "interpreter_floor" not in imported
    defined = {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not {"_run_shard", "_run_task", "_Task", "_Checkpoint"} & defined


def test_the_ladder_is_gone():
    for name, tree in _modules():
        for node in ast.walk(tree):
            ident = getattr(node, "name", None) or getattr(node, "id", None)
            assert ident not in (
                "_execute_ladder", "_ladder_for", "DEGRADATION_LADDER"
            ), name
    assert "ladder" not in inspect.signature(Server.__init__).parameters
