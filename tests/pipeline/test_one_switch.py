"""Each optional pass has one switch.

A pass is switched off by naming it in ``disabled_passes`` — the
§6.1.1 ablations included — and by nothing else: no options field, CLI
flag or ``enabled=`` parameter of a pass function says it a second
way.  ``CompilerOptions`` holds only compile decisions; the executor
is a run-time choice (``ExecutionPolicy``, ``ServeRequest``).
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import repro
from repro.memory import coalesce_program, plan_memory, tile_program
from repro.pipeline import CompilerOptions

#: Fields that once duplicated ``disabled_passes`` (or, ``executor``,
#: were read only at run time).
GONE = {"fusion", "coalescing", "tiling", "memory_planning", "executor"}


def test_compiler_options_hold_only_compile_decisions():
    assert [f.name for f in dataclasses.fields(CompilerOptions)] == [
        "distribute", "interchange", "reduce_map_interchange",
        "sequentialise_streams", "check", "check_uniqueness", "in_place",
        "strict", "disabled_passes",
    ]


def test_the_harness_property_reads_disabled_passes():
    assert CompilerOptions().coalescing is True
    off = CompilerOptions(disabled_passes=("coalescing",))
    assert off.coalescing is False
    assert CompilerOptions(disabled_passes=("tiling",)).coalescing is True


def test_no_memory_pass_takes_an_enabled_switch():
    for fn in (coalesce_program, tile_program, plan_memory):
        assert "enabled" not in inspect.signature(fn).parameters, fn


def _reads_off_options(root):
    """Every ``<x>.<name>`` in ``src/repro`` with ``<name>`` in
    :data:`GONE` and ``<x>`` an options value: a name or attribute
    spelt ``o`` (the ``Pass.enabled`` lambdas) or containing ``opt``
    (``options``, ``self.options``, ``opts``)."""
    reads = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Attribute) and node.attr in GONE):
                continue
            owner = node.value
            spelt = (
                owner.id if isinstance(owner, ast.Name)
                else owner.attr if isinstance(owner, ast.Attribute)
                else ""
            )
            if spelt == "o" or "opt" in spelt.lower():
                reads.add(f"{path.relative_to(root)}:{node.lineno}")
    return reads


def test_no_module_reads_a_gone_field_off_compiler_options():
    assert _reads_off_options(Path(repro.__file__).parent) == set()


def test_only_the_harness_property_names_coalescing():
    """``coalescing`` is a pass name; as an attribute it exists only as
    the property ``benchmarks/e2e/probes.py`` reads, and no module
    reads it."""
    root = Path(repro.__file__).parent
    named, read = set(), set()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "coalescing":
                named.add(f"{rel}:{node.name}")
            elif isinstance(node, ast.Attribute) and node.attr == "coalescing":
                read.add(f"{rel}:{node.lineno}")
    assert named == {"pipeline/options.py:coalescing"}
    assert read == set()


def test_the_scan_sees_a_read(tmp_path):
    """The scan is not vacuous: it reports a read planted in a file."""
    (tmp_path / "m.py").write_text(
        "def f(options, o, self, policy):\n"
        "    return options.fusion, o.tiling, self.options.executor\n"
        "def g(policy):\n"
        "    return policy.executor\n"
    )
    assert _reads_off_options(tmp_path) == {"m.py:2"}
