"""Structural: one wall clock, three pinned artefacts.

``benchmarks/e2e`` is the only code that reads a clock to judge the
system.  ``repro bench`` regenerates deterministic artefacts — the
committed ``BENCH_*.json`` files are exactly the ones
:data:`repro.bench.pinned.PINNED` writes — and CI asserts nothing from
inline scripts: it runs test files and CLI commands that exist.  If a
wall-clock suite, an unpinned ``BENCH_*.json`` or a heredoc gate comes
back, this fails.
"""

import argparse
import ast
import re
from pathlib import Path

import repro
from repro.__main__ import build_parser
from repro.bench.pinned import PINNED

ROOT = Path(__file__).resolve().parents[2]
CI = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
CLOCKS = {
    "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
    "time", "time_ns", "process_time", "process_time_ns",
}


def _subcommands():
    (sub,) = (
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices


def _first_positional_choices(subparser):
    """The closed set a command's first positional takes (``bench
    <what>``, ``obs <action>``), None if it has none."""
    return next(
        (
            a.choices for a in subparser._actions
            if not a.option_strings and a.choices
        ),
        None,
    )


def test_committed_bench_files_and_bench_commands_are_the_pinned_ones():
    committed = {p.name for p in ROOT.glob("BENCH_*.json")}
    assert committed == {entry.out for entry in PINNED.values()}
    paper = {"table1", "table2", "figure13", "impact", "validate"}
    whats = set(_first_positional_choices(_subcommands()["bench"]))
    assert whats - paper == set(PINNED)


def test_nothing_under_repro_bench_reads_a_clock():
    reads = []
    for path in sorted((Path(repro.__file__).parent / "bench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                hit = (
                    node.attr in CLOCKS
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "time"
                )
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "time" and any(
                    alias.name in CLOCKS for alias in node.names
                )
            else:
                hit = False
            if hit:
                reads.append(f"{path.name}:{node.lineno}")
    assert not reads, reads


def test_ci_runs_only_tests_and_commands_that_exist():
    # Regexes over the text: CI does not install PyYAML.
    assert "<<" not in CI, "a heredoc: move the assertion into a test file"
    paths = re.findall(r"\b(?:tests|benchmarks)/[\w./-]+", CI)
    assert paths
    missing = [p for p in paths if not (ROOT / p).exists()]
    assert not missing, missing

    commands = _subcommands()
    invocations = re.findall(r"python -m repro ([\w-]+)(?:\s+([\w-]+))?", CI)
    assert invocations
    for command, what in invocations:
        assert command in commands, command
        choices = _first_positional_choices(commands[command])
        if choices is not None:
            assert what in choices, (command, what)
