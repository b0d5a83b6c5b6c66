"""Structural: one wall clock, one table of pinned artefacts, one
harness.

``benchmarks/e2e`` is the only code that reads a clock to judge the
system.  ``repro bench`` regenerates deterministic artefacts — the
committed ``BENCH_*.json`` and ``benchmarks/results/*.txt`` files are
exactly the ones :data:`repro.bench.pinned.PINNED` writes (plus the
three worked-example figures ``test_paper_figures.py`` pins) — and CI
asserts nothing from inline scripts: it runs test files and CLI
commands that exist, and the documentation names only such commands.
If a wall-clock suite, an unpinned artefact, a heredoc gate or the
pytest-benchmark harness comes back, this fails.
"""

import argparse
import ast
import re
from pathlib import Path

import pytest

import repro
from repro.__main__ import build_parser
from repro.bench.pinned import PINNED

ROOT = Path(__file__).resolve().parents[2]
E2E = ROOT / "benchmarks" / "e2e"
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
    pinned = {
        entry.out.format(**flags)
        for entry in PINNED.values()
        for flags in entry.variants
    }
    figures = {
        f"benchmarks/results/{name}"
        for name in re.findall(
            r"fig\w+\.txt",
            (Path(__file__).parent / "test_paper_figures.py").read_text(),
        )
    }
    assert len(figures) == 4
    committed = {
        p.relative_to(ROOT).as_posix()
        for p in [
            *ROOT.glob("BENCH_*.json"), *ROOT.glob("benchmarks/results/*")
        ]
    }
    assert committed == pinned | figures
    bench = _subcommands()["bench"]
    assert set(_first_positional_choices(bench)) - {"validate"} == set(PINNED)
    kinds = next(
        a.choices for a in bench._actions if "--kind" in a.option_strings
    )
    assert [{"kind": k} for k in kinds] == list(PINNED["impact"].variants)


def _hits(paths, is_hit):
    return [
        f"{path}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if is_hit(node)
    ]


def _reads_clock(node):
    if isinstance(node, ast.Attribute):
        return (
            node.attr in CLOCKS
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
        )
    return (
        isinstance(node, ast.ImportFrom)
        and node.module == "time"
        and any(alias.name in CLOCKS for alias in node.names)
    )


def test_nothing_under_repro_bench_reads_a_clock():
    # Nor the harness around it: ``benchmarks/*.py`` and ``tests/bench``.
    reads = _hits(
        [
            *sorted((Path(repro.__file__).parent / "bench").rglob("*.py")),
            *sorted((ROOT / "benchmarks").glob("*.py")),
            *sorted((ROOT / "tests" / "bench").glob("*.py")),
        ],
        _reads_clock,
    )
    assert not reads, reads


def _uses_pytest_benchmark(node):
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return "pytest_benchmark" in ast.unparse(node)
    if isinstance(node, ast.Attribute):
        return ast.unparse(node) in (
            "pytest.mark.benchmark", "benchmark.pedantic"
        )
    return isinstance(node, ast.arg) and node.arg == "benchmark"


def test_the_pytest_benchmark_harness_is_gone():
    """One harness: outside ``benchmarks/e2e`` nothing imports
    pytest-benchmark, marks a benchmark or takes the ``benchmark``
    fixture, and nothing installs the plugin."""
    uses = _hits(
        sorted(
            path
            for top in ("src", "tests", "benchmarks", "examples")
            for path in (ROOT / top).rglob("*.py")
            if E2E not in path.parents
        ),
        _uses_pytest_benchmark,
    )
    assert not uses, uses
    for config in (CI, (ROOT / "pyproject.toml").read_text()):
        assert "pytest-benchmark" not in config


def _alternatives(token):
    """The values a documented token stands for: each side of an
    ``a|b|c`` or ``{a,b,c}``; none for a ``<placeholder>`` or ``…``."""
    if token == "…" or re.fullmatch(r"<\w+>", token):
        return []
    return re.split(r"[|,]", token.strip("{}"))


def _invocations(text):
    """``(found, refused)``: every ``python -m repro <command>
    [<what>]`` in ``text``, and those the parser would refuse."""
    commands = _subcommands()
    found = re.findall(
        r"python -m repro\s+([^\s`]+)(?:\s+([^\s`]+))?", text
    )
    refused = []
    for token, what in found:
        for command in _alternatives(token):
            if command not in commands:
                refused.append(command)
                continue
            choices = _first_positional_choices(commands[command])
            if choices is not None:
                refused += [
                    f"{command} {w}"
                    for w in _alternatives(what) if w not in choices
                ]
    return found, refused


def test_ci_runs_only_tests_and_commands_that_exist():
    # Regexes over the text: CI does not install PyYAML.
    assert "<<" not in CI, "a heredoc: move the assertion into a test file"
    paths = re.findall(r"\b(?:tests|benchmarks)/[\w./-]+", CI)
    assert paths
    missing = [p for p in paths if not (ROOT / p).exists()]
    assert not missing, missing
    found, refused = _invocations(CI)
    assert found and not refused, refused


def _reads_chaos_seeds(node):
    return isinstance(node, ast.Constant) and node.value == "CHAOS_SEEDS"


def test_the_chaos_job_runs_every_suite_that_reads_chaos_seeds():
    """A seeded suite that CI's ``chaos`` job does not list only ever
    runs on tier-1's default seeds."""
    seeded = {
        path.relative_to(ROOT).as_posix()
        for path in (ROOT / "tests").rglob("*.py")
        if path != Path(__file__) and _hits([path], _reads_chaos_seeds)
    }
    job = re.search(r"^  chaos:\n(.*?)^  \w", CI, re.M | re.S)
    listed = set(re.findall(r"\btests/[\w./-]+\.py", job.group(1)))
    assert seeded and seeded == listed, (seeded, listed)


@pytest.mark.parametrize(
    "doc",
    ["README.md", "DESIGN.md", "EXPERIMENTS.md",
     ".claude/skills/verify/SKILL.md"],
)
def test_documentation_names_only_commands_that_exist(doc):
    found, refused = _invocations((ROOT / doc).read_text())
    assert found and not refused, refused
