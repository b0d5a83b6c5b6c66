"""Self-tests of the e2e harness.  Not part of tier-1; run with

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(E2E))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args):
    """``run.py`` as the driver runs it: from the root of the checkout,
    result on the last line of standard output."""
    proc = subprocess.run(
        [*SPEC["command"], *map(str, args)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="session")
def spec():
    return SPEC


@pytest.fixture(scope="session")
def smoke():
    """One ``--rounds 1`` run of a workload, untraced or traced, cached
    for the session (the oracle makes some of them cost 10 s)."""
    cache = {}

    def get(workload, trace, seed=0):
        key = (workload, trace, seed)
        if key not in cache:
            cache[key] = run_cli(
                "--workload", workload, "--seed", seed,
                "--rounds", 1, "--trace", trace,
            )
        return cache[key]

    return get
