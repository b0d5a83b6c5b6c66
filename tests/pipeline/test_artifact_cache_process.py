"""Cross-process artifact-cache behaviour: a fresh interpreter must
warm-start from the host artifact a previous process stored, skipping
every pass."""

import json
import os
import subprocess
import sys

SRC = """
fun main (xs: [n]f32): [n]f32 =
  map (\\(y: f32) -> y + 1.0f32)
      (map (\\(x: f32) -> x * 2.0f32) xs)
"""

# The child compiles SRC against the artifact dir in
# $REPRO_ARTIFACT_DIR, runs it, and reports what happened as JSON.
CHILD = """
import json, sys
from repro.core import array_value, to_python
from repro.core.prim import F32
from repro.pipeline import compile_source

compiled = compile_source(sys.stdin.read())
(out,), _ = compiled.run([array_value([1.0, 2.0, 3.0], F32)])
print(json.dumps({
    "from_artifact": compiled.from_artifact,
    "pass_names": [t.name for t in compiled.pass_timings],
    "result": to_python(out),
}))
"""


def _compile_in_subprocess(artifact_dir) -> dict:
    env = dict(os.environ)
    env["REPRO_ARTIFACT_DIR"] = str(artifact_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [env.get("PYTHONPATH"), "src"])
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=SRC,
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_fresh_process_resumes_from_host_artifact(tmp_path):
    first = _compile_in_subprocess(tmp_path)
    assert first["from_artifact"] is None
    assert "lower" in first["pass_names"]
    assert first["result"] == [3.0, 5.0, 7.0]
    stored = sorted(p.name.split("-")[0] for p in tmp_path.glob("*.artifact"))
    # The compile's one artifact, and the jit's generated source.
    assert stored == ["host", "pycode"]

    second = _compile_in_subprocess(tmp_path)
    # The whole pass pipeline is skipped: the fresh process loads the
    # finished host program straight from disk.
    assert second["from_artifact"] == "host"
    assert second["pass_names"] == ["artifact:host"]
    assert second["result"] == [3.0, 5.0, 7.0]
