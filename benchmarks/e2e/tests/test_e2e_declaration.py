"""``BENCHMARK.json`` is well-formed and the harness prints what it
declares."""

import json
import re

import pytest

from conftest import E2E, SPEC

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_keys_and_limits(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads",
        "end_to_end", "per_layer",
    }
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert spec["paths"] == ["benchmarks/e2e"]


def test_names_units_and_bounds(spec):
    names = [
        x["name"]
        for group in ("workloads", "end_to_end", "per_layer")
        for x in spec[group]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # a PR that moves a bound or the run length edits this test too
    assert {m["name"]: m["bound"] for m in spec["end_to_end"]} == {
        "op_ms_geomean": 0.25, "ops_per_s": 0.25, "setup_s": 0.25,
        "peak_rss_mb": 0.10, "sim_us_geomean": 0.001,
        "sim_peak_mb_geomean": 0.001,
    }
    assert spec["run_seconds"] == 12


def test_every_workload_is_implemented(spec):
    import workloads

    assert list(workloads.WORKLOADS) == WORKLOADS


def test_every_layer_metric_names_what_it_should_move(spec):
    layers = json.loads((E2E / "layers.json").read_text())
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    e2e = {m["name"] for m in spec["end_to_end"]}
    for name, row in layers.items():
        assert set(row["moves"]) <= e2e, name
        assert set(row["on"]) | set(row["not_on"]) <= set(WORKLOADS), name


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_declared_metric(spec, smoke, workload, trace):
    stdout, result = smoke(workload, trace)
    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        # by name, with its unit, in the human-readable part too
        assert re.search(
            rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$",
            stdout, re.M,
        ), m["name"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_writes_a_loadable_chrome_trace(smoke):
    from repro.obs.export import validate_chrome_trace

    smoke("serve_seq", 1)
    trace = json.loads((E2E / "out" / "trace-serve_seq-seed0.json").read_text())
    assert validate_chrome_trace(trace) == []
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    by_id = {e["args"]["id"]: e for e in spans}
    calls = [e for e in spans if e["name"] == "serve.call"]
    assert calls
    for child in spans:
        parent = by_id.get(child["args"]["parent"])
        if parent is not None:  # a span lies inside the span that caused it
            assert parent["ts"] <= child["ts"] + 1e-3
            assert (child["ts"] + child["dur"]
                    <= parent["ts"] + parent["dur"] + 1e-3)
    # submit + wait account for the probed call
    probed = [c for c in calls if c["args"].get("backend")]
    for call in probed[:10]:
        parts = [e for e in spans if e["args"]["parent"] == call["args"]["id"]]
        assert {p["name"] for p in parts} == {"serve.submit", "serve.wait"}
        assert sum(p["dur"] for p in parts) == pytest.approx(
            call["dur"], rel=0.05
        )


def test_serve_spans_account_for_the_request(smoke):
    _, result = smoke("serve_seq", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    call = m["serve.execute_equiv_ms"] + m["serve.overhead_ms"]
    assert m["serve.submit_ms"] + m["serve.wait_ms"] == pytest.approx(call)
    assert m["serve.overhead_share"] == pytest.approx(
        m["serve.overhead_ms"] / call
    )
