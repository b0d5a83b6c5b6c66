"""CLI error hygiene: failures exit with a code naming their class.

Each test invokes ``python -m repro`` as a real subprocess, so the
assertions cover the argparse wiring, the error-mapping layer in
``__main__`` and the taxonomy in :mod:`repro.errors` end-to-end —
exactly the interface shell scripts and CI branch on.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.errors import (
    ArgumentError,
    CompilerBug,
    DeadlineExceeded,
    DeviceFault,
    DeviceOOM,
    KernelTimeout,
    ReproError,
    ServiceOverloaded,
    ValidationError,
    exit_code_for,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_cli(*argv, timeout=300):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=timeout,
    )


class TestExitCodeMapping:
    """The pure mapping, including subclass precedence."""

    @pytest.mark.parametrize(
        "error, code",
        [
            (ArgumentError("bad arity"), 2),
            (CompilerBug("fusion", "simplify", "boom"), 3),
            (DeviceFault("launch", "boom"), 4),
            (DeviceOOM("b", 8, 0, 4), 4),
            (KernelTimeout("k", 1.0, 99.0), 5),
            (DeadlineExceeded("submit"), 5),
            (ServiceOverloaded("queue full"), 6),
            (ValidationError("mismatch"), 1),
            (ReproError("generic"), 1),
        ],
    )
    def test_mapping(self, error, code):
        assert exit_code_for(error) == code


class TestCliExitCodes:
    def test_success_exits_zero(self):
        r = run_cli("bench", "table2", "--out", os.devnull)
        assert r.returncode == 0, r.stderr

    def test_argument_error_exits_2(self):
        # A flag the command does not read is caller misuse.
        r = run_cli("bench", "table2", "--seed", "7")
        assert r.returncode == 2, r.stderr
        assert "error:" in r.stderr
        assert "--seed" in r.stderr

    def test_device_fault_exits_4(self):
        # Every launch a fatal fault, no interpreter fallback: the
        # typed DeviceFault must surface as exit code 4.
        r = run_cli(
            "bench", "validate", "--names", "NN",
            "--chaos", "--chaos-profile", "fatal", "--no-fallback",
        )
        assert r.returncode == 4, (r.returncode, r.stderr)
        assert "fault" in r.stderr

    def test_kernel_timeout_exits_5(self):
        # Every launch a never-clearing watchdog timeout, no fallback.
        r = run_cli(
            "bench", "validate", "--names", "NN",
            "--chaos", "--chaos-profile", "timeout", "--no-fallback",
        )
        assert r.returncode == 5, (r.returncode, r.stderr)
        assert "watchdog" in r.stderr

    def test_error_message_goes_to_stderr_not_stdout(self):
        r = run_cli("bench", "table2", "--seed", "7")
        assert "error:" in r.stderr
        assert "error:" not in r.stdout

    def test_chaos_with_fallback_still_succeeds(self):
        # The same fatal plan *with* the interpreter fallback active
        # must be survivable — that asymmetry is the point of the flag.
        r = run_cli(
            "bench", "validate", "--names", "NN",
            "--chaos", "--chaos-profile", "fatal",
        )
        assert r.returncode == 0, r.stderr


class TestBenchReadsItsFlags:
    """A ``bench`` flag that would change what runs either reaches the
    suite or is rejected — never silently ignored."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            # mem executes nothing.
            (("mem", "--executor", "sim"), "does not read --executor"),
            # Fault plans and the fallback switch are validate's alone.
            (("shard", "--no-fallback"), "does not read --no-fallback"),
            (("table1", "--chaos"), "does not read --chaos"),
            # The wall-clock suites and the calibration sweep are gone
            # (argparse: invalid choice).
            (("jit",), "invalid choice"),
            (("compile",), "invalid choice"),
            (("calibrate",), "invalid choice"),
            # The rule holds for every flag, not only those three.
            (("table2", "--chaos-profile", "fatal"), "--chaos-profile"),
            (("mem", "--kind", "tiling"), "does not read --kind"),
            (("table1", "--no-fusion"), "does not read --no-fusion"),
        ],
    )
    def test_unread_flag_or_deleted_suite_exits_2(self, argv, message):
        r = run_cli("bench", *argv, "--out", os.devnull)
        assert r.returncode == 2, (r.returncode, r.stderr)
        assert message in r.stderr

    @pytest.mark.parametrize(
        "argv, message",
        [
            # A name the suite does not know, on a pinned row and on
            # validate alike.
            (("table2", "--names", "Nope"), "unknown benchmark 'Nope'"),
            (("validate", "--names", "NN,Nope"), "valid names: Backprop"),
            # A benchmark without the variant the kind needs.
            (
                ("impact", "--kind", "inplace", "--names", "HotSpot"),
                "valid names: K-means, LocVolCalib",
            ),
        ],
    )
    def test_a_name_it_cannot_run_exits_2(self, argv, message, capsys):
        assert main(["bench", *argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "error:" not in captured.out

    def test_a_subset_is_printed_not_written_over_the_committed_file(
        self, capsys
    ):
        committed = REPO_ROOT / "benchmarks" / "results" / "table2.txt"
        before = committed.read_text()
        assert main(["bench", "table2", "--names", "NN"]) == 0
        captured = capsys.readouterr()
        rows = captured.out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["NN"]
        assert "table2.txt not written" in captured.err
        assert committed.read_text() == before

    def test_table1_prints_the_committed_file(self, tmp_path, capsys):
        # One renderer: what the CLI prints is what it writes is what
        # is committed, so a column cannot sit under another's header.
        out = tmp_path / "table1.txt"
        assert main(["bench", "table1", "--out", str(out)]) == 0
        committed = (
            REPO_ROOT / "benchmarks" / "results" / "table1.txt"
        ).read_text()
        assert capsys.readouterr().out == committed == out.read_text()

    def test_shard_runs_on_the_executor_it_is_given(
        self, tmp_path, monkeypatch
    ):
        # The payload records the executor the suite was handed.  Toy
        # sizes: the scalar interpreter at 262 144 rows is minutes.
        from repro.bench import pinned

        monkeypatch.setitem(pinned.SHARD_SIZES, "MRI-Q", {"x": 64, "k": 4})
        out = tmp_path / "shard.json"
        argv = ["bench", "shard", "--names", "MRI-Q", "--out", str(out)]
        for executor in ("sim", "jit"):
            assert main([*argv, "--executor", executor]) == 0
            assert json.loads(out.read_text())["executor"] == executor


class TestCompileAndRunReadTheirFlags:
    """``compile`` and ``run`` execute no kernel, so neither takes
    ``--executor``; and ``compile`` cannot render a host program it
    stopped before building."""

    @pytest.fixture
    def source(self, tmp_path):
        src = tmp_path / "prog.fut"
        src.write_text(
            "fun main (xs: [n]f32): [n]f32 = map (\\(x: f32) -> x * 2.0f32) xs"
        )
        return str(src)

    @pytest.mark.parametrize("command", ["compile", "run"])
    def test_executor_is_not_a_flag_of_a_command_that_runs_nothing(
        self, command, source, capsys
    ):
        with pytest.raises(SystemExit) as exit_:
            main([command, source, "--executor", "sim"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "error: unrecognized arguments: --executor sim" in err

    def test_opencl_of_a_compile_stopped_at_core_exits_2(
        self, source, capsys
    ):
        argv = ["compile", source, "--emit", "opencl", "--stop-after", "core"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: --emit opencl renders the host program" in captured.err
        assert captured.out == ""

    def test_stop_after_core_prints_core_ir(self, source, capsys):
        assert main(["compile", source, "--stop-after", "core"]) == 0
        out = capsys.readouterr().out
        assert "fun main" in out and "__kernel" not in out


class TestServeBenchCli:
    def test_serve_bench_smoke(self, tmp_path):
        out = tmp_path / "serve.json"
        r = run_cli(
            "serve-bench",
            "--clients", "2", "--requests-per-client", "2",
            "--names", "NN", "--deadline-ms", "10000",
            "--out", str(out),
        )
        assert r.returncode == 0, r.stderr
        # The effective configuration comes first.
        assert r.stdout.splitlines()[0] == (
            "config: devices dev0 [NVIDIA GTX 780 Ti]; "
            "workers 1 (one per device); queue capacity 32; executor jit; "
            "breaker 3 failures / 0.25 s; retries 2; min shard 256"
        )
        assert "requests from 2 clients" in r.stdout
        report = json.loads(out.read_text())
        assert report["outcomes"]["ok"] == 4
        assert report["health"]["queue_capacity"] == 32

    def test_chaos_gives_each_device_its_own_seed(self, capsys):
        argv = [
            "serve-bench", "--clients", "1", "--requests-per-client", "1",
            "--names", "NN", "--chaos", "--devices", "2", "--seed", "5",
            "--executor", "sim",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "config: devices dev0 [NVIDIA GTX 780 Ti], "
            "dev1 [NVIDIA GTX 780 Ti]; workers 2 (one per device); "
            "queue capacity 32; executor sim; "
            "breaker 3 failures / 0.25 s; retries 2; min shard 256; "
            "chaos seeds dev0=5, dev1=1000008"
        )

    def test_the_worker_count_is_not_a_flag(self):
        # One worker per device: there is no --workers to set.
        r = run_cli("serve-bench", "--workers", "2")
        assert r.returncode == 2
        assert "unrecognized arguments: --workers 2" in r.stderr

    def test_flight_bundles_that_cannot_be_written_exit_1(
        self, tmp_path, capsys
    ):
        # An SLO no request can meet, so the one request dumps a bundle
        # — into a "directory" that is a file.
        (tmp_path / "file").write_text("not a directory")
        argv = [
            "serve-bench", "--clients", "1", "--requests-per-client", "1",
            "--names", "NN", "--slo-ms", "0.001",
            "--flight-dir", str(tmp_path / "file"),
        ]
        assert main(argv) == 1
        assert "1 bundle(s) could not be written" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--names", "NN,Nope"), "valid names: Backprop"),
            # The flight recorder's settings without a flight recorder.
            (("--slo-ms", "5"), "--slo-ms requires --flight-dir"),
            (
                ("--flight-capacity", "8"),
                "--flight-capacity requires --flight-dir",
            ),
        ],
    )
    def test_a_name_or_flag_that_reaches_nothing_exits_2(
        self, argv, message, capsys
    ):
        assert main(["serve-bench", *argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


class TestPassesCli:
    PLAN_ORDER = [
        "check", "inline", "simplify", "fusion", "post-fusion-simplify",
        "flatten", "post-flatten-simplify", "lower", "coalescing",
        "tiling", "memory-plan",
    ]

    @staticmethod
    def _rows(capsys, *flags):
        assert main(["passes", *flags]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split() == ["pass", "stage", "enabled"]
        return {row.split()[0]: row.split()[1:] for row in rows}, [
            row.split()[0] for row in rows
        ]

    def test_rows_are_in_plan_order_and_all_enabled_by_default(self, capsys):
        rows, order = self._rows(capsys)
        assert order == self.PLAN_ORDER
        assert all(cells[1] == "yes" for cells in rows.values())
        assert rows["lower"] == ["host", "yes", "mandatory"]
        assert rows["tiling"] == ["host", "yes"]

    def test_flags_flip_the_enabled_column(self, capsys):
        rows, order = self._rows(
            capsys, "--no-fusion", "--disable-pass", "tiling"
        )
        assert order == self.PLAN_ORDER
        off = {name for name, cells in rows.items() if cells[1] == "no"}
        assert off == {"fusion", "post-fusion-simplify", "tiling"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (("serve-bench", "--devices", "0"), "device-pool spec '0' names no"),
        (
            ("serve-bench", "--devices", "2xnope"),
            "unknown device profile 'nope'",
        ),
        (
            ("run", "{source}", "--device-profile", "nope"),
            "unknown device profile 'nope'",
        ),
        (
            ("passes", "--disable-pass", "lower"),
            "--disable-pass lower: pass is mandatory",
        ),
        (
            ("passes", "--disable-pass", "frobnicate"),
            "--disable-pass frobnicate: no such pass",
        ),
        (
            ("compile", "{source}", "--disable-pass", "lower"),
            "--disable-pass lower: pass is mandatory",
        ),
        (
            ("compile", "{source}", "--disable-pass", "frobnicate"),
            "--disable-pass frobnicate: no such pass",
        ),
    ],
)
def test_a_bad_device_spec_or_pass_name_exits_2(argv, message, tmp_path):
    # A device spec or pass name is caller text: one naming no device,
    # an unknown profile or pass, or a mandatory pass is caller misuse,
    # reported without a traceback.
    source = tmp_path / "prog.fut"
    source.write_text(
        "fun main (xs: [n]f32): [n]f32 = map (\\(x: f32) -> x * 2.0f32) xs"
    )
    r = run_cli(*(a.format(source=source) for a in argv))
    assert r.returncode == 2, (r.returncode, r.stderr)
    assert f"error: {message}" in r.stderr
    assert "Traceback" not in r.stderr


def test_obs_top_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["obs", "top"])
    assert exit_.value.code == 2
    assert "invalid choice: 'top'" in capsys.readouterr().err
