"""Tests for the ASCII Figure 13 renderer and the command-line
interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.bench.figures import render_speedup_chart
from repro.__main__ import main as cli_main


class TestSpeedupChart:
    DATA = {
        "NN": {"NVIDIA GTX 780 Ti": 16.4, "AMD FirePro W8100": 7.2},
        "HotSpot": {"NVIDIA GTX 780 Ti": 0.8, "AMD FirePro W8100": 3.0},
    }

    def test_contains_benchmarks_and_values(self):
        text = render_speedup_chart(self.DATA)
        assert "NN" in text and "HotSpot" in text
        assert "16.40x" in text and "0.80x" in text

    def test_bars_monotone_in_speedup(self):
        text = render_speedup_chart(self.DATA)
        lines = {l.split()[0]: l for l in text.splitlines() if "x" in l and "#" in l}
        nn_bar = lines["NN"].count("#")
        hs_bar = lines["HotSpot"].count("#")
        assert nn_bar > hs_bar

    def test_paper_column(self):
        text = render_speedup_chart(self.DATA, paper={"NN": 16.26})
        assert "paper NV: 16.26" in text


@pytest.fixture()
def source_file(tmp_path):
    f = tmp_path / "prog.fut"
    f.write_text(
        "fun main (xs: [n]f32): f32 =\n"
        "  reduce (\\(a: f32) (b: f32) -> a + b) 0.0f32\n"
        "    (map (\\(x: f32) -> x * x) xs)\n"
    )
    return str(f)


class TestCli:
    def test_check_ok(self, source_file, capsys):
        assert cli_main(["check", source_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_rejects_bad_program(self, tmp_path, capsys):
        f = tmp_path / "bad.fut"
        f.write_text(
            "fun main (xs: [n]f32): [n]f32 = xs with [0] <- 1.0f32\n"
        )
        assert cli_main(["check", str(f)]) == 1
        assert "error" in capsys.readouterr().err

    def test_compile_emits_opencl(self, source_file, capsys):
        assert cli_main(["compile", source_file]) == 0
        out = capsys.readouterr().out
        assert "__kernel" in out

    def test_compile_emits_core(self, source_file, capsys):
        assert cli_main(["compile", source_file, "--emit", "core"]) == 0
        out = capsys.readouterr().out
        assert "stream_red" in out  # the fused map-reduce

    def test_compile_no_fusion(self, source_file, capsys):
        argv = ["compile", source_file, "--emit", "core"]
        assert cli_main([*argv, "--disable-pass", "fusion"]) == 0
        out = capsys.readouterr().out
        assert "stream_red" not in out

    def test_run_prices_both_devices(self, source_file, capsys):
        assert cli_main(["run", source_file, "--size", "n=1000000"]) == 0
        out = capsys.readouterr().out
        assert "NVIDIA" in out and "AMD" in out and "ms" in out

    @pytest.mark.parametrize(
        "size", ["m=100000000", "n=abc", "n=0", "n=-4", "n", "=7"]
    )
    def test_run_rejects_a_size_it_cannot_bind(
        self, source_file, capsys, size
    ):
        # A misspelt name used to price (silently) at n = 1.
        assert cli_main(["run", source_file, "--size", size]) == 2
        captured = capsys.readouterr()
        assert f"--size {size}" in captured.err
        assert "this program's sizes (n)" in captured.err
        assert captured.out == ""

    def test_run_lists_the_sizes_it_was_not_given(self, source_file, capsys):
        argv = ["run", source_file, "--disable-pass", "memory-plan"]
        assert cli_main(argv) == 0
        captured = capsys.readouterr()
        assert "sizes not given, priced as 1: n\n" in captured.err
        assert "NVIDIA" in captured.out
        assert cli_main(["run", source_file, "--size", "n=64"]) == 0
        assert "sizes not given" not in capsys.readouterr().err

    def test_bench_table2(self, capsys):
        assert cli_main(["bench", "table2", "--out", os.devnull]) == 0
        out = capsys.readouterr().out
        assert "Backprop" in out and "2000" in out
