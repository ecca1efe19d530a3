"""Unit tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.graphs import generators as gen
from repro.graphs.io import write_dimacs_coloring


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "repro-color" in out
        assert __version__ in out


class TestImportCost:
    @pytest.mark.parametrize(
        "prefix", ["scipy", "multiprocessing", "concurrent.futures"]
    )
    def test_cli_import_does_not_load(self, prefix):
        # SciPy and the process pool are imported inside the functions
        # that need them, never at startup
        code = (
            "import sys, repro.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[]"


class TestSuiteCommand:
    def test_prints_table(self, capsys):
        assert main(["suite", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "rmat" in out
        assert "|V|" in out


class TestColorCommand:
    def test_gpu_run_on_dataset(self, capsys):
        assert main(["color", "road", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "result (validated)" in out
        assert "algorithm" in out

    def test_cpu_algorithm(self, capsys):
        assert main(["color", "road", "--scale", "tiny", "-a", "dsatur"]) == 0
        assert "dsatur" in capsys.readouterr().out

    def test_iterations_flag(self, capsys):
        assert main(["color", "grid2d", "--scale", "tiny", "--iterations"]) == 0
        assert "iterations" in capsys.readouterr().out

    def test_mapping_and_schedule_options(self, capsys):
        rc = main(
            [
                "color",
                "powerlaw",
                "--scale",
                "tiny",
                "--mapping",
                "hybrid",
                "--schedule",
                "stealing",
                "--degree-threshold",
                "32",
                "--sort-by-degree",
            ]
        )
        assert rc == 0

    def test_backend_option(self, capsys):
        # there is one array backend; the old selector is an unknown option
        with pytest.raises(SystemExit) as exc:
            main(["color", "road", "--scale", "tiny", "--backend", "numpy"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_file_input(self, tmp_path, capsys):
        p = tmp_path / "g.col"
        write_dimacs_coloring(gen.cycle(9), p)
        assert main(["color", str(p)]) == 0
        assert "g.col" in capsys.readouterr().out

    def test_missing_input_errors(self):
        with pytest.raises(SystemExit, match="neither"):
            main(["color", "no-such-graph"])

    @pytest.mark.parametrize(
        "name,text,message",
        [
            ("bad.col", "p edge 2 1\ne 1 x\n", "expected an integer, got 'x'"),
            (
                "rows.mtx",
                "%%MatrixMarket matrix coordinate pattern symmetric\n"
                "99999999999 99999999999 1\n1 1\n",
                "99999999999 rows outside [0, 2147483647] (int32 ids)",
            ),
            (
                "nnz.mtx",
                "%%MatrixMarket matrix coordinate pattern symmetric\n10 10 99999999999\n1 1\n",
                "99999999999 entries do not fit a 10x10 matrix",
            ),
        ],
        ids=["dimacs-token", "mtx-rows", "mtx-nnz"],
    )
    def test_malformed_file_is_a_one_line_error(self, tmp_path, name, text, message):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["color", str(p)])
        assert exc.value.code == f"error: {p}:2: {message}"


class TestCompareCommand:
    def test_all_algorithms_listed(self, capsys):
        assert main(["compare", "road", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        for name in ("maxmin", "jones-plassmann", "speculative", "hybrid-switch", "dsatur"):
            assert name in out


class TestStatsCommand:
    def test_structure_and_layouts(self, capsys):
        assert main(["stats", "road", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "degree histogram" in out
        assert "rcm" in out
        assert "bandwidth" in out


class TestConvertCommand:
    def test_dataset_to_dimacs(self, tmp_path, capsys):
        out_path = tmp_path / "out.col"
        assert main(["convert", "road", str(out_path), "--scale", "tiny"]) == 0
        assert out_path.exists()
        assert "wrote" in capsys.readouterr().out

    def test_file_to_file_roundtrip(self, tmp_path):
        from repro.graphs.io import load_graph

        src = tmp_path / "g.col"
        write_dimacs_coloring(gen.cycle(9), src)
        dst = tmp_path / "g.mtx"
        assert main(["convert", str(src), str(dst)]) == 0
        assert load_graph(dst) == load_graph(src)


class TestSweepCommand:
    def test_chunk_size_sweep(self, capsys):
        rc = main(
            ["sweep", "powerlaw", "--parameter", "chunk_size", "256", "512", "--scale", "tiny"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "chunk_size" in out
        assert "time_ms" in out

    def test_threshold_sweep_with_hybrid(self, capsys):
        rc = main(
            [
                "sweep",
                "powerlaw",
                "--parameter",
                "degree_threshold",
                "16",
                "64",
                "--mapping",
                "hybrid",
                "--schedule",
                "grid",
                "--scale",
                "tiny",
            ]
        )
        assert rc == 0


class TestRejectedConfig:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["sweep", "rmat", "--parameter", "workgroup_size", "128", "512"],
                "workgroup_size exceeds device limit",
            ),
            (
                ["sweep", "rmat", "--parameter", "workgroup_size", "128", "512", "--jobs", "2"],
                "workgroup_size exceeds device limit",
            ),
            (
                ["sweep", "rmat", "--parameter", "chunk_size", "100", "--jobs", "2"],
                "chunk_size must be a positive multiple",
            ),
            (
                ["color", "rmat", "--workgroup-size", "512"],
                "workgroup_size exceeds device limit",
            ),
            (
                ["color", "rmat", "--chunk-size", "100"],
                "chunk_size must be a positive multiple",
            ),
        ],
    )
    def test_one_error_line_before_any_run(self, argv, message, capsys):
        # every executor is built before the first run, so a rejected
        # point stops the command before it prints a row
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--scale", "tiny"])
        assert str(exc.value.code).startswith(f"error: {message}")
        assert capsys.readouterr().out == ""


class TestTuneCommand:
    def test_scoreboard_printed(self, capsys):
        assert main(["tune", "citation", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "autotune scoreboard" in out
        assert "winner:" in out

    def test_run_flag(self, capsys):
        assert main(["tune", "road", "--scale", "tiny", "--run"]) == 0
        assert "tuned run (validated)" in capsys.readouterr().out


class TestReportCommand:
    def test_stealing_schedule_report(self, capsys):
        rc = main(
            ["report", "powerlaw", "--scale", "tiny", "--schedule", "stealing"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "full-sweep load profile" in out


class TestTraceCommand:
    def test_chrome_trace_written(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        rc = main(["trace", "rmat", "--scale", "tiny", "-o", str(out)])
        assert rc == 0
        assert "traced run (validated)" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        assert isinstance(events, list) and events
        # the traced run must cover kernels and the harness phase span
        cats = {e.get("cat") for e in events if e["ph"] != "M"}
        assert "kernel" in cats
        assert "phase" in cats

    def test_jsonl_format_round_trips(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        out = tmp_path / "trace.jsonl"
        rc = main(["trace", "powerlaw", "--scale", "tiny", "-o", str(out)])
        assert rc == 0
        events = read_jsonl(out)
        assert events
        assert any(e.cat == "kernel" for e in events)

    def test_explicit_format_beats_extension(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.dat"
        rc = main(
            ["trace", "road", "--scale", "tiny", "-o", str(out),
             "--format", "jsonl"]
        )
        assert rc == 0
        first = out.read_text().splitlines()[0]
        assert json.loads(first)["name"]

    def test_capacity_caps_retained_events(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(
            ["trace", "rmat", "--scale", "tiny", "-o", str(out),
             "--capacity", "3"]
        )
        assert rc == 0
        assert "dropped (oldest)" in capsys.readouterr().out


class TestProfileCommand:
    def test_per_phase_table_and_totals(self, capsys):
        rc = main(["profile", "powerlaw", "--scale", "tiny"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profiled run (validated)" in out
        assert "per-phase metrics" in out
        assert "steal_success_rate" in out


class TestColorTraceFlag:
    def test_gpu_run_exports_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "run.json"
        rc = main(["color", "road", "--scale", "tiny", "--trace", str(out)])
        assert rc == 0
        assert "trace:" in capsys.readouterr().out
        assert json.loads(out.read_text())["traceEvents"]

    def test_cpu_run_ignores_trace(self, tmp_path, capsys):
        out = tmp_path / "cpu.json"
        rc = main(
            ["color", "road", "--scale", "tiny", "-a", "dsatur",
             "--trace", str(out)]
        )
        assert rc == 0
        assert "ignoring" in capsys.readouterr().out
        assert not out.exists()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["color", "rmat", "--mapping", "bogus"])
