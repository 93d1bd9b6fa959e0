"""Tests for the experiment CLI."""

import json

import pytest

from repro.cli import build_parser, main

# Every subcommand's parsed defaults, recorded before the shared option
# groups existed: moving an option into a group must keep its dest and
# its default.
SUPERVISE = {"retries": 2, "point_timeout": None, "journal": None,
             "no_journal": False, "resume": None}
SWEEP = {**SUPERVISE, "jobs": 1, "no_cache": False, "cache_dir": None}
SAMPLING = {"sample_interval": None, "timeline_out": None, "health": None}
ARTIFACTS = {"trace": None, "metrics_out": None}
FAULTS = {"fault_plan": None, "fault_seed": None}
CHAOS = {"plan": None, "seed": None, "seeds": 0, "topology": "cluster",
         "protocol": "sliding", "flows": 4, "messages": 8, "window": 8,
         "ack_error_rate": None, "link_error_rate": 0.0,
         "report_out": None}
EXPERIMENT = {**SWEEP, "scale": 16, "sizes": None, "subintervals": 4096}
COMM = {**SWEEP, **SAMPLING, **ARTIFACTS, **FAULTS, "sizes": None,
        "error_rate": None, "topology": None}
SURFACE = {
    ("list",): {"command": "list"},
    ("table1",): {"command": "table1"},
    ("fig6",): {**SWEEP, **SAMPLING, "command": "fig6", "scale": 16,
                "subintervals": 4096},
    ("fig7",): {**SWEEP, **SAMPLING, "command": "fig7", "scale": 16,
                "sizes": None},
    ("fig8",): {**SWEEP, **SAMPLING, "command": "fig8", "scale": 16,
                "sizes": None},
    ("fig9",): {**COMM, "command": "fig9"},
    ("fig10",): {**COMM, "command": "fig10"},
    ("fig11",): {**COMM, "command": "fig11"},
    ("fig12",): {**COMM, "command": "fig12"},
    ("traffic",): {**SWEEP, **FAULTS, "command": "traffic",
                   "adaptive": False, "adaptive_depth": 4,
                   "arbiter": "fifo", "classes": None,
                   "closed_loop": False, "json_out": None, "load": None,
                   "messages": 32, "nbytes": 1024, "pattern_mix": None,
                   "patterns": None, "rounds": 4, "seed": 7,
                   "topology": "cluster", "window": 4},
    ("chaos",): {**SWEEP, **SAMPLING, **ARTIFACTS, **CHAOS,
                 "command": "chaos", "error_rate": 0.0, "nbytes": 1024},
    ("logp",): {"command": "logp", "nbytes": 8},
    ("bench",): {**SUPERVISE, "command": "bench", "compare": None,
                 "jobs": 1, "kernels": None, "list": False, "out": None,
                 "quick": False, "repeats": 3, "threshold": 0.1},
    ("trace", "fig9"): {**EXPERIMENT, "command": "trace",
                        "experiment": "fig9", "nbytes": 8,
                        "out": "trace.json", "span_limit": 1_000_000},
    ("metrics", "fig7"): {**EXPERIMENT, "command": "metrics",
                          "experiment": "fig7", "nbytes": 8, "csv": False,
                          "out": None, "top": 40},
    ("report", "fig9"): {**EXPERIMENT, **SAMPLING, **ARTIFACTS, **FAULTS,
                         **CHAOS, "command": "report", "experiment": "fig9",
                         "nbytes": None, "error_rate": None,
                         "out": "report.html", "span_limit": 1_000_000},
}


class TestParser:
    def test_all_commands_parse(self):
        parser = build_parser()
        for command in ("list", "table1", "logp"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_figure_options(self):
        parser = build_parser()
        args = parser.parse_args(["fig9", "--sizes", "8", "64"])
        assert args.sizes == [8, 64]
        args = parser.parse_args(["fig7", "--scale", "32"])
        assert args.scale == 32

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("argv", list(SURFACE), ids=" ".join)
    def test_defaults_surface(self, argv):
        assert vars(build_parser().parse_args(list(argv))) == SURFACE[argv]

    def test_surface_covers_every_subcommand(self):
        from repro.cli import _COMMANDS

        assert sorted(argv[0] for argv in SURFACE) == sorted(_COMMANDS)


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "table1" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "PowerMANNA" in out and "2/2 Mbyte" in out

    def test_logp(self, capsys):
        assert main(["logp"]) == 0
        out = capsys.readouterr().out
        assert "one-way latency" in out

    def test_fig9_small(self, capsys):
        assert main(["fig9", "--sizes", "8", "64"]) == 0
        out = capsys.readouterr().out
        assert "PowerMANNA" in out and "BIP" in out

    def test_fig10_small(self, capsys):
        assert main(["fig10", "--sizes", "8"]) == 0
        assert "Figure 10" in capsys.readouterr().out

    def test_fig7_small(self, capsys):
        assert main(["fig7", "--scale", "64", "--sizes", "8", "16"]) == 0
        out = capsys.readouterr().out
        assert "naive" in out and "transposed" in out

    def test_fig8_small(self, capsys):
        assert main(["fig8", "--scale", "64", "--sizes", "16"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_fig6_small(self, capsys):
        assert main(["fig6", "--scale", "64", "--subintervals", "512"]) == 0
        out = capsys.readouterr().out
        assert "DOUBLE" in out and "INT" in out


class TestBenchKernelSelection:
    def test_bench_list_prints_kernels(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig7_matmult", "replay_batch_vec"):
            assert name in out

    def test_bench_unknown_kernel_clean_error(self, capsys):
        assert main(["bench", "--kernels", "no_such_kernel"]) == 2
        captured = capsys.readouterr()
        assert "unknown kernel(s) no_such_kernel" in captured.err
        assert "bench --list" in captured.err
        # one clean line on stderr, no traceback
        assert "Traceback" not in captured.err


class TestObservedRuns:
    CHAOS = ["chaos", "--flows", "2", "--messages", "2", "--no-cache"]

    def test_chaos_artifacts_and_report(self, tmp_path, capsys):
        trace, metrics = tmp_path / "t.json", tmp_path / "m.json"
        observed, bare = tmp_path / "r.json", tmp_path / "bare.json"
        assert main(self.CHAOS + ["--trace", str(trace),
                                  "--metrics-out", str(metrics),
                                  "--report-out", str(observed)]) == 0
        observed_out = capsys.readouterr().out
        assert main(self.CHAOS + ["--report-out", str(bare)]) == 0
        bare_out = capsys.readouterr().out
        assert json.loads(trace.read_text())["traceEvents"]
        assert json.loads(metrics.read_text())
        assert observed.read_text() == bare.read_text()
        # The printed report block is the same with or without the
        # session; only the "wrote ..." lines after it differ.
        block = bare_out.split("wrote ")[0]
        assert block and observed_out.startswith(block)
        assert f"wrote {trace}" in observed_out
        assert f"wrote {metrics}" in observed_out

    def test_interrupt_flushes_partial_artifacts(self, tmp_path, capsys,
                                                 monkeypatch):
        from repro.obs import OBS

        def interrupted_sweep(*args, **kwargs):
            OBS.metrics.incr("test.before_interrupt")
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli.comm_sweep", interrupted_sweep)
        trace, metrics = tmp_path / "t.json", tmp_path / "m.json"
        assert main(["fig9", "--sizes", "8", "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 130
        captured = capsys.readouterr()
        assert "interrupted: flushing partial artifacts" in captured.err
        assert f"wrote {trace}: 0 spans, 0 messages (partial)" \
            in captured.out
        assert f"wrote {metrics}: 1 series (partial)" in captured.out
        assert json.loads(trace.read_text())["otherData"]["partial"]
        assert [row["metric"] for row in json.loads(metrics.read_text())] \
            == ["test.before_interrupt"]
        assert OBS.enabled is False

    def test_interrupted_sweep_keeps_resume_hint(self, tmp_path, capsys,
                                                 monkeypatch):
        from repro.parallel import SweepInterrupted

        def interrupted_sweep(*args, **kwargs):
            raise SweepInterrupted("camp.jsonl")

        monkeypatch.setattr("repro.cli.comm_sweep", interrupted_sweep)
        metrics = tmp_path / "m.json"
        assert main(["fig9", "--sizes", "8",
                     "--metrics-out", str(metrics)]) == 130
        captured = capsys.readouterr()
        assert "(partial)" in captured.out
        assert "resume with: --resume camp.jsonl" in captured.err
