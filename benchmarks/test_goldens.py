"""Every file under ``goldens/`` against the command line that made it.

Each case runs its command through ``repro.cli.main`` in-process and
compares the captured stdout, or the artifact the command wrote, byte
for byte with the golden.  Artifacts are written under the test's
temporary directory (``{out}`` below).  The one normalisation: a command
that echoes an artifact path on stdout (``metrics fig8 --out``) has that
path printed as ``/tmp/<name>``, which is what the golden records.
"""

import pathlib

import pytest

from repro.cli import main

GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens"

FIG11_OBSERVED = ("fig11", "--no-cache",
                  "--timeline-out", "{out}/timeline_fig11.json",
                  "--metrics-out", "{out}/metrics_fig11.json")
METRICS_FIG8 = ("metrics", "fig8", "--sizes", "24", "40", "--no-cache",
                "--out", "{out}/metrics_fig8.json")

# golden file -> (command line, artifact): artifact None compares stdout,
# otherwise the file the command wrote under {out}.
CASES = {
    "traffic_default.txt": (("traffic",), None),
    "fig9_8_64.txt": (("fig9", "--sizes", "8", "64"), None),
    "fig10_default.txt": (("fig10", "--no-cache"), None),
    "fig11_default.txt": (("fig11", "--no-cache"), None),
    "fig12_default.txt": (("fig12", "--no-cache"), None),
    "chaos_default.txt": (("chaos", "--no-cache"), None),
    "logp_default.txt": (("logp",), None),
    "table1.txt": (("table1",), None),
    "timeline_fig11.json": (FIG11_OBSERVED, "timeline_fig11.json"),
    "metrics_fig11.json": (FIG11_OBSERVED, "metrics_fig11.json"),
    "fig6_default.txt": (("fig6", "--no-cache"), None),
    "fig7_default.txt": (("fig7", "--no-cache"), None),
    "fig8_24_40.txt": (("fig8", "--sizes", "24", "40", "--no-cache"), None),
    "metrics_fig8_24_40.txt": (METRICS_FIG8, None),
    "metrics_fig8_24_40.json": (METRICS_FIG8, "metrics_fig8.json"),
}


@pytest.fixture(scope="module")
def runs():
    """Command line -> (stdout, output dir), so two goldens cut from one
    run (a table and its JSON) share that run."""
    return {}


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDENS.iterdir()))
def test_golden(name, runs, capsys, tmp_path, monkeypatch):
    assert name in CASES, f"goldens/{name} has no command line here"
    argv, artifact = CASES[name]
    if argv not in runs:
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path / "journals"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        capsys.readouterr()
        rc = main([arg.format(out=tmp_path) for arg in argv])
        assert rc == 0
        runs[argv] = (capsys.readouterr().out, tmp_path)
    stdout, out_dir = runs[argv]
    if artifact is None:
        actual = stdout
        for arg in argv:
            if arg.startswith("{out}/"):
                actual = actual.replace(arg.format(out=out_dir),
                                        "/tmp/" + arg[len("{out}/"):])
    else:
        actual = (out_dir / artifact).read_text(encoding="utf-8")
    assert actual == (GOLDENS / name).read_text(encoding="utf-8")
