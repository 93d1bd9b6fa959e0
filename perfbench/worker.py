"""One benchmark repetition in a fresh interpreter.

Usage (the orchestrator ``run.py`` is the only caller)::

    python3 perfbench/worker.py ROOT WORKLOAD INPUTS_JSON STATE_DIR OUT_JSON TRACE

The worker imports ``repro`` from ``ROOT/src`` (timed: ``import_s``),
makes the workload's node/world/fabric constructor calls (together with
the import: ``setup_s``), then runs the timed body (``wall_s``) with a
cold result cache and journal under ``STATE_DIR``.  The calibration
suite is timed before and after (``suite_s``, the median).  With
``TRACE=1`` the repetition runs under ``cProfile`` and the benchmark
spans are recorded.  The result, including every point's simulated
outputs, is written as JSON to ``OUT_JSON``.
"""

from __future__ import annotations

import cProfile
import importlib
import json
import os
import platform
import pstats
import resource
import statistics
import sys
import time
import traceback

import calibrate
import layers
import workloads
from spans import SPANS

#: Calibration suite timings taken before and after the repetition.
SUITE_ROUNDS = 12

#: The modules holding the entry points the workloads drive; every
#: workload imports the same set so set-up times compare.
ENTRY_MODULES = ("repro", "repro.core.specs", "repro.bench.hint",
                 "repro.bench.matmult", "repro.bench.microbench",
                 "repro.bench.traffic", "repro.msg.api",
                 "repro.network.crossbar", "repro.network.qos",
                 "repro.network.topo", "repro.parallel", "repro.obs")


def _import_repro(src: str) -> str:
    sys.path.insert(0, src)
    for name in ENTRY_MODULES:
        importlib.import_module(name)
    repro_dir = os.path.dirname(os.path.realpath(sys.modules["repro"].__file__))
    if repro_dir != os.path.join(os.path.realpath(src), "repro"):
        raise RuntimeError(f"imported repro from {repro_dir}, not from {src}")
    return repro_dir


def run(root: str, workload: str, inputs: dict, state_dir: str,
        trace: bool) -> dict:
    state = {"cache_dir": os.path.join(state_dir, "cache"),
             "journal_dir": os.path.join(state_dir, "journals"),
             "cache_hits": 0, "cache_misses": 0, "journal_records": 0}
    suite_times = calibrate.sample(SUITE_ROUNDS)
    profiler = cProfile.Profile() if trace else None
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    repro_dir = _import_repro(os.path.join(root, "src"))
    imported = time.perf_counter()
    workloads.build_setup(workload)
    set_up = time.perf_counter()
    SPANS.reset(enabled=trace)
    records = workloads.run_body(workload, inputs, state)
    end = time.perf_counter()
    if profiler is not None:
        profiler.disable()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    suite_times += calibrate.sample(SUITE_ROUNDS)
    import numpy

    result = {
        "import_s": imported - start,
        "setup_s": set_up - start,
        "wall_s": end - set_up,
        "process_wall_s": end - start,
        "suite_s": statistics.median(suite_times),
        "peak_rss_mb": peak_rss_mb,
        "records": records,
        "state": {k: v for k, v in state.items() if not k.endswith("_dir")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if trace:
        result["profile"] = layers.aggregate(
            pstats.Stats(profiler).stats, repro_dir)
        result["spans"] = SPANS.spans
        result["build_world_s"] = SPANS.total("build", what="world")
        result["sweep_s"] = SPANS.total("sweep")
        result["point_s"] = SPANS.total("point")
    return result


def main(argv) -> int:
    root, workload, inputs_path, state_dir, out_path, trace = argv
    with open(inputs_path, encoding="utf-8") as handle:
        inputs = json.load(handle)
    try:
        result = run(root, workload, inputs, state_dir, trace == "1")
    except Exception:  # reported as a failed repetition, not a crash
        result = {"error": traceback.format_exc()}
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
