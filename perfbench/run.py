"""Host-time benchmark of the simulator: one workload, one seed.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload smp_replay --seed 0 --seconds 32 --trace 0

The seed draws the workload's inputs (``workloads.make_inputs``); each
repetition then runs in a fresh interpreter (``worker.py``) with a cold,
private result cache and journal, until ``--seconds`` have passed (at
least ``MIN_REPS`` times).  Every point's simulated outputs are checked
against ``reference.json``.

``--trace 0`` reports the end-to-end metrics (medians over the
repetitions): ``wall_s`` (the timed body), ``setup_s`` (import plus the
node/world/fabric constructors) and ``peak_rss_mb``.  Both times are
scaled by the calibration suite each repetition times (``calibrate.py``),
so a slow phase of a shared host does not read as a slow simulator.
``--trace 1`` alternates untraced and profiled repetitions and reports
the per-layer metrics listed in ``METRICS.md``; the spans go to
``.perfbench/spans-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from calibrate import scale
from checks import check_repetition, load_reference
from workloads import WORKLOADS, make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: Repetitions of an untraced run, whatever ``--seconds`` says.
MIN_REPS = 3
#: No repetition starts after this many seconds, and none may run past
#: ``HARD_LIMIT_S``: a run must end within three minutes.
START_LIMIT_S = 120.0
HARD_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

MODEL_COUNTERS = ("memory.l2_hits", "memory.bus_ops", "memory.tlb_misses",
                  "network.link.flits", "network.crossbar.collisions")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    from layers import CALL_COUNTS, LAYERS

    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({metric: "count" for metric in CALL_COUNTS.values()})
    units.update({
        "memory.trace_refs": "count", "memory.fast_share": "ratio",
        "sim.events": "count", "sim.events_per_kb": "1/KB",
        "network.topo.build_s": "s", "parallel.overhead_s": "s",
        "parallel.cache_misses": "count", "parallel.journal_records": "count",
        "obs.metric_series": "count", "obs.spans": "count",
        "setup.import_s": "s", "trace.wall_s": "s", "trace.overhead": "x",
        "host.suite_s": "s", "host.raw_wall_s": "s",
    })
    units.update({name: "count" for name in MODEL_COUNTERS})
    return units


def host_fingerprint(rep: Dict[str, Any]) -> Dict[str, Any]:
    return {"nproc": os.cpu_count(), "python": rep.get("python"),
            "numpy": rep.get("numpy"), "platform": platform.platform(),
            "commit": _git_commit(), "jobs": 1}


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"),
                      encoding="utf-8") as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker_env(state_dir: str) -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` setting, with the
    default cache and journal pointed inside the repetition's state."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = os.path.join(state_dir, "default-cache")
    env["REPRO_JOURNAL_DIR"] = os.path.join(state_dir, "default-journals")
    return env


def run_repetition(workload: str, inputs: Dict[str, Any], trace: bool,
                   index: int, timeout: float) -> Dict[str, Any]:
    """One worker process; its state directory is removed afterwards."""
    state_dir = os.path.join(WORK_DIR, f"rep-{os.getpid()}-{index}")
    os.makedirs(state_dir)
    try:
        inputs_path = os.path.join(state_dir, "inputs.json")
        out_path = os.path.join(state_dir, "result.json")
        with open(inputs_path, "w", encoding="utf-8") as handle:
            json.dump(inputs, handle)
        command = [sys.executable, os.path.join(HERE, "worker.py"), ROOT,
                   workload, inputs_path, state_dir, out_path,
                   "1" if trace else "0"]
        try:
            proc = subprocess.run(command, env=_worker_env(state_dir),
                                  cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"repetition timed out after {timeout:.0f} s"}
        try:
            with open(out_path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            tail = (proc.stderr or "").strip().splitlines()[-1:] or [""]
            return {"error": f"worker exited {proc.returncode}: {tail[0]}"}
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


def _median(reps: List[Dict[str, Any]], name: str) -> float:
    return statistics.median(rep[name] for rep in reps)


def _sum_counter(rep: Dict[str, Any], name: str) -> int:
    total = 0
    for record in rep["records"]:
        values = dict(record.get("outputs", {}), **record.get("counters", {}))
        total += values.get(name, 0)
    return total


def end_to_end_metrics(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    metrics = {name: statistics.median(scale(rep[name], rep["suite_s"])
                                       for rep in reps)
               for name in ("wall_s", "setup_s")}
    metrics["peak_rss_mb"] = _median(reps, "peak_rss_mb")
    return metrics


def per_layer_metrics(plain: List[Dict[str, Any]],
                      traced: List[Dict[str, Any]]) -> Dict[str, float]:
    """The traced run's breakdown: medians over the profiled repetitions
    for times, exact values for counts."""
    first = traced[0]
    metrics: Dict[str, float] = dict(first["profile"])
    for name in first["profile"]:
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(rep["profile"][name]
                                              for rep in traced)
    refs = _sum_counter(first, "memory.trace_refs")
    metrics["memory.trace_refs"] = refs
    metrics["memory.fast_share"] = (
        1.0 - metrics["memory.access_calls"] / refs if refs else 0.0)
    events = _sum_counter(first, "sim.events")
    injected = _sum_counter(first, "injected_bytes")
    metrics["sim.events"] = events
    metrics["sim.events_per_kb"] = events * 1024.0 / injected if injected else 0.0
    metrics["network.topo.build_s"] = _median(traced, "build_world_s")
    metrics["parallel.overhead_s"] = statistics.median(
        rep["sweep_s"] - rep["point_s"] for rep in traced)
    state = first["state"]
    metrics["parallel.cache_misses"] = state["cache_misses"]
    metrics["parallel.journal_records"] = state["journal_records"]
    metrics["obs.metric_series"] = state.get("obs.metric_series", 0)
    metrics["obs.spans"] = state.get("obs.spans", 0)
    metrics["setup.import_s"] = _median(plain, "import_s")
    metrics["trace.wall_s"] = _median(traced, "process_wall_s")
    metrics["trace.overhead"] = (metrics["trace.wall_s"]
                                 / _median(plain, "process_wall_s"))
    metrics["host.suite_s"] = _median(plain, "suite_s")
    metrics["host.raw_wall_s"] = _median(plain, "wall_s")
    for name in MODEL_COUNTERS:
        metrics[name] = _sum_counter(first, name)
    return metrics


def _write_spans(workload: str, seed: int,
                 traced: List[Dict[str, Any]]) -> str:
    path = os.path.join(WORK_DIR, f"spans-{workload}-{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed,
                   "repetitions": [rep["spans"] for rep in traced]}, handle)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no simulator source under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    reference = load_reference()
    inputs = make_inputs(args.workload, args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("inputs:", json.dumps(inputs, sort_keys=True))
    os.makedirs(WORK_DIR, exist_ok=True)

    started = time.perf_counter()
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    seen: Dict[str, Dict[str, Any]] = {}
    attempted = 0
    failures: List[str] = []
    while True:
        elapsed = time.perf_counter() - started
        enough = (len(plain) >= (1 if args.trace else MIN_REPS)
                  and len(traced) >= args.trace)
        if (enough and elapsed >= args.seconds) or elapsed > START_LIMIT_S:
            break
        trace = bool(args.trace) and len(traced) < len(plain)
        rep = run_repetition(args.workload, inputs, trace,
                             len(plain) + len(traced),
                             timeout=HARD_LIMIT_S - elapsed)
        count, failed = check_repetition(args.workload, inputs, rep,
                                         reference, seen)
        attempted += count
        failures += failed
        if "error" in rep:
            print(f"rep {len(plain) + len(traced) + 1}: error\n"
                  f"{rep['error']}", file=sys.stderr)
            break
        (traced if trace else plain).append(rep)
        print(f"rep {len(plain) + len(traced)}: trace={int(trace)} "
              f"raw setup_s={rep['setup_s']:.4f} wall_s={rep['wall_s']:.4f} "
              f"suite_s={rep['suite_s']:.4f} "
              f"peak_rss_mb={rep['peak_rss_mb']:.1f} "
              f"failed={len(failed)}/{count}")

    for message in failures:
        print("FAILED", message)
    if plain:
        print("host:", json.dumps(host_fingerprint(plain[0]), sort_keys=True))
        for key, outputs in seen.items():
            print(f"outputs {key}:", json.dumps(outputs, sort_keys=True))
    print(f"error_rate: {len(failures)}/{attempted} = "
          f"{len(failures) / max(attempted, 1):.4f}")

    if args.trace and plain and traced:
        metrics = per_layer_metrics(plain, traced)
        units = per_layer_units()
        print("spans:", _write_spans(args.workload, args.seed, traced))
    elif not args.trace and plain:
        metrics = end_to_end_metrics(plain)
        units = END_TO_END
    else:
        metrics, units = {}, {}
    print(json.dumps({
        "correct": bool(metrics) and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
