"""Record ``reference.json``: the simulated outputs the benchmark checks.

Usage, from the root of a checkout::

    python3 perfbench/record.py

Runs every smp cell and latency point any seed can draw, straight through
the point tasks (no sweep, cache or observability), plus the traffic
point of ``RECORDED_SEEDS`` and two more seeds.  A latency point is
measured on two node pairs and must agree, because its reference is
keyed by size alone.  ``TRAFFIC_INVARIANTS`` must agree across all
those seeds; they become ``traffic_invariants``, checked on every seed.
Re-record only when the simulated model is meant to change.
"""

from __future__ import annotations

import json
import os
import sys

import workloads as w
from checks import REFERENCE_PATH

#: The default seed and one held-out seed.
RECORDED_SEEDS = (0, 9)
#: Extra traffic seeds that only serve to find the seed-free outputs.
INVARIANT_SEEDS = (101, 202)
#: Each latency point runs between both pairs; its outputs must agree.
PAIRS = ([0, 1], [6, 3])
#: Traffic outputs no seed can change: the message set and every route
#: are fixed, only the hotspot arrival times are drawn.
TRAFFIC_INVARIANTS = ("urgent.messages", "bulk.messages",
                      "network.link.flits")


def _cells():
    for machine in w.SMP_MACHINES:
        for version in w.SMP_VERSIONS:
            for n in w.IN_CACHE_BAND:
                yield w.cell_inputs(machine, version, n, False)
            for n in w.SAMPLED_BAND:
                yield w.cell_inputs(machine, version, n, True)
    for n in w.OBSERVED_BAND:
        yield w.cell_inputs("powermanna", "naive", n, False)


def record() -> dict:
    points = {}
    for cell in _cells():
        key = w.cell_key(cell)
        points[key] = w.smp_cell_task(cell, 0)["outputs"]
        print(key, points[key], flush=True)
    for nbytes in w.FIG9_SIZES:
        key = w.comm_key("latency", nbytes)
        outputs = [w.comm_point_task({"metric": "latency", "nbytes": nbytes,
                                      "pair": pair}, 0)["outputs"]
                   for pair in PAIRS]
        if outputs[0] != outputs[1]:
            raise SystemExit(f"{key} depends on the node pair: {outputs}")
        points[key] = outputs[0]
        print(key, points[key], flush=True)
    traffic = []
    for seed in RECORDED_SEEDS + INVARIANT_SEEDS:
        inputs = w.make_inputs("traffic_contended", seed)
        outputs = w.traffic_point_task(inputs, 0)["outputs"]
        if seed in RECORDED_SEEDS:
            points[w.traffic_key(inputs["plan_seed"])] = outputs
        traffic.append(outputs)
        print("traffic seed", seed, outputs, flush=True)
    invariants = {name: traffic[0][name] for name in TRAFFIC_INVARIANTS}
    for name, value in invariants.items():
        if any(t[name] != value for t in traffic):
            raise SystemExit(f"traffic output {name} depends on the seed")
    return {"recorded_seeds": list(RECORDED_SEEDS), "points": points,
            "traffic_invariants": invariants}


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    reference = record()
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(reference['points'])} points to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
