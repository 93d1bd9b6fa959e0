"""Output checks: every point's simulated outputs against the reference.

``reference.json`` (written by ``record.py``) holds the exact outputs of
every smp cell and latency point any seed can draw, the traffic point of the
recorded seeds, and the traffic outputs that do not depend on the seed.
A point fails if it raised, if its outputs differ from the reference, if
it breaks an invariant, or if a repetition of the same run disagrees with
the first.  ``sim.events`` and call counts are never outputs: a perf
change is meant to move them.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Tuple

from workloads import point_keys

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference(path: str = REFERENCE_PATH) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _differences(got: Dict[str, Any], want: Dict[str, Any]) -> List[str]:
    names = sorted(set(got) | set(want))
    return [f"{name}: got {got.get(name)!r}, want {want.get(name)!r}"
            for name in names if got.get(name) != want.get(name)]


def _invariant_failures(key: str, outputs: Dict[str, Any],
                        reference: Dict[str, Any]) -> List[str]:
    problems = [f"{name} is not a finite number"
                for name, value in outputs.items()
                if not isinstance(value, (int, float))
                or isinstance(value, bool) or not math.isfinite(value)]
    if problems:
        return problems
    if key.startswith("traffic:"):
        want = reference["traffic_invariants"]
        problems += _differences({k: outputs.get(k) for k in want}, want)
        for cls in ("urgent", "bulk"):
            if not outputs[f"{cls}.goodput_mb_s"] > 0:
                problems.append(f"{cls} goodput is not positive")
            if not 0 < outputs[f"{cls}.p50_ns"] <= outputs[f"{cls}.p99_ns"]:
                problems.append(f"{cls} p50/p99 out of order")
    return problems


def check_repetition(workload: str, inputs: Dict[str, Any],
                     result: Dict[str, Any], reference: Dict[str, Any],
                     seen: Dict[str, Dict[str, Any]]
                     ) -> Tuple[int, List[str]]:
    """``(points attempted, one message per failed point)`` for one
    repetition; ``seen`` carries the first repetition's outputs so later
    ones must repeat them exactly."""
    keys = point_keys(workload, inputs)
    if "error" in result:
        reason = result["error"].strip().splitlines()[-1]
        return len(keys), [f"{key}: repetition failed: {reason}"
                           for key in keys]
    state = result["state"]
    if state["cache_hits"] or state["cache_misses"] != len(keys):
        return len(keys), [
            f"{key}: result cache not cold ({state['cache_hits']} hits, "
            f"{state['cache_misses']} misses for {len(keys)} points)"
            for key in keys]
    records = result["records"]
    if [record["key"] for record in records] != keys:
        return len(keys), [f"{key}: points out of order" for key in keys]
    failures = []
    for key, record in zip(keys, records):
        if "error" in record:
            failures.append(f"{key}: raised {record['error']}")
            continue
        outputs = record["outputs"]
        problems = _invariant_failures(key, outputs, reference)
        want = reference["points"].get(key)
        if want is not None:
            problems += _differences(outputs, want)
        first = seen.setdefault(key, outputs)
        if first is not outputs:
            problems += [f"differs from repetition 1: {p}"
                         for p in _differences(outputs, first)]
        if problems:
            failures.append(f"{key}: " + "; ".join(problems))
    return len(keys), failures
