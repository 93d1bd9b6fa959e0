"""Attribute profiler self time to the simulator's layers.

A traced repetition runs under ``cProfile``; every function's self time
(``tottime``) is charged to the layer that owns its source file, so the
layer self times sum to the profiled wall time.  The call counts of a few
hot functions are read from the same profile.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

#: Every layer a self time can be charged to, in report order.
LAYERS = ("memory", "node", "sim", "network.link", "network.crossbar",
          "network.qos", "network.routing", "network.topo",
          "network.message", "ni", "msg", "bench", "parallel", "obs",
          "misc", "other")

#: ``repro`` packages that are one layer each.  ``cpu`` (the compute
#: charge model) and ``core`` (the machine presets whose ``node()``
#: builds nodes) count as the node layer.
_PACKAGES = {"memory": "memory", "node": "node", "cpu": "node",
             "core": "node", "sim": "sim", "ni": "ni", "msg": "msg",
             "bench": "bench", "parallel": "parallel", "obs": "obs"}

#: ``repro.network`` modules, split by role.
_NETWORK = {"link.py": "network.link", "transceiver.py": "network.link",
            "crossbar.py": "network.crossbar", "qos.py": "network.qos",
            "routing.py": "network.routing",
            "message.py": "network.message"}

#: Functions whose call counts are reported: (file suffix, name) -> metric.
CALL_COUNTS = {
    ("memory/mp.py", "access"): "memory.access_calls",
    ("sim/stats.py", "incr"): "sim.counter_incr_calls",
    ("sim/engine.py", "process"): "sim.process_calls",
}


def layer_of(filename: str, repro_dir: str) -> str:
    """The layer a source file belongs to.

    Files outside the ``repro`` package (the standard library, numpy,
    builtins and the benchmark's own code) are ``other``; ``repro``
    modules outside the named layers (``faults``, ``comparators``, the
    CLI, ...) are ``misc``.
    """
    path = os.path.normpath(filename)
    if not path.startswith(repro_dir + os.sep):
        return "other"
    parts = os.path.relpath(path, repro_dir).split(os.sep)
    if len(parts) == 1:
        return "parallel" if parts[0] == "atomicio.py" else "misc"
    if parts[0] == "network":
        return _NETWORK.get(parts[1], "network.topo")
    return _PACKAGES.get(parts[0], "misc")


def aggregate(stats: Dict[Tuple[str, int, str], tuple],
              repro_dir: str) -> Dict[str, float]:
    """Layer self times and call counts from ``pstats.Stats(...).stats``."""
    repro_dir = os.path.normpath(repro_dir)
    result: Dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    result.update({metric: 0 for metric in CALL_COUNTS.values()})
    for (filename, _, func), (_, ncalls, tottime, _, _) in stats.items():
        layer = layer_of(filename, repro_dir)
        result[f"{layer}.self_s"] += tottime
        if layer == "other":
            continue
        for (suffix, name), metric in CALL_COUNTS.items():
            if func == name and filename.replace(os.sep, "/").endswith(
                    "/" + suffix):
                result[metric] += ncalls
    return result
