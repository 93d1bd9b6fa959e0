"""The benchmark's workloads: seeded inputs, sweep point tasks and bodies.

``make_inputs(workload, seed)`` is pure Python and imports nothing from
``repro``: the orchestrator draws every input from the seed and hands the
worker process only the generated inputs.  The point tasks and bodies
drive the simulator through its public entry points only —
``spec.node`` + ``run_matmult``, ``build_cluster_world`` +
``measure_point``, ``build_topology_world`` + ``run_load``,
``run_sweep`` and ``observe`` — and wrap each call in a benchmark span.

Every seed draws inputs of (nearly) the same cost, so the host time of a
run does not depend on which seed it was given:

* matrix sizes come in mirrored pairs ``(n, lo + hi - n)`` from a band,
  so a pair's cost moves only to second order in the draw;
* the traffic seed only moves the hotspot class's Poisson arrival times.
"""

from __future__ import annotations

import functools
import random
from typing import Any, Callable, Dict, List, Tuple

from spans import SPANS

WORKLOADS = ("smp_replay", "traffic_contended", "observed_mix")

#: Figure-8 cells: the PowerMANNA node and the PC-180 bus node.
SMP_MACHINES = ("powermanna", "pc180")
SMP_VERSIONS = ("naive", "transposed")
SMP_SCALE = 16
#: In-cache sizes run in full; row-sampled sizes replay ``SAMPLE_ROWS``.
IN_CACHE_BAND = tuple(range(19, 24))
SAMPLED_BAND = tuple(range(50, 59))
SAMPLE_ROWS = (2, 3)
#: The observed cells are PowerMANNA naive: OBS forces the reference path.
OBSERVED_BAND = tuple(range(16, 19))

CLUSTER_NODES = 8
#: Fig. 9 latency sweep of the observed workload.
FIG9_SIZES = (8, 16, 32, 64, 128, 256, 512, 1024)

#: One open-loop load point on the 128-node manna fabric.
TRAFFIC_TOPOLOGY = {"kind": "manna", "params": {}}
TRAFFIC_LOAD = 0.8
TRAFFIC_MESSAGES = 4
TRAFFIC_MESSAGE_BYTES = 1024
TRAFFIC_QOS = {
    "arbiter": "wdrr",
    "classes": [
        {"name": "urgent", "priority": 0, "weight": 4, "rate_mb_s": None,
         "burst_bytes": 4096},
        {"name": "bulk", "priority": 1, "weight": 1, "rate_mb_s": None,
         "burst_bytes": 4096},
    ],
    "quantum_bytes": 1024,
}
TRAFFIC_MIX = {
    "urgent": {"pattern": "incast", "fraction": 0.2, "burst_len": 8,
               "senders": "odd"},
    "bulk": {"pattern": "hotspot", "fraction": 0.8, "burst_len": 8,
             "senders": "even"},
}


def cell_inputs(machine: str, version: str, n: int,
                sampled: bool) -> Dict[str, Any]:
    """The config of one smp cell."""
    return {"machine": machine, "version": version, "n": n,
            "sample_rows": list(SAMPLE_ROWS) if sampled else None,
            "scale": SMP_SCALE}


def _pair(rng: random.Random) -> List[int]:
    return rng.sample(range(CLUSTER_NODES), 2)


def _mirrored(rng: random.Random, band: Tuple[int, ...]) -> Tuple[int, int]:
    n = rng.choice(band)
    return n, band[0] + band[-1] - n


def make_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """The JSON-ready inputs ``workload`` runs for ``seed``."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "smp_replay":
        cells = []
        for version in SMP_VERSIONS:
            for band, sampled in ((IN_CACHE_BAND, False),
                                  (SAMPLED_BAND, True)):
                sizes = _mirrored(rng, band)
                cells += [cell_inputs(machine, version, n, sampled)
                          for machine, n in zip(SMP_MACHINES, sizes)]
        return {"cells": cells}
    if workload == "traffic_contended":
        return {"topology": TRAFFIC_TOPOLOGY, "qos": TRAFFIC_QOS,
                "mix": TRAFFIC_MIX, "load": TRAFFIC_LOAD,
                "messages": TRAFFIC_MESSAGES,
                "message_bytes": TRAFFIC_MESSAGE_BYTES,
                "plan_seed": rng.randrange(2**31)}
    if workload == "observed_mix":
        return {"cells": [cell_inputs("powermanna", "naive", n, False)
                          for n in _mirrored(rng, OBSERVED_BAND)],
                "pair": _pair(rng), "sizes": list(FIG9_SIZES)}
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose from {WORKLOADS}")


# -- reference keys -------------------------------------------------------------


def cell_key(cell: Dict[str, Any]) -> str:
    sampled = "sampled" if cell["sample_rows"] else "full"
    return f"smp:{cell['machine']}:{cell['version']}:{cell['n']}:{sampled}"


def comm_key(metric: str, nbytes: int) -> str:
    return f"comm:{metric}:{nbytes}"


def traffic_key(plan_seed: int) -> str:
    return f"traffic:{plan_seed}"


def point_keys(workload: str, inputs: Dict[str, Any]) -> List[str]:
    """The keys of the points one body runs, in run order."""
    if workload == "smp_replay":
        return [cell_key(cell) for cell in inputs["cells"]]
    if workload == "traffic_contended":
        return [traffic_key(inputs["plan_seed"])]
    if workload == "observed_mix":
        return ([cell_key(cell) for cell in inputs["cells"]]
                + [comm_key("latency", n) for n in inputs["sizes"]])
    raise ValueError(f"unknown workload {workload!r}")


# -- point tasks (module-level: run_sweep may pickle them) ---------------------


def _link_totals(world) -> Tuple[int, int]:
    """(flits carried by every link, payload bytes injected by nodes)."""
    fabric = world.fabric
    links = [link for xbar in fabric.crossbars.values()
             for link in xbar.output_links if link is not None]
    injected = [a.tx_link for a in fabric.attachments.values()]
    flits = sum(link.stats["flits"] for link in links + injected)
    return flits, sum(link.stats["bytes"] for link in injected)


def _collisions(world) -> int:
    return sum(xbar.stats["collisions"]
               for xbar in world.fabric.crossbars.values())


def _point(task: Callable) -> Callable:
    """Run a point task inside a ``point`` span."""
    @functools.wraps(task)
    def spanned(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
        with SPANS.span("point"):
            return task(config, seed)
    return spanned


@_point
def smp_cell_task(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One Figure-8 cell: MatMult on 1 CPU and on all CPUs of fresh nodes."""
    from repro.bench.matmult import run_matmult
    from repro.core.specs import machine

    spec = machine(config["machine"])
    rows = config["sample_rows"]
    rows = tuple(rows) if rows else None
    runs, nodes = [], []
    for cpus in (1, spec.num_cpus):
        with SPANS.span("build", what="node"):
            node = spec.node(scale=config["scale"])
        with SPANS.span("replay"):
            runs.append(run_matmult(node, config["n"], config["version"],
                                    cpus=cpus, sample_rows=rows,
                                    machine_key=spec.key))
        nodes.append(node)
    stats = [node.memory.stats for node in nodes]
    single, dual = runs
    outputs = {
        "speedup": spec.num_cpus * single.elapsed_ns / dual.elapsed_ns,
        "single_elapsed_ns": single.elapsed_ns,
        "dual_elapsed_ns": dual.elapsed_ns,
        "memory.l2_hits": sum(s["l2_hits"] for s in stats),
        "memory.bus_ops": sum(s["memory_accesses"] + s["upgrades"]
                              + s["c2c_transfers"] for s in stats),
        "memory.tlb_misses": sum(s["tlb_misses"] for s in stats),
    }
    refs = sum(tlb.stats["hits"] + tlb.stats["misses"]
               for node in nodes for tlb in node.memory.tlbs)
    return {"outputs": outputs, "counters": {"memory.trace_refs": refs}}


@_point
def comm_point_task(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One Fig. 9-12 point on a fresh 8-node cluster world."""
    from repro.bench.microbench import measure_point, metric_value
    from repro.msg.api import build_cluster_world

    metric = config["metric"]
    with SPANS.span("build", what="world"):
        sim, world = build_cluster_world()
    a, b = config["pair"]
    with SPANS.span("measure"):
        point = measure_point(world, a, b, config["nbytes"], metric)
    flits, injected = _link_totals(world)
    outputs = {metric: metric_value(point, metric),
               "network.link.flits": flits,
               "network.crossbar.collisions": _collisions(world)}
    return {"outputs": outputs,
            "counters": {"sim.events": sim.events_processed,
                         "injected_bytes": injected}}


@_point
def traffic_point_task(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One classed open-loop load point on a fresh topology world."""
    from repro.bench.traffic import ClassTraffic, run_load
    from repro.msg.api import build_topology_world
    from repro.network.crossbar import CrossbarConfig
    from repro.network.qos import QosConfig
    from repro.network.topo import TopologySpec

    qos = QosConfig.from_dict(config["qos"])
    mix = {name: ClassTraffic.from_dict(d)
           for name, d in config["mix"].items()}
    with SPANS.span("build", what="world"):
        sim, world = build_topology_world(
            TopologySpec.from_dict(config["topology"]),
            crossbar_config=CrossbarConfig(qos=qos))
    with SPANS.span("load"):
        result = run_load(world, qos=qos, mix=mix, load=config["load"],
                          messages=config["messages"],
                          message_bytes=config["message_bytes"],
                          seed=config["plan_seed"])
    flits, injected = _link_totals(world)
    outputs = {"elapsed_ns": result.elapsed_ns,
               "network.link.flits": flits,
               "network.crossbar.collisions": result.collisions}
    for cls in result.classes:
        outputs[f"{cls.name}.messages"] = cls.messages
        outputs[f"{cls.name}.goodput_mb_s"] = cls.goodput_mb_s
        outputs[f"{cls.name}.p50_ns"] = cls.latency_p50_ns
        outputs[f"{cls.name}.p99_ns"] = cls.latency_p99_ns
    return {"outputs": outputs,
            "counters": {"sim.events": sim.events_processed,
                         "injected_bytes": injected}}


# -- bodies ---------------------------------------------------------------------


def _sweep(sweep_id: str, points, task, modules, state) -> List[Dict]:
    """One cold, cached, journaled ``run_sweep`` — the CLI's defaults."""
    from repro.parallel import (PoisonedSweepError, ResultCache,
                                SuperviseConfig, run_sweep)

    cache = ResultCache(state["cache_dir"])
    supervise = SuperviseConfig(journal_dir=state["journal_dir"])
    with SPANS.span("sweep"):
        try:
            outcomes = run_sweep(sweep_id, points, task, jobs=1, cache=cache,
                                 modules=modules, supervise=supervise)
        except PoisonedSweepError as exc:
            outcomes = exc.outcomes
    state["cache_hits"] += cache.hits
    state["cache_misses"] += cache.misses
    with open(supervise.journal_path_used, encoding="utf-8") as handle:
        state["journal_records"] += sum(1 for _ in handle)
    return [{"key": key, "error": outcome.error or "point failed"}
            if outcome.failed else dict(outcome.value, key=key)
            for (key, _), outcome in zip(points, outcomes)]


def _cell_points(cells) -> list:
    return [(cell_key(cell), cell) for cell in cells]


def _comm_points(pair, points) -> list:
    return [(comm_key(p["metric"], p["nbytes"]), dict(p, pair=list(pair)))
            for p in points]


def run_body(workload: str, inputs: Dict[str, Any],
             state: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Run one workload's timed body; returns one record per point."""
    from repro.bench.hint import NODE_SWEEP_MODULES
    from repro.bench.microbench import COMM_SWEEP_MODULES
    from repro.bench.traffic import TRAFFIC_SWEEP_MODULES

    if workload == "smp_replay":
        return _sweep("perfbench:smp", _cell_points(inputs["cells"]),
                      smp_cell_task, NODE_SWEEP_MODULES, state)
    if workload == "traffic_contended":
        return _sweep("perfbench:traffic",
                      [(traffic_key(inputs["plan_seed"]), inputs)],
                      traffic_point_task, TRAFFIC_SWEEP_MODULES, state)
    if workload == "observed_mix":
        from repro.obs import observe

        latency = [{"metric": "latency", "nbytes": n}
                   for n in inputs["sizes"]]
        with observe() as session:
            records = _sweep("perfbench:observed_cells",
                             _cell_points(inputs["cells"]), smp_cell_task,
                             NODE_SWEEP_MODULES, state)
            records += _sweep("perfbench:observed_fig9",
                              _comm_points(inputs["pair"], latency),
                              comm_point_task, COMM_SWEEP_MODULES, state)
        state["obs.metric_series"] = len(session.metrics)
        state["obs.spans"] = len(session.tracer)
        return records
    raise ValueError(f"unknown workload {workload!r}")


def build_setup(workload: str) -> None:
    """The node/world/fabric constructor calls a workload's set-up pays."""
    from repro.core.specs import machine
    from repro.msg.api import build_cluster_world, build_topology_world
    from repro.network.crossbar import CrossbarConfig
    from repro.network.qos import QosConfig
    from repro.network.topo import TopologySpec

    if workload in ("smp_replay", "observed_mix"):
        for key in SMP_MACHINES:
            machine(key).node(scale=SMP_SCALE)
    if workload == "observed_mix":
        build_cluster_world()
    if workload == "traffic_contended":
        build_topology_world(
            TopologySpec.from_dict(TRAFFIC_TOPOLOGY),
            crossbar_config=CrossbarConfig(
                qos=QosConfig.from_dict(TRAFFIC_QOS)))
