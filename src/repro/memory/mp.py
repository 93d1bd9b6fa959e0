"""Multiprocessor memory timing: shared-bus versus switched fabrics.

This module answers the Figure-8 question (does MatMult scale to both
processors of a node?) and the ref-[4] design question (how many MPC620s
fit on one node?).  The three machines differ in how the address and data
paths are organised:

* **PowerMANNA** (``FabricKind.SWITCHED``): the ADSP bus switch gives every
  device a point-to-point data path; split transactions let data phases of
  different CPUs proceed in parallel.  Only the snoop **address phases**
  are serial — per the MPC620 protocol — and the interleaved DRAM banks
  are shared.
* **SUN UE/Ultra-I** (``FabricKind.SPLIT_BUS``): a packet-switched data bus
  (UPA-like); address phases serial, the single data bus is occupied only
  for the data packet itself.
* **Pentium II PC** (``FabricKind.SHARED_BUS``): one GTL+ bus carries both
  address and data phases; a memory transaction holds the data path for
  DRAM access *and* transfer.

The simulation is conservative-time: CPU access streams are merged in
global issue-time order and shared resources use next-free bookkeeping.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

import numpy as np

from repro.memory import vec
from repro.memory.cache import AccessType, Cache, MESIState
from repro.memory.dram import InterleavedDram
from repro.memory.hierarchy import HierarchyConfig, ServiceLevel
from repro.memory.mesi import BusOp, CoherenceDomain
from repro.memory.snoop import AddressPhaseSequencer, SnoopConfig
from repro.memory.tlb import Tlb
from repro.obs import OBS
from repro.sim.stats import Counter


class FabricKind(enum.Enum):
    SWITCHED = "switched"
    SPLIT_BUS = "split_bus"
    SHARED_BUS = "shared_bus"


@dataclass(frozen=True)
class FabricConfig:
    """Node-fabric organisation and timing.

    Attributes:
        kind: address/data path organisation (see module docstring).
        snoop: serial address-phase timing.
        data_bus_mb_s: bandwidth of the shared data path (bus fabrics).
        c2c_transfer_mb_s: cache-to-cache intervention bandwidth.
        c2c_latency_ns: fixed cost of an intervention before data flows.
    """

    kind: FabricKind
    snoop: SnoopConfig
    data_bus_mb_s: float = 480.0
    c2c_transfer_mb_s: float = 480.0
    c2c_latency_ns: float = 50.0


class _ChannelTimer:
    """Next-free bookkeeping for one serial channel."""

    def __init__(self, name: str):
        self.name = name
        self._next_free = 0.0
        self.busy_ns = 0.0
        self.grants = 0

    def occupy(self, now_ns: float, duration_ns: float) -> Tuple[float, float]:
        start = max(now_ns, self._next_free)
        done = start + duration_ns
        self._next_free = done
        self.busy_ns += duration_ns
        self.grants += 1
        return start, done

    def reset(self) -> None:
        self._next_free = 0.0
        self.busy_ns = 0.0
        self.grants = 0


@dataclass(frozen=True)
class MpAccessOutcome:
    """Latency decomposition of one access on the SMP node."""

    latency_ns: float
    level: ServiceLevel
    queueing_ns: float = 0.0  # time lost to address-phase/bus contention


class MultiprocessorMemory:
    """N private L1/L2 stacks over one coherent node fabric."""

    def __init__(self, config: HierarchyConfig, num_cpus: int,
                 fabric: FabricConfig, name: str = "node"):
        if num_cpus < 1:
            raise ValueError(f"need at least one CPU, got {num_cpus}")
        self.config = config
        self.fabric = fabric
        self.num_cpus = num_cpus
        self.name = name
        self.l1s = [Cache(config.l1, name=f"{name}.cpu{i}.l1", level="l1")
                    for i in range(num_cpus)]
        self.l2s = [Cache(config.l2, name=f"{name}.cpu{i}.l2", level="l2")
                    for i in range(num_cpus)]
        self.tlbs = [Tlb(config.tlb, name=f"{name}.cpu{i}.tlb")
                     for i in range(num_cpus)]
        self.domain = CoherenceDomain(self.l2s)
        self.dram = InterleavedDram(config.dram, name=f"{name}.dram")
        self.sequencer = AddressPhaseSequencer(fabric.snoop, name=f"{name}.snoop")
        self.data_bus = _ChannelTimer(f"{name}.databus")
        self.stats = Counter(name)

    # -- single access ---------------------------------------------------------

    def access(self, cpu: int, now_ns: float, addr: int,
               access: AccessType = AccessType.READ) -> MpAccessOutcome:
        line = self.config.l1.line_bytes
        l1 = self.l1s[cpu]
        is_write = access == AccessType.WRITE

        translation_ns = 0.0
        if not self.tlbs[cpu].access(addr):
            translation_ns = self.config.tlb_miss_ns
            self.stats.incr("tlb_misses")

        l1_state = l1.state_of(addr)
        if l1_state != MESIState.INVALID:
            # L1 hit.  A write to a line SHARED at L2 still needs the
            # upgrade address phase; everything else is core-private.
            if is_write and self.l2s[cpu].state_of(addr) == MESIState.SHARED:
                return self._upgrade_hit(cpu, now_ns, addr)
            l1.access(addr, access)
            if is_write:
                # Keep L2's view of dirtiness in sync for remote snoops.
                self.l2s[cpu].access(addr, AccessType.WRITE)
            self.stats.incr("l1_hits")
            return MpAccessOutcome(translation_ns + self.config.l1_hit_ns,
                                   ServiceLevel.L1)

        # L1 miss: victim goes to L2, then the coherent L2-level access.
        latency = translation_ns + self.config.l1_hit_ns
        l1_result = l1.access(addr, access)
        if l1_result.writeback is not None:
            self.l2s[cpu].access(l1_result.writeback, AccessType.WRITE)

        outcome = self.domain.access(cpu, addr, access)
        self._repair_l1_inclusion(addr)

        if outcome.bus_op is None:
            # Clean L2 hit.
            self.stats.incr("l2_hits")
            return MpAccessOutcome(latency + self.config.l2_hit_ns, ServiceLevel.L2)

        # Any bus op serialises through the address-phase sequencer.
        issue = now_ns + latency + self.config.l2_hit_ns
        grant, phase_done = self.sequencer.occupy(issue)
        queueing = grant - issue
        latency += self.config.l2_hit_ns + (phase_done - issue)

        if outcome.bus_op == BusOp.UPGRADE:
            self.stats.incr("upgrades")
            return MpAccessOutcome(latency, ServiceLevel.L2, queueing_ns=queueing)

        # Data phase: remote cache or DRAM.
        if outcome.supplied_by is not None:
            self.stats.incr("c2c_transfers")
            transfer = line * 1e3 / self.fabric.c2c_transfer_mb_s
            dur = self.fabric.c2c_latency_ns + transfer
            start, done = self._occupy_data_path(phase_done, dur, dram_addr=None)
            queueing += start - phase_done
            latency += done - phase_done
            level = ServiceLevel.REMOTE_CACHE
        else:
            self.stats.incr("memory_accesses")
            start, done = self._memory_fetch(phase_done, addr, line)
            queueing += start - phase_done
            latency += done - phase_done
            level = ServiceLevel.MEMORY

        for wb in outcome.writebacks:
            # Writebacks drain off the critical path but consume bandwidth.
            self._memory_fetch(phase_done, wb, line)
            self.stats.incr("writebacks")
        return MpAccessOutcome(latency, level, queueing_ns=queueing)

    def _upgrade_hit(self, cpu: int, now_ns: float, addr: int) -> MpAccessOutcome:
        issue = now_ns + self.config.l1_hit_ns
        grant, done = self.sequencer.occupy(issue)
        self.domain.access(cpu, addr, AccessType.WRITE)
        self._repair_l1_inclusion(addr)
        self.l1s[cpu].access(addr, AccessType.WRITE)
        self.stats.incr("upgrades")
        return MpAccessOutcome(self.config.l1_hit_ns + (done - issue),
                               ServiceLevel.L2, queueing_ns=grant - issue)

    def _repair_l1_inclusion(self, addr: int) -> None:
        """Invalidate L1 copies whose L2 line vanished or lost write rights."""
        for l1, l2 in zip(self.l1s, self.l2s):
            l2_state = l2.state_of(addr)
            if l2_state == MESIState.INVALID:
                l1.snoop_invalidate(addr)
            elif l2_state == MESIState.SHARED:
                l1.snoop_downgrade(addr)

    # -- fabric-specific data-path timing -----------------------------------------

    def _memory_fetch(self, ready_ns: float, addr: int, nbytes: int,
                      ) -> Tuple[float, float]:
        """Route a line fetch over the fabric; returns (start, done)."""
        kind = self.fabric.kind
        if kind == FabricKind.SWITCHED:
            # Point-to-point path; only DRAM banks are shared.
            done = self.dram.service(ready_ns, addr, nbytes)
            return ready_ns, done
        transfer = nbytes * 1e3 / self.fabric.data_bus_mb_s
        if kind == FabricKind.SPLIT_BUS:
            # Bus occupied for the data packet only; DRAM latency overlaps.
            done_mem = self.dram.service(ready_ns, addr, nbytes)
            start, done = self.data_bus.occupy(done_mem - transfer, transfer)
            return start, max(done, done_mem)
        # SHARED_BUS: the transaction holds the bus across DRAM access.
        access = self.config.dram.access_ns
        start, done = self.data_bus.occupy(ready_ns, access + transfer)
        self.dram.service(start, addr, nbytes)
        return start, done

    def _occupy_data_path(self, ready_ns: float, duration_ns: float,
                          dram_addr: Optional[int]) -> Tuple[float, float]:
        if self.fabric.kind == FabricKind.SWITCHED:
            return ready_ns, ready_ns + duration_ns
        return self.data_bus.occupy(ready_ns, duration_ns)

    def reset(self) -> None:
        for cache in self.l1s + self.l2s:
            cache.invalidate_all()
            cache.reset_stats()
        for tlb in self.tlbs:
            tlb.flush()
            tlb.reset_stats()
        self.reset_timing()
        self.stats.reset()
        self.domain.stats.reset()

    def reset_timing(self) -> None:
        """Start a fresh timing epoch: clear next-free bookkeeping of the
        shared resources while keeping all cache contents.

        Trace replays start their local clocks at zero, so successive
        replays on one node (e.g. a cache-warming pass followed by a
        measured pass) must not inherit stale bank/bus reservation times.
        """
        self.dram.reset()
        self.sequencer.reset()
        self.data_bus.reset()


@dataclass(frozen=True)
class TraceStep:
    """One unit of CPU work: ``compute_ns`` of execution then one access."""

    compute_ns: float
    addr: int
    access: AccessType = AccessType.READ


StallModel = Callable[[float, float], float]
"""Maps (memory_latency_ns, preceding_compute_ns) -> CPU stall ns."""


@dataclass
class CpuRunResult:
    finish_ns: float
    steps: int
    compute_ns: float
    stall_ns: float
    queueing_ns: float


def run_interleaved(memory: MultiprocessorMemory,
                    traces: Sequence[Iterable[TraceStep]],
                    stall_models: Sequence[StallModel],
                    ) -> List[CpuRunResult]:
    """Run one access stream per CPU, merged in global issue-time order.

    Each CPU's local clock advances by ``compute_ns`` plus the stall its
    stall model derives from the access latency.  Shared-resource
    next-free bookkeeping stays causally correct because the merge always
    services the earliest pending access.
    """
    if len(traces) != len(stall_models):
        raise ValueError("need one stall model per trace")
    if len(traces) > memory.num_cpus:
        raise ValueError(
            f"{len(traces)} traces for a {memory.num_cpus}-CPU node")

    iterators: List[Iterator[TraceStep]] = [iter(t) for t in traces]
    results = [CpuRunResult(0.0, 0, 0.0, 0.0, 0.0) for _ in traces]
    local = [0.0] * len(traces)
    heap: List[Tuple[float, int, TraceStep]] = []

    def push(cpu: int) -> None:
        step = next(iterators[cpu], None)
        if step is not None:
            heapq.heappush(heap, (local[cpu] + step.compute_ns, cpu, step))

    for cpu in range(len(traces)):
        push(cpu)

    while heap:
        issue, cpu, step = heapq.heappop(heap)
        outcome = memory.access(cpu, issue, step.addr, step.access)
        if OBS.enabled:
            OBS.metrics.observe("mem.access_ns", outcome.latency_ns,
                                node=memory.name,
                                level=outcome.level.name.lower())
        stall = stall_models[cpu](outcome.latency_ns, step.compute_ns)
        local[cpu] = issue + stall
        res = results[cpu]
        res.steps += 1
        res.compute_ns += step.compute_ns
        res.stall_ns += stall
        res.queueing_ns += outcome.queueing_ns
        res.finish_ns = local[cpu]
        push(cpu)
    return results


# ---------------------------------------------------------------------------
# Batch replay fast paths
# ---------------------------------------------------------------------------
#
# Replaying an address trace through ``run_interleaved`` costs one TraceStep
# dataclass, one AccessResult, one MpAccessOutcome, two MESIState
# constructions and several Counter dict updates per reference.
# ``replay_traces`` avoids that with two engines that keep the reference's
# semantics exactly:
#
# * one trace: the vectorized engine in ``repro.memory.vec``, which
#   replays the whole trace as array passes;
# * several traces, or one whose preconditions ``vec`` rejects (SHARED
#   lines resident, a warm sibling CPU, an address outside int64): the
#   merged scalar loop ``_replay_fast_merged``.
#
# The scalar loop keeps the two commonest cases entirely inside one loop
# frame:
#
# * a private L1 hit (a write needs its L2 line in E/M);
# * an L1 miss refilled by the CPU's own E/M L2 line, with no bus op: the
#   TLB step, the LRU victim (written back into L2 when dirty), the L2 LRU
#   refresh or upgrade to M, the coherence-domain hit and the inclusion
#   repair, which invalidates the line in every other L1 of the node (MESI
#   leaves no other L2 holding a line this CPU owns in E/M).
#
# L1 and L2 share the line size (``HierarchyConfig`` enforces it), so one
# precomputed tag indexes both; the L1/L2/TLB dicts are touched directly
# (same dict-order LRU as ``Cache.access``), and the counters accumulate in
# locals that ``_flush_replay_counters`` folds into the real ``Counter``
# objects once per replay.  Everything else — bus ops, SHARED lines and
# inclusion breaches (a written L1 line whose L2 line is gone, a dirty L1
# victim whose L2 line is not MODIFIED) — falls through to
# ``MultiprocessorMemory.access`` untouched, *before* any state is mutated,
# so the replay is access-for-access identical to the reference path: same
# counters, same LRU order, same float operation order, hence bit-identical
# timing.  Array traces reach the loop through ``iter_refs``, ``_CHUNK``
# references at a time.
#
# Under observability both engines also leave the metrics registry as the
# reference leaves it.  ``fold_replay_counts`` turns their local counts
# into the ``cache.*``/``tlb.*``/``coherence.bus_op`` series the reference
# bumps one access at a time (accesses that fall through to
# ``MultiprocessorMemory.access`` report their own), and
# ``observe_latencies`` feeds ``mem.access_ns`` each level's latencies in
# access order.

_CHUNK = 1024

_SHARED_INT = int(MESIState.SHARED)
_EXCLUSIVE_INT = int(MESIState.EXCLUSIVE)
_MODIFIED_INT = int(MESIState.MODIFIED)


def iter_refs(trace) -> Iterator[Tuple[int, AccessType]]:
    """Adapt a trace to ``(int, AccessType)`` pairs for the scalar loops.

    Structured ``(addr, is_write)`` arrays (see ``repro.memory.trace_gen``
    array emitters) convert ``_CHUNK`` references at a time, so a long
    trace never exists as one list of Python objects; INSTR collapses to
    READ, as everywhere else.  Plain iterables pass through.
    """
    if not isinstance(trace, np.ndarray):
        yield from trace
        return
    read = AccessType.READ
    write = AccessType.WRITE
    for start in range(0, len(trace), _CHUNK):
        part = trace[start:start + _CHUNK]
        yield from zip(part["addr"].tolist(),
                       [write if w else read
                        for w in part["is_write"].tolist()])


def _try_vec(memory, trace, compute_ns, stall):
    """Replay one trace through the vectorized engine.

    Returns ``(result, trace)``; ``result`` is ``None`` when the engine's
    preconditions do not hold, and ``trace`` then still holds every
    reference for the scalar loop.  A one-shot iterator is materialised
    first, since a coercion that fails partway would have consumed it.
    """
    if iter(trace) is trace:
        trace = list(trace)
    try:
        arr = vec.coerce_trace(trace)
    except (OverflowError, ValueError):
        return None, trace
    return vec.replay_traces_vec(memory, arr, compute_ns, stall), arr


def replay_traces(memory: MultiprocessorMemory,
                  traces: Sequence[Iterable[Tuple[int, AccessType]]],
                  compute_ns: float,
                  stall_models: Sequence[StallModel],
                  use_fast_path: bool = True) -> List[CpuRunResult]:
    """Replay raw ``(addr, AccessType)`` streams, one per CPU.

    Semantically identical to wrapping each stream in
    :class:`TraceStep` objects (with uniform ``compute_ns``) and calling
    :func:`run_interleaved`; ``use_fast_path=False`` forces exactly that,
    and is the reference implementation the equivalence tests compare
    against.

    The default fast path replays a single trace through the vectorized
    engine in :mod:`repro.memory.vec`.  Several traces, or one the engine
    cannot take (SHARED lines resident, a warm sibling CPU, an address
    outside int64), go through the merged scalar loop, which resolves
    private L1 hits and L1 misses refilled from the CPU's own E/M L2 line
    itself; only bus ops, SHARED lines and inclusion breaches reach
    :meth:`MultiprocessorMemory.access`.  Every path accepts structured
    ``(addr, is_write)`` array traces as well as iterables.  Under
    ``OBS`` the fast engines still run, and leave the same ``cache.*``,
    ``tlb.*``, ``coherence.*`` and ``mem.access_ns`` series as the
    reference, the latency samples in access order.
    """
    if len(traces) != len(stall_models):
        raise ValueError("need one stall model per trace")
    if len(traces) > memory.num_cpus:
        raise ValueError(
            f"{len(traces)} traces for a {memory.num_cpus}-CPU node")
    if not use_fast_path:
        steps = [(TraceStep(compute_ns, addr, access)
                  for addr, access in iter_refs(t)) for t in traces]
        return run_interleaved(memory, steps, stall_models)
    if len(traces) == 1:
        result, trace = _try_vec(memory, traces[0], compute_ns,
                                 stall_models[0])
        if result is not None:
            return [result]
        traces = [trace]
    return _replay_fast_merged(memory, [iter_refs(t) for t in traces],
                               compute_ns, stall_models)


def _other_l1s(memory: MultiprocessorMemory, cpu: int):
    """``(sets, cache)`` of the L1 of every *other* CPU of the node."""
    return [(l1._sets, l1) for i, l1 in enumerate(memory.l1s) if i != cpu]


def _replay_fast_merged(memory: MultiprocessorMemory,
                        traces: Sequence[Iterable[Tuple[int, AccessType]]],
                        compute_ns: float,
                        stall_models: Sequence[StallModel],
                        ) -> List[CpuRunResult]:
    """The scalar replay loop: the two inlined cases over a merge heap of
    one or more traces."""
    config = memory.config
    l1_hit_ns = config.l1_hit_ns
    l2_hit_ns = config.l2_hit_ns
    tlb_miss_ns = config.tlb_miss_ns
    write_t = AccessType.WRITE
    shared = _SHARED_INT
    exclusive = _EXCLUSIVE_INT
    modified = _MODIFIED_INT

    l1_sets_by_cpu = [l1._sets for l1 in memory.l1s]
    l2_sets_by_cpu = [l2._sets for l2 in memory.l2s]
    tlb_by_cpu = [tlb._entries for tlb in memory.tlbs]
    line_shift = memory.l1s[0]._set_shift
    l1_mask = memory.l1s[0]._set_mask
    l1_ways = memory.l1s[0]._ways
    l2_mask = memory.l2s[0]._set_mask
    page_shift = memory.tlbs[0]._page_shift
    tlb_capacity = config.tlb.entries
    slow_access = memory.access
    observed = OBS.enabled
    latencies: Dict[ServiceLevel, List[float]] = {
        level: [] for level in ServiceLevel}
    l1_latencies = latencies[ServiceLevel.L1]
    l2_latencies = latencies[ServiceLevel.L2]

    n = len(traces)
    other_l1s_by_cpu = [_other_l1s(memory, cpu) for cpu in range(n)]
    iterators = [iter(t) for t in traces]
    local = [0.0] * n
    steps = [0] * n
    compute_total = [0.0] * n
    stall_total = [0.0] * n
    queueing_total = [0.0] * n
    counts = [[0] * 10 for _ in range(n)]  # see _flush_replay_counters

    heappush = heapq.heappush
    heappop = heapq.heappop
    heap: List[Tuple[float, int, int, AccessType]] = []
    for cpu in range(n):
        ref = next(iterators[cpu], None)
        if ref is not None:
            heappush(heap, (compute_ns, cpu, ref[0], ref[1]))

    while heap:
        issue, cpu, addr, access = heappop(heap)
        is_write = access is write_t
        tag = addr >> line_shift
        line_set = l1_sets_by_cpu[cpu][tag & l1_mask]
        state = line_set.get(tag)
        if state is None or is_write:
            l2_sets = l2_sets_by_cpu[cpu]
            l2_set = l2_sets[tag & l2_mask]
            l2_state = l2_set.get(tag)
            fast = l2_state == exclusive or l2_state == modified
            if fast and state is None:
                victim_tag = -1
                if len(line_set) >= l1_ways:
                    victim_tag = next(iter(line_set))
                    if line_set[victim_tag] == modified:
                        # A dirty victim must land on its (M) L2 line.
                        fast = (l2_sets[victim_tag & l2_mask].get(victim_tag)
                                == modified)
        else:
            fast = True

        if fast:
            c = counts[cpu]
            tlb_entries = tlb_by_cpu[cpu]
            page = addr >> page_shift
            if page in tlb_entries:
                del tlb_entries[page]
                tlb_entries[page] = None
                c[0] += 1
                translation = 0.0
            else:
                if len(tlb_entries) >= tlb_capacity:
                    del tlb_entries[next(iter(tlb_entries))]
                    c[2] += 1
                tlb_entries[page] = None
                c[1] += 1
                translation = tlb_miss_ns

            if state is not None:
                # --- private L1 hit -------------------------------------
                del line_set[tag]
                if is_write:
                    if state == shared:
                        c[5] += 1
                    line_set[tag] = modified
                    c[4] += 1
                    del l2_set[tag]
                    l2_set[tag] = modified
                else:
                    line_set[tag] = state
                    c[3] += 1
                latency = translation + l1_hit_ns
                if observed:
                    l1_latencies.append(latency)
                stall_ns = stall_models[cpu](latency, compute_ns)
            else:
                # --- L1 miss refilled by a private (E/M) L2 hit ---------
                if victim_tag >= 0:
                    if line_set.pop(victim_tag) == modified:
                        c[8] += 1
                        v_set = l2_sets[victim_tag & l2_mask]
                        del v_set[victim_tag]
                        v_set[victim_tag] = modified
                    else:
                        c[9] += 1
                del l2_set[tag]
                if is_write:
                    line_set[tag] = modified
                    c[7] += 1
                    l2_set[tag] = modified
                else:
                    line_set[tag] = exclusive
                    c[6] += 1
                    l2_set[tag] = l2_state
                for sets, other in other_l1s_by_cpu[cpu]:
                    if tag in sets[tag & l1_mask]:
                        other.snoop_invalidate(addr)
                latency = (translation + l1_hit_ns) + l2_hit_ns
                if observed:
                    l2_latencies.append(latency)
                stall_ns = stall_models[cpu](latency, compute_ns)
        else:
            # Bus op, SHARED line or inclusion breach: reference path.
            outcome = slow_access(cpu, issue, addr, access)
            if observed:
                latencies[outcome.level].append(outcome.latency_ns)
            stall_ns = stall_models[cpu](outcome.latency_ns, compute_ns)
            queueing_total[cpu] += outcome.queueing_ns
        now = issue + stall_ns
        local[cpu] = now
        steps[cpu] += 1
        compute_total[cpu] += compute_ns
        stall_total[cpu] += stall_ns
        ref = next(iterators[cpu], None)
        if ref is not None:
            heappush(heap, (now + compute_ns, cpu, ref[0], ref[1]))

    for cpu in range(n):
        _flush_replay_counters(memory, cpu, counts[cpu])
    if observed:
        observe_latencies(memory, latencies)
    return [CpuRunResult(finish_ns=local[cpu], steps=steps[cpu],
                         compute_ns=compute_total[cpu],
                         stall_ns=stall_total[cpu],
                         queueing_ns=queueing_total[cpu])
            for cpu in range(n)]


def _flush_replay_counters(memory: MultiprocessorMemory, cpu: int,
                           counts: Sequence[int]) -> None:
    """Fold one CPU's locally accumulated counts into the real stats.

    ``counts`` is ``(TLB hits, TLB misses, TLB evictions, L1 read hits,
    L1 write hits, L1 upgrades, L1 read misses, L1 write misses, L1
    writebacks, L1 clean evictions)``.  The two fast cases imply the
    rest: every L1 write and every dirty victim is an L2 write hit, and
    every refill (an L1 miss) is an L2 hit — a read hit for a read — plus
    one coherence-domain ``hit`` and one node ``l2_hits``.
    """
    (tlb_hits, tlb_misses, tlb_evictions, read_hits, write_hits, upgrades,
     read_misses, write_misses, writebacks, clean_evicts) = counts
    refills = read_misses + write_misses
    fold_replay_counts(
        memory, cpu,
        tlb={"hits": tlb_hits, "misses": tlb_misses,
             "evictions": tlb_evictions},
        l1={"read_hit": read_hits, "write_hit": write_hits,
            "upgrade": upgrades, "read_miss": read_misses,
            "write_miss": write_misses, "writeback": writebacks,
            "clean_evict": clean_evicts},
        l2={"write_hit": write_hits + write_misses + writebacks,
            "read_hit": read_misses},
        domain={"hit": refills},
        node={"tlb_misses": tlb_misses, "l1_hits": read_hits + write_hits,
              "l2_hits": refills},
        bus_ops={})


#: Cache and TLB stats keys the reference path also reports as labelled
#: metrics under OBS (``Cache.access``, ``Tlb.access``): key -> (metric,
#: labels beyond the structure's own).
_CACHE_SERIES = {
    "read_hit": ("cache.hit", {"op": "read"}),
    "write_hit": ("cache.hit", {"op": "write"}),
    "read_miss": ("cache.miss", {"op": "read"}),
    "write_miss": ("cache.miss", {"op": "write"}),
    "writeback": ("cache.writeback", {}),
}
_TLB_SERIES = {"hits": "tlb.hit", "misses": "tlb.miss"}


def fold_replay_counts(memory: MultiprocessorMemory, cpu: int,
                       tlb: Mapping[str, int], l1: Mapping[str, int],
                       l2: Mapping[str, int], domain: Mapping[str, int],
                       node: Mapping[str, int],
                       bus_ops: Mapping[BusOp, int]) -> None:
    """Fold a fast engine's counts for one CPU into the node's stats.

    Each mapping holds stats-key amounts for that CPU's TLB, L1, L2, the
    coherence domain and the node.  ``bus_ops`` counts the engine's own
    memory fetches per bus op; they are domain misses.  Under OBS the
    same amounts also go to the series the reference path feeds one
    access at a time: ``cache.*``, ``tlb.*`` and ``coherence.bus_op``.
    A zero amount touches nothing, so no series appears that the
    reference would not create.
    """
    caches = ((memory.l1s[cpu], l1), (memory.l2s[cpu], l2))
    for cache, amounts in caches:
        _add_counts(cache.stats, amounts)
    _add_counts(memory.tlbs[cpu].stats, tlb)
    _add_counts(memory.domain.stats,
                {**domain, "miss": sum(bus_ops.values())})
    _add_counts(memory.stats, node)
    if not OBS.enabled:
        return
    metrics = OBS.metrics
    for cache, amounts in caches:
        for key, (metric, labels) in _CACHE_SERIES.items():
            if amounts.get(key):
                metrics.incr(metric, amounts[key], cache=cache.name,
                             level=cache.level, **labels)
    for key, metric in _TLB_SERIES.items():
        if tlb.get(key):
            metrics.incr(metric, tlb[key], tlb=memory.tlbs[cpu].name)
    for op, amount in bus_ops.items():
        if amount:
            metrics.incr("coherence.bus_op", amount, op=op.value, cpu=cpu)


def observe_latencies(memory: MultiprocessorMemory,
                      latencies: Mapping[ServiceLevel, List[float]],
                      ) -> None:
    """Feed each level's access latencies, in access order, to the
    ``mem.access_ns`` series the reference observes per access."""
    for level, samples in latencies.items():
        if samples:
            OBS.metrics.histogram(
                "mem.access_ns", node=memory.name,
                level=level.name.lower()).hist.extend(samples)


def _add_counts(counter: Counter, amounts: Mapping[str, int]) -> None:
    for key, amount in amounts.items():
        if amount:
            counter.incr(key, amount)
