"""Fast-path vs. reference equivalence for the batch trace replay.

The merged scalar loop ``_replay_fast_merged`` — the default fast path
for several CPUs and the fallback for one — must be *access-for-access*
identical to the reference ``run_interleaved`` path: same hit/miss/
evict/upgrade/TLB counters, same float operation order (hence
bit-identical timing).  These property tests pin that over randomized
traces designed to hit every replay regime — L1 hits, SHARED-line write
upgrades, capacity misses, TLB thrashing — calling the loop directly on
one- and multi-CPU nodes, so the single-CPU cases test it even though
``replay_traces`` sends one trace to the vectorized engine, whose own
suite is ``test_vec_equivalence.py``.

A second group pins the DES side the same way: the seeded fig9 run must
produce an identical metrics snapshot run-to-run, so the pooled-event /
inlined-trigger engine fast paths cannot perturb the instrumented path.
"""

import random
from contextlib import nullcontext

import pytest

from repro.memory import mp
from repro.memory.cache import AccessType, CacheGeometry
from repro.memory.dram import DramConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.memory.mp import (
    FabricConfig,
    FabricKind,
    MultiprocessorMemory,
    _replay_fast_merged,
    replay_traces,
)
from repro.memory.snoop import SnoopConfig
from repro.memory.tlb import TlbConfig
from repro.obs import observe
from repro.sim.clock import Clock


def make_memory(cpus, tlb_miss_cycles=12.0):
    """A deliberately tiny node so short random traces still evict."""
    hierarchy = HierarchyConfig(
        cpu_clock=Clock(180.0),
        bus_clock=Clock(60.0),
        l1=CacheGeometry(1024, 64, 2),
        l2=CacheGeometry(4096, 64, 2),
        dram=DramConfig(num_banks=4, interleave_bytes=64,
                        access_ns=60.0, bandwidth_mb_s=640.0),
        tlb=TlbConfig(entries=8, page_bytes=4096,
                      miss_cycles=tlb_miss_cycles),
        l1_hit_cycles=1.0, l2_hit_cycles=6.0, bus_overhead_bus_cycles=4.0)
    fabric = FabricConfig(
        kind=FabricKind.SWITCHED,
        snoop=SnoopConfig(bus_clock=Clock(60.0), phase_cycles=3.0,
                          queue_depth=4),
        data_bus_mb_s=480.0, c2c_transfer_mb_s=480.0, c2c_latency_ns=50.0)
    return MultiprocessorMemory(hierarchy, cpus, fabric)


def random_trace(rng, length):
    """A mixed-regime access stream.

    Draws from a hot set (L1 hits), a shared region (cross-CPU MESI
    traffic), a wide span (misses/evictions) and many pages (TLB churn),
    with a read-heavy but write-significant mix.
    """
    hot = [rng.randrange(0, 2048) * 8 for _ in range(16)]
    trace = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.45:
            addr = rng.choice(hot)
        elif roll < 0.70:
            addr = rng.randrange(0, 4096) * 8  # shared region, all CPUs
        else:
            addr = rng.randrange(0, 1 << 22) & ~0x7  # wide span
        access = AccessType.WRITE if rng.random() < 0.3 else AccessType.READ
        trace.append((addr, access))
    return trace


def private_trace(rng, cpu):
    """A MatMult-like stream on one CPU's own address range.

    Each of 12 passes walks a 2.5 KiB warm array (larger than the 1 KiB
    L1, smaller than the 4 KiB L2) word by word with a quarter of the
    words written, then streams the next 1 KiB of a 16 KiB cold array.
    Warm-array L1 misses are refilled from the CPU's own E/M L2 lines,
    dirty L1 victims land in L2, and the cold stream evicts L2 lines
    (dirty ones too) — so every regime of a private replay runs, but no
    line is ever SHARED.
    """
    warm = (cpu + 1) << 24
    cold = warm + (1 << 16)
    trace = []
    for p in range(12):
        for offset in range(0, 2560, 8):
            write = rng.random() < 0.25
            trace.append((warm + offset,
                          AccessType.WRITE if write else AccessType.READ))
        for offset in range(0, 1024, 16):
            trace.append((cold + (p * 1024 + offset) % 16384,
                          AccessType.READ))
    return trace


def counters(memory):
    """Every counter the replay touches, per CPU, plus each cache's and
    TLB's resident entries in LRU order."""
    return {
        "l1": [l1.stats.as_dict() for l1 in memory.l1s],
        "l2": [l2.stats.as_dict() for l2 in memory.l2s],
        "tlb": [tlb.stats.as_dict() for tlb in memory.tlbs],
        "mem": memory.stats.as_dict(),
        "domain": memory.domain.stats.as_dict(),
        "l1_lines": [[list(s.items()) for s in l1._sets]
                     for l1 in memory.l1s],
        "l2_lines": [[list(s.items()) for s in l2._sets]
                     for l2 in memory.l2s],
        "tlb_pages": [list(tlb._entries) for tlb in memory.tlbs],
    }


def reference(memory, traces, compute_ns, stalls):
    return replay_traces(memory, traces, compute_ns, stalls,
                         use_fast_path=False)


def replay_logged(traces, compute_ns, engine, **node):
    """Replay on a fresh node; the counters also carry every latency the
    stall model saw, since a last-bit difference in one access's latency
    is lost once added to a large clock."""
    memory = make_memory(len(traces), **node)
    latencies = []

    def stall(latency, compute):
        latencies.append(latency)
        return latency

    results = engine(memory, [list(t) for t in traces], compute_ns,
                     [stall] * len(traces))
    return results, {**counters(memory), "latencies": latencies}


def run_traces_both(traces, compute_ns=5.0, **node):
    return (replay_logged(traces, compute_ns, _replay_fast_merged, **node),
            replay_logged(traces, compute_ns, reference, **node))


def run_both(cpus, seed, length=3000, compute_ns=5.0, **node):
    rng = random.Random(seed)
    return run_traces_both([random_trace(rng, length) for _ in range(cpus)],
                           compute_ns, **node)


def run_private(cpus, seed):
    rng = random.Random(seed)
    return run_traces_both([private_trace(rng, cpu) for cpu in range(cpus)])


class TestReplayFastPathEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 42])
    def test_single_cpu_identical(self, seed):
        (fast, fast_counts), (ref, ref_counts) = run_both(1, seed)
        assert fast == ref  # exact float equality, field for field
        assert fast_counts == ref_counts

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_two_cpus_identical(self, seed):
        (fast, fast_counts), (ref, ref_counts) = run_both(2, seed)
        assert fast == ref
        assert fast_counts == ref_counts

    @pytest.mark.parametrize("seed", [4, 13])
    def test_four_cpus_identical(self, seed):
        (fast, fast_counts), (ref, ref_counts) = run_both(4, seed)
        assert fast == ref
        assert fast_counts == ref_counts

    def test_access_counts_match_trace_length(self):
        (fast, fast_counts), _ = run_both(2, seed=9, length=500)
        for res in fast:
            assert res.steps == 500
        for l1_counts in fast_counts["l1"]:
            hits = (l1_counts.get("read_hit", 0)
                    + l1_counts.get("write_hit", 0))
            misses = (l1_counts.get("read_miss", 0)
                      + l1_counts.get("write_miss", 0))
            assert hits + misses == 500

    def test_all_regimes_exercised(self):
        """The random traces must actually cover the interesting paths —
        otherwise the equivalence assertions above prove nothing."""
        _, (_, ref_counts) = run_both(2, seed=0)
        l1_total = {}
        for counts in ref_counts["l1"]:
            for key, value in counts.items():
                l1_total[key] = l1_total.get(key, 0) + value
        tlb_total = {}
        for counts in ref_counts["tlb"]:
            for key, value in counts.items():
                tlb_total[key] = tlb_total.get(key, 0) + value
        for key in ("read_hit", "write_hit", "read_miss", "write_miss",
                    "upgrade", "writeback", "clean_evict"):
            assert l1_total.get(key, 0) > 0, f"trace never hit {key}"
        assert tlb_total.get("misses", 0) > 0
        assert tlb_total.get("hits", 0) > 0
        assert tlb_total.get("evictions", 0) > 0

    @pytest.mark.parametrize("cpus", [2, 4])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_private_regions_identical(self, cpus, seed):
        (fast, fast_counts), (ref, ref_counts) = run_private(cpus, seed)
        assert fast == ref
        assert fast_counts == ref_counts

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_refill_stall_summation_order(self, cpus):
        """With a two-cycle TLB miss at 180 MHz, ``(tlb + l1) + l2`` and
        ``tlb + (l1 + l2)`` round differently: a TLB-missing refill must
        sum its stall in the reference order."""
        (fast, fast_counts), (ref, ref_counts) = run_both(
            cpus, seed=6, tlb_miss_cycles=2.0)
        assert fast == ref
        assert fast_counts == ref_counts

    def test_private_regions_cover_refills(self):
        """The private trace must refill L1 from L2 on reads and writes,
        push dirty and clean victims, and evict dirty L2 lines, all with
        no SHARED line — else the equivalence above says nothing about
        the in-loop refill."""
        _, (_, ref_counts) = run_private(2, seed=0)
        for l1, l2 in zip(ref_counts["l1"], ref_counts["l2"]):
            for key in ("read_miss", "write_miss", "writeback",
                        "clean_evict"):
                assert l1.get(key, 0) > 0, f"private trace never hit {key}"
            assert l2.get("read_hit", 0) > 0
            assert l2.get("writeback", 0) > 0
        assert ref_counts["domain"]["hit"] > 0
        assert ref_counts["mem"]["l2_hits"] > 0
        assert "upgrade" not in ref_counts["domain"]
        assert "c2c_transfers" not in ref_counts["mem"]

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_only_bus_ops_reach_the_reference_access(self, cpus,
                                                     monkeypatch):
        """Private refills stay in the replay loop: the per-access
        reference ``MultiprocessorMemory.access`` sees bus ops only,
        observed or not, and observation does not send the replay to
        ``run_interleaved``."""
        def forbidden(*args):
            raise AssertionError("the replay took the reference path")

        monkeypatch.setattr(mp, "run_interleaved", forbidden)
        for observed in (False, True):
            rng = random.Random(0)
            traces = [private_trace(rng, cpu) for cpu in range(cpus)]
            memory = make_memory(cpus)
            calls = []
            reference_access = memory.access

            def spy(*args):
                calls.append(args)
                return reference_access(*args)

            memory.access = spy
            with observe() if observed else nullcontext():
                replay_traces(memory, traces, 5.0,
                              [lambda latency, compute: latency] * cpus)
            stats = memory.stats
            bus_ops = (stats["memory_accesses"] + stats["upgrades"]
                       + stats["c2c_transfers"])
            assert bus_ops > 0
            assert stats["l2_hits"] > bus_ops
            assert len(calls) == bus_ops


class TestFig9MetricsSnapshotDeterminism:
    def test_seeded_fig9_metrics_snapshot_identical(self):
        from repro.msg.api import build_cluster_world
        from repro.obs import observe

        def run():
            with observe() as session:
                _, world = build_cluster_world()
                total = 0.0
                for nbytes in (8, 64, 512):
                    total += world.one_way_latency_ns(0, 1, nbytes)
            return total, session.metrics.snapshot()

        total_a, snap_a = run()
        total_b, snap_b = run()
        assert total_a == total_b
        assert dict(snap_a.items()) == dict(snap_b.items())
        assert snap_b.diff(snap_a) == {}
        # The snapshot is non-trivial: the whole message path reported in.
        assert len(snap_a) > 10
