"""Tests for the per-CPU memory hierarchy: its configuration, and the
L1 -> L2 -> DRAM service levels of one CPU on a MultiprocessorMemory."""

import pytest

from repro.memory.cache import AccessType, CacheGeometry
from repro.memory.dram import DramConfig
from repro.memory.hierarchy import HierarchyConfig, ServiceLevel
from repro.memory.mp import FabricConfig, FabricKind, MultiprocessorMemory
from repro.memory.snoop import SnoopConfig
from repro.memory.tlb import TlbConfig
from repro.sim.clock import Clock


def make_config(**overrides):
    defaults = dict(
        cpu_clock=Clock(180.0),
        bus_clock=Clock(60.0),
        l1=CacheGeometry(1024, 64, 2),
        l2=CacheGeometry(8192, 64, 2),
        dram=DramConfig(num_banks=4, interleave_bytes=64,
                        access_ns=60.0, bandwidth_mb_s=640.0),
        tlb=TlbConfig(entries=1024, page_bytes=4096, miss_cycles=50.0),
        l1_hit_cycles=1.0,
        l2_hit_cycles=6.0,
        bus_overhead_bus_cycles=4.0,
    )
    defaults.update(overrides)
    return HierarchyConfig(**defaults)


def make_memory(config, cpus=1):
    """``cpus`` CPUs of ``config`` on a switched node fabric whose address
    phase takes 3 cycles of the 60 MHz bus."""
    fabric = FabricConfig(
        kind=FabricKind.SWITCHED,
        snoop=SnoopConfig(bus_clock=Clock(60.0), phase_cycles=3.0,
                          queue_depth=4))
    return MultiprocessorMemory(config, cpus, fabric)


class TestConfig:
    def test_latency_conversions(self):
        config = make_config()
        assert config.l1_hit_ns == pytest.approx(1000.0 / 180.0)
        assert config.l2_hit_ns == pytest.approx(6000.0 / 180.0)
        assert config.bus_overhead_ns == pytest.approx(4000.0 / 60.0)
        assert config.tlb_miss_ns == pytest.approx(50000.0 / 180.0)

    def test_line_sizes_must_match(self):
        with pytest.raises(ValueError):
            make_config(l2=CacheGeometry(8192, 32, 2))

    def test_l2_smaller_than_l1_rejected(self):
        with pytest.raises(ValueError):
            make_config(l1=CacheGeometry(16384, 64, 2))

    def test_scaled_shrinks_everything_proportionally(self):
        config = make_config().scaled(4)
        assert config.l1.size_bytes == 256
        assert config.l2.size_bytes == 2048
        assert config.tlb.page_bytes == 1024
        assert config.l1.line_bytes == 64


class TestServiceLevels:
    def test_first_touch_goes_to_memory(self):
        mem = make_memory(make_config())
        outcome = mem.access(0, 0.0, 0x1000)
        assert outcome.level == ServiceLevel.MEMORY
        # TLB miss + L1 + L2 + address phase + DRAM access + line transfer.
        expected = (50.0 + 1.0 + 6.0) * (1000.0 / 180.0) + 3000.0 / 60.0 \
            + 60.0 + 64 * 1000.0 / 640.0
        assert outcome.latency_ns == pytest.approx(expected)

    def test_second_touch_hits_l1(self):
        mem = make_memory(make_config())
        mem.access(0, 0.0, 0x1000)
        outcome = mem.access(0, 500.0, 0x1008)
        assert outcome.level == ServiceLevel.L1
        assert outcome.latency_ns == pytest.approx(1000.0 / 180.0)

    def test_l1_victim_found_in_l2(self):
        config = make_config()
        mem = make_memory(config)
        # L1 is 1 KB 2-way with 64B lines -> 8 sets; 0x0 and 0x400 conflict.
        mem.access(0, 0.0, 0x0)
        mem.access(0, 0.0, 0x200)
        mem.access(0, 0.0, 0x400)       # evicts 0x0 from L1, stays in L2
        outcome = mem.access(0, 0.0, 0x0)
        assert outcome.level == ServiceLevel.L2
        assert outcome.latency_ns == pytest.approx(7.0 * 1000.0 / 180.0)

    def test_inclusion_backinvalidates_l1(self):
        config = make_config(l1=CacheGeometry(128, 64, 1),
                             l2=CacheGeometry(256, 64, 1))
        mem = make_memory(config)
        mem.access(0, 0.0, 0x0)
        # 0x100 maps to the same set of both direct-mapped caches, so the
        # line leaves both levels and the next touch goes to memory.
        mem.access(0, 0.0, 0x100)
        assert not mem.l1s[0].contains(0x0)
        assert not mem.l2s[0].contains(0x0)
        assert mem.access(0, 0.0, 0x0).level == ServiceLevel.MEMORY

    @pytest.mark.xfail(strict=True, reason=(
        "MultiprocessorMemory repairs L1 inclusion only for the accessed "
        "line, not for the L2 victim"))
    def test_l2_victim_leaves_l1(self):
        # A 2-way L1 keeps 0x0 beside 0x100 while the direct-mapped L2
        # evicts it; an inclusive hierarchy must drop it from L1 too.
        config = make_config(l1=CacheGeometry(128, 64, 2),
                             l2=CacheGeometry(256, 64, 1))
        mem = make_memory(config)
        mem.access(0, 0.0, 0x0)
        mem.access(0, 0.0, 0x100)
        assert not mem.l2s[0].contains(0x0)
        assert not mem.l1s[0].contains(0x0)

    def test_level_counts(self):
        mem = make_memory(make_config())
        mem.access(0, 0.0, 0x0)
        mem.access(0, 0.0, 0x8)
        counts = (mem.stats["l1_hits"], mem.stats["l2_hits"],
                  mem.stats["memory_accesses"])
        assert counts == (1, 0, 1)

    def test_flush_forgets_everything(self):
        mem = make_memory(make_config())
        mem.access(0, 0.0, 0x0)
        mem.reset()
        assert mem.access(0, 0.0, 0x0).level == ServiceLevel.MEMORY


class TestTlbCharging:
    def test_tlb_miss_charged_once_per_page(self):
        mem = make_memory(make_config())
        mem.access(0, 0.0, 0x1000)
        base = mem.access(0, 0.0, 0x1008).latency_ns   # L1 hit, TLB hit
        far = mem.access(0, 0.0, 0x1040)               # same page, L1 miss
        assert far.latency_ns < make_config().tlb_miss_ns + base + 1000
        assert mem.stats["tlb_misses"] == 1

    def test_strided_pages_thrash_tlb(self):
        config = make_config(tlb=TlbConfig(entries=4, page_bytes=4096,
                                           miss_cycles=50.0))
        mem = make_memory(config)
        for i in range(16):
            mem.access(0, 0.0, i * 4096)
        for i in range(16):
            mem.access(0, 0.0, i * 4096)
        assert mem.stats["tlb_misses"] == 32   # every access a new page


class TestDramIntegration:
    def test_writeback_consumes_bank_time(self):
        config = make_config(l1=CacheGeometry(128, 64, 1),
                             l2=CacheGeometry(128, 64, 1))
        mem = make_memory(config)
        mem.access(0, 0.0, 0x0, AccessType.WRITE)
        mem.access(0, 0.0, 0x1000, AccessType.READ)   # evicts dirty 0x0
        assert mem.stats["writebacks"] == 1
        # Two line fetches plus the write-back, all through the banks.
        assert mem.dram.stats["requests"] == 3

    def test_shared_dram_contends(self):
        # The CPUs of one node share its DRAM: 0x0 and 0x100 are distinct
        # lines in the same bank (4 banks, 64B interleave).
        mem = make_memory(make_config(), cpus=2)
        first = mem.access(0, 0.0, 0x0)
        second = mem.access(1, 0.0, 0x100)    # same bank, must queue
        assert second.latency_ns > first.latency_ns
        assert mem.dram.stats["bank_conflicts"] == 1
