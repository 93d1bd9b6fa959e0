"""Vectorized-engine vs. reference equivalence for trace replay.

``replay_traces`` sends every single-CPU replay through the vectorized
engine of :mod:`repro.memory.vec`.  It carries the same contract as the
merged scalar loop: *access-for-access* identical to the reference
``run_interleaved`` route — same hit/miss/evict/upgrade/TLB counters,
same float operation order, hence bit-identical timing, and the same
final cache/TLB contents and recency order.  The hypothesis suite here
pins that over randomized traces spanning every replay regime (L1-hit
runs, write fractions from read-only to write-heavy, TLB churn and
L2-thrashing spans), mirroring ``test_replay_equivalence.py``.  Further
groups pin the stall arguments the engine passes, that the figure
kernels really take it, observed or not, that its fallback to the
scalar loop (warm sibling CPU, SHARED line, address outside int64)
stays identical too, and that an observed replay leaves the metrics
registry exactly as the reference leaves it.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import mp
from repro.memory.cache import AccessType
from repro.memory.hierarchy import ServiceLevel
from repro.memory.mp import _replay_fast_merged, iter_refs, replay_traces
from repro.memory.vec import REF_DTYPE, _SHARED, _supported, coerce_trace
from repro.obs import observe

from .test_replay_equivalence import (
    counters,
    make_memory,
    private_trace,
    random_trace,
)

_READ = AccessType.READ
_WRITE = AccessType.WRITE


def wide_counters(memory):
    """The replay counters and cache/TLB contents in recency order, plus
    the shared-structure counters."""
    return {
        **counters(memory),
        "dram": memory.dram.stats.as_dict(),
        "seq": memory.sequencer.stats.as_dict(),
    }


def run_pair(cpus, traces, compute_ns=5.0):
    stalls = [lambda latency, compute: latency] * cpus
    vec_mem = make_memory(cpus)
    vec = replay_traces(vec_mem, [list(t) for t in traces], compute_ns,
                        stalls)
    ref_mem = make_memory(cpus)
    ref = replay_traces(ref_mem, [list(t) for t in traces], compute_ns,
                        stalls, use_fast_path=False)
    return (vec, vec_mem), (ref, ref_mem)


def regime_trace(rng, length, write_fraction):
    """Mixed-regime stream with a controlled write mix.

    Hot addresses keep L1 busy, the 4 MiB span churns the 8-entry TLB
    and thrashes the 4 KiB L2 of ``make_memory`` nodes.
    """
    hot = [rng.randrange(0, 2048) * 8 for _ in range(16)]
    trace = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.45:
            addr = rng.choice(hot)
        elif roll < 0.70:
            addr = rng.randrange(0, 4096) * 8
        else:
            addr = rng.randrange(0, 1 << 22) & ~0x7  # TLB/L2 thrash span
        is_write = rng.random() < write_fraction
        trace.append((addr, _WRITE if is_write else _READ))
    return trace


def left_vec(*args):
    raise AssertionError("a single-CPU replay left the vectorized engine")


def latency_stalls(cpus):
    return [lambda latency, compute: latency] * cpus


def warm_sibling(memory, use_fast_path):
    """Both CPUs replay private streams: CPU 1 is left warm."""
    rng = random.Random(1)
    replay_traces(memory, [private_trace(rng, 0), private_trace(rng, 1)],
                  5.0, latency_stalls(2), use_fast_path=use_fast_path)


def shared_lines(memory, use_fast_path):
    """CPU 0 keeps SHARED lines and is the only CPU holding any state."""
    both_read = [(addr, _READ) for addr in range(0, 2048, 64)]
    replay_traces(memory, [both_read, both_read], 5.0, latency_stalls(2),
                  use_fast_path=use_fast_path)
    # The sibling drops its copies silently.
    memory.l1s[1].invalidate_all()
    memory.l2s[1].invalidate_all()
    assert any(int(state) == _SHARED
               for line_set in memory.l2s[0]._sets
               for state in line_set.values())


def beyond_int64():
    """A one-shot stream with an address the vectorized engine refuses."""
    for i in range(100):
        yield i * 64, _READ
    yield 1 << 64, _READ
    for i in range(100):
        yield 8192 + i * 64, _WRITE


class TestVecBackendEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           write_fraction=st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]),
           length=st.integers(min_value=1, max_value=1200))
    @settings(max_examples=25, deadline=None)
    def test_single_cpu_bitwise_identical(self, seed, write_fraction,
                                          length):
        rng = random.Random(seed)
        trace = regime_trace(rng, length, write_fraction)
        (vec, vec_mem), (ref, ref_mem) = run_pair(1, [trace])
        assert vec == ref  # exact float equality, field for field
        assert wide_counters(vec_mem) == wide_counters(ref_mem)

    @pytest.mark.parametrize("cpus,seed", [(2, 0), (2, 3), (4, 4), (4, 13)])
    def test_multi_cpu_identical_via_fallback(self, cpus, seed):
        rng = random.Random(seed)
        traces = [random_trace(rng, 1500) for _ in range(cpus)]
        (vec, vec_mem), (ref, ref_mem) = run_pair(cpus, traces)
        assert vec == ref
        assert wide_counters(vec_mem) == wide_counters(ref_mem)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_scalar_fast_path_too(self, seed):
        rng = random.Random(seed)
        trace = random_trace(rng, 2000)
        stalls = [lambda latency, compute: latency]
        vec_mem = make_memory(1)
        vec = replay_traces(vec_mem, [list(trace)], 5.0, stalls)
        fast_mem = make_memory(1)
        fast = _replay_fast_merged(fast_mem, [list(trace)], 5.0, stalls)
        assert vec == fast
        assert wide_counters(vec_mem) == wide_counters(fast_mem)

    def test_warm_cache_second_epoch_identical(self):
        """Equivalence must hold from a *warm* (non-empty) state: the
        lane seeding and TLB initial-recency paths only matter then."""
        rng = random.Random(21)
        warm = random_trace(rng, 1500)
        measured = random_trace(rng, 1500)
        stalls = [lambda latency, compute: latency]
        vec_mem = make_memory(1)
        replay_traces(vec_mem, [list(warm)], 5.0, stalls)
        vec_mem.reset_timing()
        vec = replay_traces(vec_mem, [list(measured)], 5.0, stalls)
        ref_mem = make_memory(1)
        replay_traces(ref_mem, [list(warm)], 5.0, stalls,
                      use_fast_path=False)
        ref_mem.reset_timing()
        ref = replay_traces(ref_mem, [list(measured)], 5.0, stalls,
                            use_fast_path=False)
        assert vec == ref
        assert wide_counters(vec_mem) == wide_counters(ref_mem)

    def test_array_traces_accepted_by_every_backend(self):
        """The vectorized engine and the scalar loop both take array
        traces and match the reference fed the same references as pairs."""
        rng = random.Random(3)
        trace = random_trace(rng, 800)
        arr = coerce_trace(list(trace))
        assert arr.dtype == REF_DTYPE
        stalls = [lambda latency, compute: latency]
        ref_mem = make_memory(1)
        ref = replay_traces(ref_mem, [list(trace)], 5.0, stalls,
                            use_fast_path=False)
        vec_mem = make_memory(1)
        assert replay_traces(vec_mem, [arr], 5.0, stalls) == ref
        assert wide_counters(vec_mem) == wide_counters(ref_mem)
        loop_mem = make_memory(1)
        assert _replay_fast_merged(loop_mem, [iter_refs(arr)], 5.0,
                                   stalls) == ref
        assert wide_counters(loop_mem) == wide_counters(ref_mem)

    def test_empty_trace(self):
        (vec, vec_mem), (ref, ref_mem) = run_pair(1, [[]])
        assert vec == ref
        assert wide_counters(vec_mem) == wide_counters(ref_mem)


class TestVecStallArguments:
    def test_constants_in_reference_grouping_then_bus_ops(self):
        """The engine calls the stall model with its four fast constants —
        TLB hit/miss x L1 hit/L2 refill, summed ``(translation +
        l1_hit_ns) + l2_hit_ns`` as the reference does — and then with the
        reference's bus-op latencies in access order.  A two-cycle TLB
        miss at 180 MHz makes the grouping observable."""
        rng = random.Random(6)
        trace = random_trace(rng, 3000)
        seen = []

        def spy(latency, compute):
            seen.append(latency)
            return latency

        memory = make_memory(1, tlb_miss_cycles=2.0)
        replay_traces(memory, [trace], 5.0, [spy])

        ref_mem = make_memory(1, tlb_miss_cycles=2.0)
        outcomes = []
        reference_access = ref_mem.access

        def record(*args):
            outcome = reference_access(*args)
            outcomes.append(outcome)
            return outcome

        ref_mem.access = record
        replay_traces(ref_mem, [trace], 5.0,
                      [lambda latency, compute: latency],
                      use_fast_path=False)
        bus_ops = [o.latency_ns for o in outcomes
                   if o.level is ServiceLevel.MEMORY]
        assert len(bus_ops) == ref_mem.stats["memory_accesses"] > 0

        config = memory.config
        l1, l2, tlb = config.l1_hit_ns, config.l2_hit_ns, config.tlb_miss_ns
        assert (tlb + l1) + l2 != tlb + (l1 + l2)
        assert seen == [0.0 + l1, (0.0 + l1) + l2,
                        tlb + l1, (tlb + l1) + l2] + bus_ops


class TestFigureKernelsTakeVec:
    """Single-CPU figure replays must never reach the scalar loop: a
    silent fallback would keep results identical but lose the speed."""

    @pytest.fixture(autouse=True)
    def forbid_scalar_paths(self, monkeypatch):
        monkeypatch.setattr(mp, "_replay_fast_merged", left_vec)
        monkeypatch.setattr(mp, "run_interleaved", left_vec)

    @pytest.mark.parametrize("version,n,sample", [
        ("naive", 12, None),
        ("transposed", 12, None),
        ("naive", 20, (2, 3)),
        ("transposed", 20, (2, 3)),
    ])
    def test_run_matmult(self, version, n, sample):
        from repro.bench.matmult import run_matmult
        from repro.core.specs import POWERMANNA

        result = run_matmult(POWERMANNA.node(scale=16), n, version=version,
                             sample_rows=sample)
        assert result.elapsed_ns > 0
        assert result.sampled == (sample is not None)

    def test_run_hint(self):
        from repro.bench.hint import run_hint
        from repro.core.specs import POWERMANNA

        result = run_hint(POWERMANNA.node(scale=64), max_subintervals=512)
        assert result.final_quips > 0


class TestObservedFigureKernelsTakeVec(TestFigureKernelsTakeVec):
    """The same kernels inside ``observe()``: observation must not change
    which engine runs."""

    @pytest.fixture(autouse=True)
    def forbid_scalar_paths(self, monkeypatch):
        monkeypatch.setattr(mp, "_replay_fast_merged", left_vec)
        monkeypatch.setattr(mp, "run_interleaved", left_vec)
        with observe() as session:
            yield
        assert session.metrics.series("mem.access_ns")


class TestVecFallback:
    """Where the engine declines, the scalar loop must still match the
    reference exactly."""

    def replay_after(self, monkeypatch, prepare):
        """Run ``prepare`` on a fresh two-CPU node, then one single-CPU
        replay, on the default path and on the reference.  Returns both
        ``(result, counters)`` pairs and how often the default path
        entered the scalar loop."""
        rng = random.Random(8)
        trace = random_trace(rng, 1500)
        stalls = [lambda latency, compute: latency]
        loop = mp._replay_fast_merged
        scalar_calls = []

        def spy(*args):
            scalar_calls.append(args)
            return loop(*args)

        runs = []
        for use_fast_path in (True, False):
            memory = make_memory(2)
            prepare(memory, use_fast_path)
            memory.reset_timing()
            assert not _supported(memory)
            with monkeypatch.context() as patch:
                patch.setattr(mp, "_replay_fast_merged", spy)
                result = replay_traces(memory, [trace], 5.0, stalls,
                                       use_fast_path=use_fast_path)
            runs.append((result, wide_counters(memory)))
        return runs, len(scalar_calls)

    def test_warm_sibling_cpu(self, monkeypatch):
        (fast, ref), scalar_calls = self.replay_after(monkeypatch,
                                                      warm_sibling)
        assert scalar_calls == 1
        assert fast == ref

    def test_resident_shared_line(self, monkeypatch):
        (fast, ref), scalar_calls = self.replay_after(monkeypatch,
                                                      shared_lines)
        assert scalar_calls == 1
        assert fast == ref

    def test_address_outside_int64_keeps_every_reference(self):
        """A coercion that fails partway through a one-shot iterator must
        still hand every reference to the scalar loop."""
        stalls = latency_stalls(1)
        fast_mem = make_memory(1)
        fast = replay_traces(fast_mem, [beyond_int64()], 5.0, stalls)
        ref_mem = make_memory(1)
        ref = replay_traces(ref_mem, [beyond_int64()], 5.0, stalls,
                            use_fast_path=False)
        assert fast[0].steps == 201
        assert fast == ref
        assert wide_counters(fast_mem) == wide_counters(ref_mem)


def observed_registry(cpus, traces, use_fast_path, prepare=None):
    """One replay inside ``observe()`` and a cell label scope, after
    ``prepare(memory, use_fast_path)``; returns the replay results and
    the registry."""
    memory = make_memory(cpus)
    with observe() as session, session.metrics.label_scope(cell="c0"):
        if prepare is not None:
            prepare(memory, use_fast_path)
            memory.reset_timing()
        results = replay_traces(memory, [t() for t in traces], 5.0,
                                latency_stalls(len(traces)),
                                use_fast_path=use_fast_path)
    return results, session.metrics


class TestObservedReplayEquivalence:
    """Under ``observe()`` the fast engines run, and must leave the
    metrics registry exactly as the reference does: the same series
    with the same counts, and every ``mem.access_ns`` series with the
    same samples in the same order — so its sum, extremes and P²
    quantile estimates agree bit for bit too."""

    def assert_same_registry(self, cpus, traces, prepare=None):
        fast, fast_reg = observed_registry(cpus, traces, True, prepare)
        ref, ref_reg = observed_registry(cpus, traces, False, prepare)
        assert fast == ref
        assert fast_reg.encode() == ref_reg.encode()
        fast_hists = fast_reg.series("mem.access_ns")
        ref_hists = ref_reg.series("mem.access_ns")
        assert (sorted(h.labels for h in fast_hists)
                == sorted(h.labels for h in ref_hists))
        ref_by_labels = {h.labels: h.hist for h in ref_hists}
        estimated = 0
        for metric in fast_hists:
            got, want = metric.hist, ref_by_labels[metric.labels]
            assert ("cell", "c0") in metric.labels
            assert got.samples() == want.samples()
            assert got._sum == want._sum
            assert got.minimum() == want.minimum()
            assert got.maximum() == want.maximum()
            if not got._sorted and len(got) > got.P2_EXACT_LIMIT:
                estimated += 1
            assert ((got.p50(), got.p99(), got.p999())
                    == (want.p50(), want.p99(), want.p999()))
        return estimated

    @pytest.mark.parametrize("cpus,seed", [(1, 0), (1, 7), (2, 3), (4, 4)])
    def test_random_traces(self, cpus, seed):
        rng = random.Random(seed)
        traces = [random_trace(rng, 1500) for _ in range(cpus)]
        estimated = self.assert_same_registry(
            cpus, [lambda t=t: list(t) for t in traces])
        assert estimated > 0  # the P² estimators were compared too

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_private_regions(self, cpus):
        rng = random.Random(5)
        traces = [private_trace(rng, cpu) for cpu in range(cpus)]
        self.assert_same_registry(cpus,
                                  [lambda t=t: list(t) for t in traces])

    @pytest.mark.parametrize("prepare", [warm_sibling, shared_lines])
    def test_vec_fallbacks(self, prepare):
        rng = random.Random(8)
        trace = random_trace(rng, 1500)
        self.assert_same_registry(2, [lambda: list(trace)], prepare)

    def test_address_outside_int64(self):
        self.assert_same_registry(1, [beyond_int64])


class TestVecPrimitives:
    def test_coerce_round_trip(self):
        rng = random.Random(11)
        trace = random_trace(rng, 300)
        arr = coerce_trace(list(trace))
        assert list(iter_refs(arr)) == trace

    def test_cumsum_bit_identical_to_sequential_adds(self):
        """The timing engine's foundation: ``np.cumsum`` must reproduce a
        sequential Python float accumulation bit for bit."""
        rng = random.Random(5)
        values = [rng.uniform(0.0, 100.0) for _ in range(4096)]
        acc, expect = 0.0, []
        for v in values:
            acc += v
            expect.append(acc)
        got = np.cumsum(np.array(values))
        assert got.tolist() == expect
