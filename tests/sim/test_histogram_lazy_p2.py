"""Lazy P² catch-up in ``Histogram`` against the eager original.

``Histogram`` feeds its P² estimators only when a read needs a P² value
(or just before an in-place sort would lose the arrival order), and
``merge_sorted`` no longer feeds them at all.  ``EagerHistogram`` below
is the previous implementation, which fed all three estimators on every
``add`` and re-fed them every merged sample; random interleavings of
every public operation must return identical floats from both.
"""

import math
import random
from bisect import bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import Histogram, P2Quantile


class EagerHistogram:
    """The eager-P² histogram: the oracle for the lazy one."""

    P2_EXACT_LIMIT = 512

    def __init__(self):
        self._samples = []
        self._sorted = True
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._reset_p2()

    def _reset_p2(self):
        self._p2 = {0.5: P2Quantile(0.5), 0.99: P2Quantile(0.99),
                    0.999: P2Quantile(0.999)}

    def add(self, value):
        if self._samples and value < self._samples[-1]:
            self._sorted = False
        self._samples.append(value)
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        for estimator in self._p2.values():
            estimator.add(value)

    def extend(self, values):
        for value in values:
            self.add(value)

    def samples(self):
        return list(self._samples)

    def _ensure_sorted(self):
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    def mean(self):
        return self._sum / len(self._samples) if self._samples else 0.0

    def minimum(self):
        return self._min if self._samples else 0.0

    def maximum(self):
        return self._max if self._samples else 0.0

    def quantile(self, q):
        if not self._samples:
            return 0.0
        self._ensure_sorted()
        n = len(self._samples)
        return self._samples[min(n - 1, max(0, math.ceil(q * n) - 1))]

    def buckets(self, edges):
        self._ensure_sorted()
        counts = [0] * (len(edges) + 1)
        for x in self._samples:
            counts[bisect_right(edges, x)] += 1
        return counts

    def _fast_quantile(self, q):
        if self._sorted or len(self._samples) <= self.P2_EXACT_LIMIT:
            return self.quantile(q)
        return self._p2[q].value()

    def p50(self):
        return self._fast_quantile(0.5)

    def p99(self):
        return self._fast_quantile(0.99)

    def p999(self):
        return self._fast_quantile(0.999)

    def merge_sorted(self, samples):
        incoming = list(samples)
        if not incoming:
            return
        combined = sorted(self._samples + incoming)
        self._samples = combined
        self._sorted = True
        self._sum = math.fsum(combined)
        self._min = combined[0]
        self._max = combined[-1]
        self._reset_p2()
        for value in combined:
            for estimator in self._p2.values():
                estimator.add(value)

    def summary(self):
        return {"count": len(self._samples), "mean": self.mean(),
                "min": self.minimum(), "max": self.maximum(),
                "p50": self.p50(), "p99": self.p99(), "p999": self.p999()}


values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def bulk(seed, length):
    """A long stream with ties and descents, to cross P2_EXACT_LIMIT."""
    rng = random.Random(seed)
    return [float(rng.choice((rng.randrange(50), rng.uniform(0.0, 1e4))))
            for _ in range(length)]


operations = st.one_of(
    st.tuples(st.just("add"), values),
    st.tuples(st.just("extend"), st.lists(values, max_size=40)),
    st.tuples(st.just("bulk"), st.integers(0, 1000), st.integers(0, 700)),
    st.tuples(st.just("merge_sorted"), st.lists(values, max_size=40)),
    st.tuples(st.just("merge_bulk"), st.integers(0, 1000),
              st.integers(0, 700)),
    st.tuples(st.just("quantile"), st.floats(0.0, 1.0)),
    st.tuples(st.sampled_from(["p50", "p99", "p999", "summary"])),
    st.tuples(st.just("buckets"),
              st.lists(values, max_size=5).map(sorted)),
)


def apply(hist, op):
    name, *args = op
    if name == "bulk":
        return hist.extend(bulk(*args))
    if name == "merge_bulk":
        return hist.merge_sorted(bulk(*args))
    return getattr(hist, name)(*args)


def state(hist):
    return (hist.samples(), hist.mean(), hist.minimum(), hist.maximum(),
            hist._sum, hist._sorted)


class TestLazyP2MatchesEager:
    @given(ops=st.lists(operations, max_size=25))
    @settings(max_examples=80, deadline=None)
    def test_random_interleavings_identical(self, ops):
        lazy, eager = Histogram(), EagerHistogram()
        for op in ops:
            # repr() tells -0.0 from 0.0 and compares NaN with itself.
            assert repr(apply(lazy, op)) == repr(apply(eager, op)), op
            assert repr(state(lazy)) == repr(state(eager)), op
        assert repr(lazy.summary()) == repr(eager.summary())

    def test_unsorted_large_reads_use_the_estimators(self):
        """The property above is only meaningful if P² values are read:
        a long unsorted stream must answer p50 from the estimator."""
        lazy, eager = Histogram(), EagerHistogram()
        stream = bulk(3, 2000)
        lazy.extend(stream[:1000])
        eager.extend(stream[:1000])
        assert lazy._p2_fed == 0
        assert not lazy._sorted and len(lazy) > lazy.P2_EXACT_LIMIT
        assert lazy.p50() == eager.p50() != lazy.quantile(0.5)
        for value in stream[1000:]:
            lazy.add(value)
            eager.add(value)
        assert lazy.p999() == eager.p999()
        assert lazy._p2_fed == 2000

    def test_merge_sorted_feeds_no_estimator(self):
        hist = Histogram()
        hist.merge_sorted(bulk(4, 3000))
        assert hist._p2_fed == 0
        hist.summary()
        assert hist._p2_fed == 0  # sorted: exact quantiles only
