"""The two-queue kernel processes events in single-heap order.

:class:`~repro.sim.engine.Simulator` keeps the events due now in a FIFO
lane and only later ones in its heap.  The claim is that this changes
the cost of an event and nothing else: callbacks run in exactly the
order, and at exactly the times, of one heap keyed by
``(time, tiebreak)``.  ``HeapSimulator`` below is that single heap — a
subclass whose lane pushes onto the heap and whose run loops only pop
the heap — and hypothesis checks that random process programs log the
same trace on both.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.link import ByteFifo
from repro.network.message import Flit, FlitKind
from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import Interrupt
from repro.sim.resources import FifoStore


class _HeapLane:
    """Stands in for the lane: every "due now" append is a heap push."""

    def __init__(self, sim):
        self.sim = sim

    def append(self, event):
        sim = self.sim
        heapq.heappush(sim._queue, (sim._now, next(sim._tiebreak), event))

    def __len__(self):
        return 0


class HeapSimulator(Simulator):
    """Reference scheduler: one heap of ``(time, tiebreak, event)``."""

    def __init__(self):
        super().__init__()
        self._lane = _HeapLane(self)

    def _pop(self):
        when, _, event = heapq.heappop(self._queue)
        self._now = when
        event._processed = True
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)
        if event._pooled:
            self._timeout_pool.append(event)
        self.events_processed += 1
        return when

    def step(self):
        return self._pop()

    def run(self, until=None, max_events=None):
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                break
            self._pop()
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_until_complete(self, process, max_events=None):
        while self._queue and not process._triggered:
            self._pop()
        if not process.finished:
            raise SimulationError("deadlock")
        return process.value

    def pending_events(self):
        return len(self._queue)


# Delays chosen so that sums coincide exactly (0.25 + 0.5 == 0.75),
# almost coincide (0.1 + 0.2 != 0.3), and vanish at a large ``now``
# (1e17 + 1.0 == 1e17).
DELAYS = (0.0, 0.0, 0.1, 0.2, 0.3, 0.25, 0.5, 0.75, 1.0, 1e-9, 1e17)

N_PROCS = 4
N_FIFOS = 2
N_SIGNALS = 3

op = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(DELAYS)),
    st.tuples(st.just("pooled_timeout"), st.sampled_from(DELAYS)),
    st.tuples(st.just("put"), st.integers(0, N_FIFOS - 1), st.booleans()),
    st.tuples(st.just("get"), st.integers(0, N_FIFOS - 1), st.booleans()),
    st.tuples(st.just("bput"), st.sampled_from((8, 16)), st.booleans()),
    st.tuples(st.just("bget"), st.booleans()),
    st.tuples(st.just("trigger"), st.integers(0, N_SIGNALS - 1)),
    st.tuples(st.just("wait"), st.integers(0, N_SIGNALS - 1)),
    st.tuples(st.just("any_of"), st.integers(0, N_SIGNALS - 1),
              st.sampled_from(DELAYS)),
    st.tuples(st.just("all_of"), st.integers(0, N_SIGNALS - 1),
              st.sampled_from(DELAYS)),
    st.tuples(st.just("interrupt"), st.integers(0, N_PROCS - 1)),
)

program = st.lists(st.lists(op, max_size=10), min_size=1, max_size=N_PROCS)

action = st.one_of(
    st.tuples(st.just("run_until"), st.sampled_from(DELAYS)),
    st.tuples(st.just("step"), st.integers(1, 5)),
    st.tuples(st.just("run_until_complete"), st.integers(0, N_PROCS - 1)),
    st.tuples(st.just("run")),
)


def _describe(value):
    """A log-friendly, object-identity-free view of an event value."""
    if isinstance(value, dict):
        return sorted(_describe(v) for v in value.values())
    if isinstance(value, Flit):
        return ("flit", value.nbytes, value.message_id)
    return repr(value)


def simulate(sim, programs, actions):
    """Run ``programs`` under the ``actions`` driver plan; return the log."""
    log = []
    fifos = [FifoStore(sim, capacity=1 + i, name=f"f{i}")
             for i in range(N_FIFOS)]
    bfifo = ByteFifo(sim, capacity_bytes=24, name="b")
    signals = [sim.event(f"s{i}") for i in range(N_SIGNALS)]
    for i, signal in enumerate(signals):
        signal.callbacks.append(
            lambda e, i=i: log.append((sim.now, "signal", i, _describe(e.value))))
    procs = []

    def body(pid, ops):
        for k, (kind, *args) in enumerate(ops):
            tag = pid * 100 + k
            if kind == "timeout":
                target = sim.timeout(args[0], value=tag)
            elif kind == "pooled_timeout":
                target = sim.pooled_timeout(args[0], value=tag)
            elif kind == "put":
                fifo = fifos[args[0]]
                target = fifo.put_pooled(tag) if args[1] else fifo.put(tag)
            elif kind == "get":
                fifo = fifos[args[0]]
                target = fifo.get_pooled() if args[1] else fifo.get()
            elif kind == "bput":
                flit = Flit(FlitKind.DATA, args[0], message_id=tag)
                target = bfifo.put_pooled(flit) if args[1] else bfifo.put(flit)
            elif kind == "bget":
                target = bfifo.get_pooled() if args[0] else bfifo.get()
            elif kind == "trigger":
                signal = signals[args[0]]
                if not signal.triggered:
                    signal.trigger(tag)
                continue
            elif kind == "wait":
                target = signals[args[0]]
            elif kind in ("any_of", "all_of"):
                pair = [signals[args[0]], sim.timeout(args[1], value=tag)]
                target = (sim.any_of(pair) if kind == "any_of"
                          else sim.all_of(pair))
            else:  # interrupt
                if args[0] < len(procs):
                    victim = procs[args[0]]
                    if victim.is_alive and victim._waiting_on is not None:
                        victim.interrupt(tag)
                continue
            try:
                value = yield target
            except Interrupt as interrupt:
                value = ("interrupted", interrupt.cause)
            log.append((sim.now, pid, k, _describe(value)))
        return pid

    for pid, ops in enumerate(programs):
        procs.append(sim.process(body(pid, ops)))

    for kind, *args in actions:
        try:
            if kind == "run_until":
                result = sim.run(until=sim.now + args[0])
            elif kind == "step":
                result = [sim.step() for _ in range(args[0])
                          if sim.pending_events()]
            elif kind == "run_until_complete":
                result = sim.run_until_complete(procs[args[0] % len(procs)])
            else:
                result = sim.run()
        except SimulationError:
            result = "deadlock"
        log.append(("action", kind, result, sim.now, sim.pending_events(),
                    sim.events_processed))
    log.append(("end", sim.run(), sim.events_processed))
    return log


@settings(max_examples=300, deadline=None)
@given(programs=program, actions=st.lists(action, max_size=6))
def test_lane_kernel_matches_single_heap(programs, actions):
    assert (simulate(Simulator(), programs, actions)
            == simulate(HeapSimulator(), programs, actions))

