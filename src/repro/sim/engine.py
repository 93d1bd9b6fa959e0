"""Event queue and simulator core.

Time is a float measured in **nanoseconds**.  All hardware models in the
library convert cycles to nanoseconds through :class:`repro.sim.clock.Clock`
so that components in different clock domains (180 MHz CPUs, 60 MHz links)
compose on one timeline.

The pending events live in two queues.  The *lane* is a FIFO
(``deque``) of the events due at the current time, in the order they
were scheduled; the *heap* holds ``(time, tiebreak, event)`` entries
for later times only.  Triggering an event, or a timeout whose
``now + delay`` equals ``now``, appends to the lane: no tiebreak, no
heap push.  The run loops pop the lane first; when it is empty they pop
the heap, advance the clock, and move every other heap entry due at that
same time into the lane, in heap order, before running any callback.

This processes events in exactly the order of a single heap keyed by
``(time, tiebreak)``.  The invariant is that the lane holds exactly the
events due at ``now``, in tiebreak order, and the heap only later ones:
a heap entry due at ``now`` was pushed before the clock reached ``now``
and so precedes every event scheduled at ``now``, and each event
scheduled at ``now`` follows every event already pending.  Most events
in a flit-level network run are scheduled for the current time (FIFO
puts and gets, process starts), so the lane spares the heap most of its
pushes and pops.

The event loop is the hot path of every network figure, so the kernel
also keeps allocation off the per-event path where it can: events with a
single waiter (the dominant case — one process blocked on one FIFO slot
or timeout) dispatch without building a fresh callback list, and the
link/crossbar/driver processes draw their delays from a
:meth:`Simulator.pooled_timeout` free list instead of allocating a new
:class:`Timeout` per flit.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Iterable, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double triggers, negative delays,
    running backwards in time, stepping an empty queue)."""


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*, is *triggered* with an optional value, and
    once processed invokes its callbacks.  Processes waiting on an event are
    resumed with the event's value.
    """

    # ``delay`` lives here (not on Timeout) so the recycled-object pool can
    # hand the same instance back as either a pooled event or a pooled
    # timeout; see :meth:`Simulator.pooled_event`.
    __slots__ = ("sim", "callbacks", "_value", "_triggered", "_processed",
                 "_pooled", "name", "delay")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._triggered = False
        self._processed = False
        self._pooled = False
        self.name = name

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def value(self) -> Any:
        return self._value

    def trigger(self, value: Any = None) -> "Event":
        """Schedule this event to fire now (at the current simulation time)."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        self.sim._lane.append(self)
        return self

    def succeed(self, value: Any = None) -> "Event":
        """Alias of :meth:`trigger`, for simpy familiarity."""
        return self.trigger(value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<Event {self.name!r} {state}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim, name="timeout")
        self.delay = delay
        self._triggered = True
        self._value = value
        sim._schedule(self, delay)


class AnyOf(Event):
    """Fires when the first of several events fires.

    The value is a dict mapping the fired event(s) to their values at the
    moment the first fires.  On firing, the combinator deregisters its
    callback from the events that have *not* fired, so waiting repeatedly
    alongside a long-lived event (e.g. a persistent link-down event polled
    in a loop) does not accumulate dead callbacks on it.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        self.events = list(events)
        if not self.events:
            raise SimulationError("AnyOf of no events")
        for event in self.events:
            if event.processed:
                self._collect(event)
                break
            event.callbacks.append(self._collect)

    def _collect(self, _event: Event) -> None:
        if self._triggered:
            return
        fired = {e: e.value for e in self.events if e.processed}
        self.trigger(fired)
        collect = self._collect
        for event in self.events:
            if not event.processed and event.callbacks:
                try:
                    event.callbacks.remove(collect)
                except ValueError:
                    pass


class AllOf(Event):
    """Fires when every one of several events has fired."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="all_of")
        self.events = list(events)
        self._remaining = 0
        for event in self.events:
            if not event.processed:
                self._remaining += 1
                event.callbacks.append(self._collect)
        if self._remaining == 0:
            self.trigger({e: e.value for e in self.events})

    def _collect(self, _event: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0 and not self._triggered:
            self.trigger({e: e.value for e in self.events})
            collect = self._collect
            for event in self.events:
                if not event.processed and event.callbacks:
                    try:
                        event.callbacks.remove(collect)
                    except ValueError:
                        pass


class Simulator:
    """The event loop: a FIFO lane for the events due now, plus a
    priority queue of ``(time, tiebreak, event)`` for later ones."""

    def __init__(self):
        self._now = 0.0
        # Events due at ``_now``, in scheduling order.  Hot paths that
        # trigger an event at the current time append here directly.
        self._lane: deque[Event] = deque()
        # Events due after ``_now`` only.
        self._queue: list[tuple[float, int, Event]] = []
        self._tiebreak = itertools.count()
        self._running = False
        self._timeout_pool: list[Timeout] = []
        self.events_processed = 0
        # Periodic telemetry sampling (repro.obs.timeline).  With no
        # sampler attached ``_sample_due`` stays at +inf, so the run
        # loops pay one float compare per event and nothing else.  The
        # import is function-level: repro.obs pulls in sim.stats, which
        # triggers this module via sim/__init__.
        self._sampler = None
        self._sample_due = math.inf
        from repro.obs import OBS

        if OBS.enabled:
            OBS.timeline.attach(self)

    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    # -- event factories -------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value=value)

    def pooled_timeout(self, delay: float, value: Any = None) -> Timeout:
        """A :class:`Timeout` drawn from a free list.

        It is scheduled like :meth:`timeout`: into the lane when
        ``now + delay == now``, else into the heap.  Once processed, the
        timeout is recycled for a later call, so hot process loops (link
        pumps, drivers, the crossbar) do not allocate a fresh object per
        flit.  Callers must drop their reference after the timeout fires
        — i.e. use it only as ``yield sim.pooled_timeout(...)`` — because
        the object is reused; code that stores a timeout and inspects it
        later (``timer in fired``) must use :meth:`timeout`.
        """
        pool = self._timeout_pool
        if not pool:
            timeout = Timeout(self, delay, value=value)
            timeout._pooled = True
            return timeout
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        timeout = pool.pop()
        timeout._triggered = True
        timeout._processed = False
        timeout._value = value
        timeout.delay = delay
        if timeout.callbacks:
            timeout.callbacks.clear()
        self._schedule(timeout, delay)
        return timeout

    def pooled_event(self, name: str = "") -> Event:
        """An :class:`Event` drawn from the same free list.

        The event is pending; triggering it appends it to the lane like
        any other event.  The same caveat as :meth:`pooled_timeout`
        applies: use only at call sites that ``yield`` the event
        immediately and never touch it again afterwards (FIFO put/get in
        the link, NI and crossbar pumps).
        Code that stores the event — combinators, ``cancel_get`` watchdog
        patterns, tests reading ``.value`` after the run — must use
        :meth:`event`.
        """
        pool = self._timeout_pool
        if not pool:
            event = Event(self, name)
            event._pooled = True
            return event
        event = pool.pop()
        event._triggered = False
        event._processed = False
        event._value = None
        event.name = name
        if event.callbacks:
            event.callbacks.clear()
        return event

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def process(self, generator) -> "Process":
        """Start a new process from a generator; see :mod:`repro.sim.process`."""
        from repro.sim.process import Process

        return Process(self, generator)

    # -- scheduling -------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        """Queue ``event`` to fire ``delay`` ns from now (``delay >= 0``)."""
        now = self._now
        when = now + delay
        if when == now:
            self._lane.append(event)
        else:
            _heappush(self._queue, (when, next(self._tiebreak), event))

    def _advance(self) -> Event:
        """Pop the earliest heap entry, move the clock to its time and
        move every other entry due then into the (empty) lane."""
        queue = self._queue
        when, _, event = _heappop(queue)
        if when < self._now:
            raise SimulationError("time ran backwards")
        self._now = when
        lane = self._lane
        while queue and queue[0][0] == when:
            lane.append(_heappop(queue)[2])
        return event

    def _runaway(self, max_events: int) -> SimulationError:
        return SimulationError(
            f"exceeded {max_events} events; runaway simulation?")

    def step(self) -> float:
        """Process one event; return its timestamp."""
        lane = self._lane
        if lane:
            event = lane.popleft()
        elif self._queue:
            event = self._advance()
        else:
            raise SimulationError("step() on an empty event queue")
        when = self._now
        if when >= self._sample_due:
            self._sample_due = self._sampler.tick(self._sample_due, when)
        event._processed = True
        callbacks = event.callbacks
        if len(callbacks) == 1:
            callback = callbacks[0]
            callbacks.clear()
            callback(event)
        else:
            event.callbacks = []
            for callback in callbacks:
                callback(event)
        if event._pooled:
            self._timeout_pool.append(event)
        self.events_processed += 1
        return when

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains or simulated time exceeds ``until``.

        Returns the final simulation time.  ``until`` may not lie before
        the current time.  ``max_events`` is a runaway backstop: the loop
        processes at most ``max_events`` events and raises
        :class:`SimulationError` the moment more work would exceed that
        budget.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until!r}) is before the current time "
                f"{self._now!r}; simulated time cannot run backwards")
        self._running = True
        events = 0
        lane = self._lane
        popleft = lane.popleft
        queue = self._queue
        pool = self._timeout_pool
        advance = self._advance
        try:
            while True:
                if lane:
                    if events >= max_events:
                        raise self._runaway(max_events)
                    event = popleft()
                elif queue:
                    if until is not None and queue[0][0] > until:
                        self._now = until
                        break
                    if events >= max_events:
                        raise self._runaway(max_events)
                    event = advance()
                else:
                    if until is not None and until > self._now:
                        self._now = until
                    break
                when = self._now
                if when >= self._sample_due:
                    self._sample_due = self._sampler.tick(
                        self._sample_due, when)
                event._processed = True
                callbacks = event.callbacks
                if len(callbacks) == 1:
                    callback = callbacks[0]
                    callbacks.clear()
                    callback(event)
                else:
                    event.callbacks = []
                    for callback in callbacks:
                        callback(event)
                if event._pooled:
                    pool.append(event)
                events += 1
        finally:
            self._running = False
            self.events_processed += events
        return self._now

    def run_until_complete(self, process: "Process",
                           max_events: int = 50_000_000) -> Any:
        """Run until ``process`` terminates and return its value.

        Unlike :meth:`run`, this stops as soon as the process finishes, so
        it works in the presence of perpetual background processes (OS
        noise, daemons) that would keep the event queue busy forever.
        Events still due at the finishing time stay queued for a later
        :meth:`run`.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        events = 0
        lane = self._lane
        popleft = lane.popleft
        queue = self._queue
        pool = self._timeout_pool
        advance = self._advance
        try:
            while not process._triggered:
                if not (lane or queue):
                    break
                if events >= max_events:
                    raise self._runaway(max_events)
                event = popleft() if lane else advance()
                when = self._now
                if when >= self._sample_due:
                    self._sample_due = self._sampler.tick(
                        self._sample_due, when)
                event._processed = True
                callbacks = event.callbacks
                if len(callbacks) == 1:
                    callback = callbacks[0]
                    callbacks.clear()
                    callback(event)
                else:
                    event.callbacks = []
                    for callback in callbacks:
                        callback(event)
                if event._pooled:
                    pool.append(event)
                events += 1
        finally:
            self._running = False
            self.events_processed += events
        if not process.finished:
            raise SimulationError(
                f"event queue drained but process {process!r} never finished "
                "(deadlock: it is waiting on an event nobody will trigger)")
        return process.value

    def pending_events(self) -> int:
        """Events scheduled but not yet processed: the lane plus the heap."""
        return len(self._lane) + len(self._queue)
