"""Numpy-vectorized trace replay: whole-trace array kernels.

``repro.memory.mp.replay_traces`` routes every single-CPU replay through
this module; it is the only single-CPU fast path.  The replay must be
*access-for-access identical* to the reference ``run_interleaved`` path —
same hit/miss/evict/upgrade/TLB counters, same float operation order,
hence bit-identical timing.  The representation changes, the semantics
do not.

How a dict-LRU simulation becomes array code
--------------------------------------------

The scalar paths juggle one dict entry per reference.  Here a trace is a
contiguous ``(addr, is_write)`` structured array and each structure gets
its own whole-trace oracle:

* **L1 (chunked lockstep LRU).**  Per-set access streams are split into
  fixed-length chunks and simulated as parallel numpy *lanes*: the state
  is a ``lanes x ways`` tag/dirty/age matrix advanced one vectorized step
  per chunk position (hit detect via an equality matrix, LRU victim via
  ``argmin`` over ages).  Lanes are packed step by step, longest first,
  so a step reads one contiguous slice and no cell is padding.  Chunk 0
  of every set is seeded from the true cache state, so it is exact from
  the start.  Later chunks start empty and rely on the LRU
  *convergence* property: once a chunk has touched ``ways`` distinct
  tags (position ``v``), set content and recency order are independent
  of the initial state.  A short scalar warmup replays
  ``[0, v]`` from the true state to fix up the pre-convergence outcomes,
  and the only post-``v`` divergence — dirty bits inherited across the
  chunk boundary — is repaired sparsely (flip the affected victim's
  writeback flag, or carry the bit into the final state).
* **TLB (previous-occurrence filter).**  An access whose page recurred
  within the last ``capacity`` accesses is a guaranteed LRU hit, so one
  argsort of the page column proves almost the whole trace; only the
  remaining *candidates* (first occurrences, wide recurrence gaps) run
  scalar, with exact victim selection keyed by last-occurrence lookups.
* **L2 (derived op stream).**  Every L2 side effect of both scalar routes
  is a plain ``Cache.access`` with ``fill_state=EXCLUSIVE`` semantics,
  from exactly three sources: a write L1-hit (dirtiness sync), a dirty L1
  victim writeback, and a refill of the missed line.  The op stream is
  scattered from the L1 outcomes, split per L2 set, and run through the
  same lockstep engine — one lane per set, seeded from the true L2 state,
  so no fixup is needed.
* **Timing (segmented cumsum).**  The local-clock recurrence
  ``issue = local + compute; local = issue + stall`` is an interleaved
  prefix sum, and ``np.cumsum`` is bit-identical to sequential float
  adds.  Stall values of non-refill-miss accesses take one of four
  precomputed constants (TLB hit/miss x L1 hit/L2 refill); only refill
  *misses* — which serialize through the address-phase sequencer and the
  DRAM banks — run scalar, calling the real sequencer/DRAM/data-bus
  objects between cumsum segments.  The sums run through one small
  scratch buffer, so no whole-trace float array is built for them.

Under ``OBS`` the commit also records what the reference records one
access at a time: the labelled ``cache.*``/``tlb.*``/``coherence.bus_op``
counts, folded in whole, and every access's latency in
``mem.access_ns``, taken from the four fast constants and the scalar
pass's fetch latencies, in access order per level.

The engine declines (returns ``None``) whenever its preconditions do
not hold: SHARED lines resident anywhere in the active CPU's caches,
non-empty caches on the other CPUs, or an address outside int64 or
negative.  ``replay_traces`` then takes the merged scalar loop, which is
always available.  Stall models must be pure functions of
``(latency_ns, compute_ns)`` — every model in :mod:`repro.cpu.pipeline`
is.

``replay_batch`` stacks many independent replays (one isolated
``MultiprocessorMemory`` each, e.g. many sweep points) into *one* packed
lane stream per lockstep pass, so the per-step numpy dispatch overhead is
amortised across all of them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.memory.cache import AccessType, MESIState
from repro.memory.hierarchy import ServiceLevel
from repro.memory.mesi import BusOp
from repro.obs import OBS

#: Structured dtype of an array-native trace (see repro.memory.trace_gen).
REF_DTYPE = np.dtype([("addr", np.int64), ("is_write", np.bool_)])

_EXCLUSIVE = int(MESIState.EXCLUSIVE)
_MODIFIED = int(MESIState.MODIFIED)
_SHARED = int(MESIState.SHARED)

#: L1 lane length.  Shorter chunks mean fewer lockstep steps (more lanes
#: in flight per step, amortising numpy dispatch) but more warmup
#: fixups; 256 balances the two on the fig7 geometry.
_L1_CHUNK = 256

#: Slice length of the timing sums: the local clock and the totals are
#: accumulated through one scratch buffer of ``2 * _TIMING_SLICE + 1``
#: floats instead of whole-trace arrays.
_TIMING_SLICE = 4096

# ---------------------------------------------------------------------------
# Trace coercion
# ---------------------------------------------------------------------------


def coerce_trace(trace) -> np.ndarray:
    """Materialise any ``(addr, AccessType)`` iterable as a REF_DTYPE array.

    Structured arrays pass through untouched.  Raises ``OverflowError``
    for addresses outside int64 (callers fall back to the scalar paths).
    """
    if isinstance(trace, np.ndarray):
        if trace.dtype == REF_DTYPE:
            return trace
        if trace.dtype.names == ("addr", "is_write"):
            return trace.astype(REF_DTYPE)
    write = AccessType.WRITE
    return np.fromiter(((addr, access == write) for addr, access in trace),
                       dtype=REF_DTYPE)


# ---------------------------------------------------------------------------
# The lockstep LRU engine
# ---------------------------------------------------------------------------


def _lockstep(tags: np.ndarray, writes: np.ndarray, active: np.ndarray,
              step_start: np.ndarray, ways: int,
              init_tags: np.ndarray, init_dirty: np.ndarray):
    """Advance many independent LRU sets one access per step, in lockstep.

    Lanes come in descending length order and their accesses are packed
    step-major: step ``t`` holds position ``t`` of the ``active[t]``
    lanes still running, at ``step_start[t]`` onwards, so no cell is
    padding.  ``init_tags`` is ``(lanes, ways)`` in LRU->MRU order,
    ``-1`` marking empty ways.

    Returns packed ``(hit, victim_tag, victim_dirty)`` arrays laid out
    like the input, and the final ``(tags, dirty, age)`` state per lane.
    Empty ways are seeded with the lowest ages so misses fill them before
    evicting, exactly like ``Cache.access``.
    """
    slot = np.arange(ways, dtype=np.int64)
    st_tags = init_tags.astype(np.int64)  # fresh C copies
    st_dirty = init_dirty.astype(bool)
    st_age = np.where(st_tags >= 0, slot + ways, slot - ways)
    flat_tags = st_tags.reshape(-1)
    flat_dirty = st_dirty.reshape(-1)
    flat_age = st_age.reshape(-1)

    total = len(tags)
    out_hit = np.zeros(total, dtype=bool)
    out_vt = np.empty(total, dtype=np.int64)
    out_vd = np.zeros(total, dtype=bool)
    row_base = np.arange(len(init_tags), dtype=np.int64) * ways
    base_age = 2 * ways
    # A matching way outranks every age (ages are >= -ways), so one
    # masked argmin picks the hit way *or* the LRU victim, and the score
    # value at the pick says which it was.  Victim tag/dirty are stored
    # raw and masked by the hit array after the loop, off the hot path.
    sentinel = np.int64(-2 * ways - 1)
    for t, (a, lo) in enumerate(zip(active.tolist(), step_start.tolist())):
        hi = lo + a
        cur = tags[lo:hi]
        eq = st_tags[:a] == cur[:, None]
        score = np.where(eq, sentinel, st_age[:a])
        way = score.argmin(axis=1)
        idx = row_base[:a] + way
        hit = score.reshape(-1)[idx] == sentinel
        vd = flat_dirty[idx]
        out_hit[lo:hi] = hit
        out_vt[lo:hi] = flat_tags[idx]
        out_vd[lo:hi] = vd
        flat_tags[idx] = cur
        flat_dirty[idx] = (vd & hit) | writes[lo:hi]
        flat_age[idx] = base_age + t
    out_vt[out_hit] = -1
    out_vd &= ~out_hit
    return out_hit, out_vt, out_vd, st_tags, st_dirty, st_age


def _state_dicts(fin_tags, fin_dirty, fin_age) -> List[Dict[int, bool]]:
    """Engine state rows -> ordered ``tag -> dirty`` dicts (LRU first)."""
    orders = np.argsort(fin_age, axis=1, kind="stable")
    sorted_tags = np.take_along_axis(fin_tags, orders, axis=1).tolist()
    sorted_dirty = np.take_along_axis(fin_dirty, orders, axis=1).tolist()
    return [{tag: dirty for tag, dirty in zip(row_t, row_d) if tag >= 0}
            for row_t, row_d in zip(sorted_tags, sorted_dirty)]


# ---------------------------------------------------------------------------
# Lane planning
# ---------------------------------------------------------------------------


class _LanePlan:
    """One cache structure's lane decomposition plus lockstep results.

    ``tags``/``writes`` are the access stream sorted by set (``order``
    maps it back to stream order); lane ``j`` is the slice of
    ``lane_len[j]`` accesses from ``lane_start[j]``.  The lockstep
    outcomes ``hit``/``vtag``/``vdirty`` land in the same sorted order.
    """

    __slots__ = ("ways", "order", "lane_set", "lane_start", "lane_len",
                 "lane_first", "tags", "writes", "init_tags", "init_dirty",
                 "hit", "vtag", "vdirty", "final")


def _plan_lanes(values, writes, sidx, n_sets: int, cache_sets, ways: int,
                chunk) -> _LanePlan:
    """Sort a tag stream by set index, cut per-set runs into lanes of at
    most ``chunk`` accesses (``None`` = one lane per set), and seed each
    set's first lane from the true state."""
    plan = _LanePlan()
    plan.ways = ways
    # Set indices are tiny ints (``sidx`` comes as int32): that halves
    # the radix passes of the stable argsort that groups them by set.
    order = np.argsort(sidx, kind="stable")
    plan.order = order
    counts = np.bincount(sidx, minlength=n_sets)
    set_starts = np.concatenate(([0], np.cumsum(counts)))
    lane_set: List[int] = []
    lane_start: List[int] = []
    lane_len: List[int] = []
    lane_first: List[bool] = []
    for s in np.nonzero(counts)[0]:
        count = int(counts[s])
        start = int(set_starts[s])
        step = count if chunk is None else chunk
        for off in range(0, count, step):
            lane_set.append(int(s))
            lane_start.append(start + off)
            lane_len.append(min(step, count - off))
            lane_first.append(off == 0)
    nl = len(lane_set)
    plan.lane_set = lane_set
    plan.lane_first = lane_first
    plan.lane_start = np.asarray(lane_start, dtype=np.int64)
    plan.lane_len = np.asarray(lane_len, dtype=np.int64)
    plan.tags = values[order]
    plan.writes = writes[order]
    init_tags = np.full((nl, ways), -1, dtype=np.int64)
    init_dirty = np.zeros((nl, ways), dtype=bool)
    for j in range(nl):
        if not lane_first[j]:
            continue
        line_set = cache_sets[lane_set[j]]
        if line_set:
            keys = list(line_set.keys())
            init_tags[j, :len(keys)] = keys
            init_dirty[j, :len(keys)] = [int(v) == _MODIFIED
                                         for v in line_set.values()]
    plan.init_tags = init_tags
    plan.init_dirty = init_dirty
    return plan


def _pooled_lockstep(plans: Sequence[_LanePlan]) -> None:
    """Run one lockstep pass over many plans' lanes, pooled by way count,
    and land each plan's outcomes and final lane states back on it."""
    groups: Dict[int, List[_LanePlan]] = {}
    for plan in plans:
        groups.setdefault(plan.ways, []).append(plan)
    for ways, members in groups.items():
        lens = np.concatenate([p.lane_len for p in members])
        by_len = np.argsort(-lens, kind="stable")
        rank = np.empty(len(lens), dtype=np.int64)
        rank[by_len] = np.arange(len(lens))
        lens_desc = lens[by_len]
        lmax = int(lens_desc[0]) if len(lens) else 0
        active = np.searchsorted(-lens_desc, -np.arange(lmax), side="left")
        step_start = np.zeros(lmax, dtype=np.int64)
        np.cumsum(active[:-1], out=step_start[1:])
        tags = np.empty(int(lens.sum()), dtype=np.int64)
        writes = np.empty(len(tags), dtype=bool)
        # Each access's packed cell: its step's start plus its lane's rank.
        cells = []
        first = 0
        for plan in members:
            nl = len(plan.lane_len)
            pos = np.arange(len(plan.tags)) - np.repeat(plan.lane_start,
                                                        plan.lane_len)
            cell = step_start[pos]
            cell += np.repeat(rank[first:first + nl], plan.lane_len)
            tags[cell] = plan.tags
            writes[cell] = plan.writes
            cells.append(cell)
            first += nl
        init_t = np.concatenate([p.init_tags for p in members])[by_len]
        init_d = np.concatenate([p.init_dirty for p in members])[by_len]
        hit, vt, vd, ft, fd, fa = _lockstep(tags, writes, active, step_start,
                                            ways, init_t, init_d)
        first = 0
        for plan, cell in zip(members, cells):
            lanes = rank[first:first + len(plan.lane_len)]
            plan.hit, plan.vtag, plan.vdirty = hit[cell], vt[cell], vd[cell]
            plan.final = (ft[lanes], fd[lanes], fa[lanes])
            first += len(lanes)


# ---------------------------------------------------------------------------
# Per-job phases
# ---------------------------------------------------------------------------


class _Job:
    """One replay being vectorized (its own memory/trace/stall model)."""

    __slots__ = (
        "index", "memory", "arr", "compute_ns", "stall", "n",
        "addr", "is_write",
        "l1_plan", "l1_hit", "l1_vtag", "l1_vdirty", "l1_final",
        "tlb_miss", "tlb_evictions", "tlb_final",
        "op_write", "op_refill", "op_src",
        "l2_plan", "op_hit", "op_vtag", "op_vdirty", "l2_final",
    )

    def __init__(self, index, memory, arr, compute_ns, stall):
        self.index = index
        self.memory = memory
        self.arr = arr
        self.compute_ns = compute_ns
        self.stall = stall
        self.n = len(arr)
        self.addr = np.ascontiguousarray(arr["addr"], dtype=np.int64)
        self.is_write = np.ascontiguousarray(arr["is_write"], dtype=bool)


def _supported(memory) -> bool:
    """Vec preconditions over the *state* of the node (CPU 0 active)."""
    for l1, l2 in zip(memory.l1s[1:], memory.l2s[1:]):
        if l1.occupancy() or l2.occupancy():
            return False
    for cache in (memory.l1s[0], memory.l2s[0]):
        for line_set in cache._sets:
            for state in line_set.values():
                if int(state) == _SHARED:
                    return False
    return True


def _plan_l1(job: _Job) -> None:
    l1 = job.memory.l1s[0]
    tag = job.addr >> l1._set_shift
    sidx = (tag & l1._set_mask).astype(np.int32)
    job.l1_plan = _plan_lanes(tag, job.is_write, sidx, len(l1._sets),
                              l1._sets, l1._ways, _L1_CHUNK)


def _fixup_l1(job: _Job) -> None:
    """Make chunked-lane outcomes exact, then scatter to trace order.

    Walks each set's chunks in order, carrying the true state across the
    chunk boundary: chunk 0 is exact by seeding; later chunks get a
    scalar warmup over ``[0, v]`` (``v`` = position of the ``ways``-th
    distinct tag) plus sparse dirty-bit repairs past ``v``.  The warmup
    loop simultaneously finds ``v``, replays the prefix from the true
    state, and tracks which tags the from-empty engine lane marked dirty
    (before convergence the engine cannot evict, so its dirty bit is
    exactly "was written in ``[0, v]``").
    """
    plan = job.l1_plan
    ways = plan.ways
    hit, vtag, vdirty = plan.hit, plan.vtag, plan.vdirty
    states = _state_dicts(*plan.final)
    # Convergence point per lane, found vectorially: in a from-empty
    # engine lane every pre-convergence miss is a new distinct tag, so
    # ``v`` is exactly the position of the ``ways``-th engine miss; the
    # running miss count over the sorted stream finds it for every lane
    # at once.  ``v >= length`` means the lane never converged.
    misses = np.cumsum(~hit)
    before = np.concatenate(([0], misses))[plan.lane_start]
    v_arr = (np.searchsorted(misses, before + ways, side="left")
             - plan.lane_start).tolist()
    final_states: Dict[int, Dict[int, bool]] = {}
    state: Dict[int, bool] = {}
    for j, s in enumerate(plan.lane_set):
        if plan.lane_first[j]:
            state = states[j]
            final_states[s] = state
            continue
        start = int(plan.lane_start[j])
        length = int(plan.lane_len[j])
        v = v_arr[j] if v_arr[j] < length else None
        upto_v = length if v is None else v + 1
        tags_l = plan.tags[start:start + upto_v].tolist()
        writes_l = plan.writes[start:start + upto_v].tolist()
        written = set()
        o_hit: List[bool] = []
        o_vt: List[int] = []
        o_vd: List[bool] = []
        for tg, w in zip(tags_l, writes_l):
            if tg in state:
                dirty = state.pop(tg)
                state[tg] = dirty or w
                o_hit.append(True)
                o_vt.append(-1)
                o_vd.append(False)
            else:
                if len(state) >= ways:
                    victim = next(iter(state))
                    victim_dirty = state.pop(victim)
                else:
                    victim, victim_dirty = -1, False
                state[tg] = w
                o_hit.append(False)
                o_vt.append(victim)
                o_vd.append(victim_dirty)
            if w:
                written.add(tg)
        upto = start + len(o_hit)
        hit[start:upto] = o_hit
        vtag[start:upto] = o_vt
        vdirty[start:upto] = o_vd
        if v is None:
            # Fewer than `ways` distinct tags: the whole lane was just
            # replayed scalar and `state` (aliased by final_states[s])
            # already holds the true final state.
            continue
        carried: Dict[int, bool] = {}
        row_vt = None
        for tg, true_dirty in state.items():
            if (tg in written) == true_dirty:
                continue
            if row_vt is None:
                row_tags = plan.tags[start:start + length]
                row_writes = plan.writes[start:start + length]
                row_vt = vtag[start:start + length]
            occ = np.nonzero((row_tags == tg) & row_writes)[0]
            occ = occ[occ > v]
            evs = np.nonzero(row_vt == tg)[0]
            evs = evs[evs > v]
            first_write = int(occ[0]) if occ.size else length
            first_evict = int(evs[0]) if evs.size else length
            if first_evict < first_write:
                vdirty[start + first_evict] = true_dirty
            elif first_write == length and first_evict == length:
                carried[tg] = true_dirty
        state = states[j]
        state.update(carried)
        final_states[s] = state

    n = job.n
    job.l1_hit = np.empty(n, dtype=bool)
    job.l1_vtag = np.empty(n, dtype=np.int64)
    job.l1_vdirty = np.empty(n, dtype=bool)
    job.l1_hit[plan.order] = hit
    job.l1_vtag[plan.order] = vtag
    job.l1_vdirty[plan.order] = vdirty
    job.l1_final = final_states
    job.l1_plan = None


# ---------------------------------------------------------------------------
# TLB phase
# ---------------------------------------------------------------------------


def _run_tlb_scalar(job: _Job, pages, resident: Dict[int, None],
                    capacity: int) -> None:
    """Plain dict-LRU TLB replay (``Tlb.access`` semantics, evict before
    insert) — the fallback when the trace is miss-dominated."""
    miss = np.zeros(job.n, dtype=bool)
    evictions = 0
    for i, page in enumerate(memoryview(pages)):
        if page in resident:
            del resident[page]
            resident[page] = None
        else:
            if len(resident) >= capacity:
                del resident[next(iter(resident))]
                evictions += 1
            resident[page] = None
            miss[i] = True
    job.tlb_miss = miss
    job.tlb_evictions = evictions
    job.tlb_final = resident


def _run_tlb(job: _Job) -> None:
    """Fully-associative LRU TLB oracle via a previous-occurrence filter.

    An access whose page recurred within the last ``capacity`` accesses
    touched at most ``capacity - 1`` other pages in between, so it is a
    guaranteed hit — no residency bookkeeping needed.  Only *candidate*
    accesses (first occurrences, or recurrence gaps wider than the
    capacity) can change the resident set, and all of those run scalar:
    a membership test, plus on a miss an exact LRU victim search keyed by
    each resident page's last occurrence (pages untouched since the
    initial state are older than every touched page, in their original
    dict order).  Recency between candidates never needs materialising.
    """
    tlb = job.memory.tlbs[0]
    pages = job.addr >> tlb._page_shift
    capacity = tlb.config.entries
    resident: Dict[int, None] = dict(tlb._entries)
    n = job.n

    sort_key = pages
    if int(pages.max()) < 2 ** 31:
        sort_key = pages.astype(np.int32)
    order = np.argsort(sort_key, kind="stable")
    sorted_pages = pages[order]
    same = np.empty(n, dtype=bool)
    same[0] = False
    same[1:] = sorted_pages[1:] == sorted_pages[:-1]
    # Candidate detection directly in sorted space: within a page group
    # consecutive entries of ``order`` are that page's successive
    # occurrence positions, so the recurrence distance is their diff.
    dist_ok = np.zeros(n, dtype=bool)
    dist_ok[1:] = same[1:] & ((order[1:] - order[:-1]) <= capacity)
    cand_pos = order[~dist_ok]
    if len(cand_pos) > n // 8:
        _run_tlb_scalar(job, pages, resident, capacity)
        return
    cand_pos.sort()

    # Page-group bounds into ``order`` (ascending occurrence positions),
    # for last-touch lookups; a memoryview indexes ``order`` as Python
    # ints without a whole-trace list.
    starts = np.nonzero(~same)[0]
    ends = np.append(starts[1:], n)
    bounds: Dict[int, Tuple[int, int]] = {}
    for b, e in zip(starts.tolist(), ends.tolist()):
        bounds[int(sorted_pages[b])] = (b, e)
    order_list = memoryview(order)
    init_rank = {page: rank - capacity
                 for rank, page in enumerate(resident)}

    miss = np.zeros(n, dtype=bool)
    evictions = 0
    from bisect import bisect_left
    for i, page in zip(cand_pos.tolist(), pages[cand_pos].tolist()):
        if page in resident:
            continue
        miss[i] = True
        if len(resident) >= capacity:
            victim = None
            victim_key = None
            for q in resident:
                be = bounds.get(q)
                if be is None:
                    last = init_rank[q]
                else:
                    b, e = be
                    k = bisect_left(order_list, i, b, e)
                    last = order_list[k - 1] if k > b else init_rank[q]
                if victim_key is None or last < victim_key:
                    victim_key = last
                    victim = q
            del resident[victim]
            evictions += 1
        resident[page] = None

    # Final recency order: initial pages never touched keep their original
    # relative order and precede everything touched; touched resident
    # pages order by overall last occurrence.
    untouched = []
    touched = []
    for q in resident:
        be = bounds.get(q)
        if be is None:
            untouched.append(q)
        else:
            touched.append((order_list[be[1] - 1], q))
    touched.sort()
    final: Dict[int, None] = {q: None for q in untouched}
    for _, q in touched:
        final[q] = None
    job.tlb_miss = miss
    job.tlb_evictions = evictions
    job.tlb_final = final


# ---------------------------------------------------------------------------
# L2 phase: derived op stream
# ---------------------------------------------------------------------------


def _l2_ops(job: _Job):
    """Scatter the three L2 op sources out of the L1 outcomes.

    Per access, in reference order: a write L1-hit syncs dirtiness (WH); an
    L1 miss first writes back a dirty victim (VWB), then refills the line
    (REFILL).  Every op is a plain ``Cache.access`` on the private L2.
    Returns the op stream as ``(addr, write, refill, src)`` columns,
    ``src`` being the access each op came from.
    """
    addr, is_write = job.addr, job.is_write
    l1_hit, vdirty = job.l1_hit, job.l1_vdirty

    wh = l1_hit & is_write
    l1_miss = ~l1_hit
    vwb = l1_miss & vdirty
    counts = wh.astype(np.int32) + l1_miss + vwb
    offsets = np.cumsum(counts, dtype=np.int64)
    total = int(offsets[-1])
    offsets -= counts
    op_addr = np.empty(total, dtype=np.int64)
    op_write = np.empty(total, dtype=bool)
    op_refill = np.zeros(total, dtype=bool)
    op_src = np.empty(total, dtype=np.int64)

    # Position lists once per source; every later access is a short
    # gather instead of another O(n) boolean-mask pass.
    wh_pos = np.nonzero(wh)[0]
    vwb_pos = np.nonzero(vwb)[0]
    miss_pos = np.nonzero(l1_miss)[0]
    idx = offsets[wh_pos]
    op_addr[idx] = addr[wh_pos]
    op_write[idx] = True
    op_src[idx] = wh_pos
    idx = offsets[vwb_pos]
    op_addr[idx] = job.l1_vtag[vwb_pos] << job.memory.l1s[0]._set_shift
    op_write[idx] = True
    op_src[idx] = vwb_pos
    idx = offsets[miss_pos] + vwb[miss_pos]
    op_addr[idx] = addr[miss_pos]
    op_write[idx] = is_write[miss_pos]
    op_refill[idx] = True
    op_src[idx] = miss_pos
    return op_addr, op_write, op_refill, op_src


def _plan_l2(job: _Job) -> None:
    l2 = job.memory.l2s[0]
    tag, job.op_write, job.op_refill, job.op_src = _l2_ops(job)
    tag >>= l2._set_shift
    sidx = (tag & l2._set_mask).astype(np.int32)
    job.l2_plan = _plan_lanes(tag, job.op_write, sidx, len(l2._sets),
                              l2._sets, l2._ways, None)


def _gather_l2(job: _Job) -> None:
    """Per-set L2 lanes are exact (true seed, no chunking): just scatter
    outcomes back to op order and keep the final states for the commit."""
    plan = job.l2_plan
    states = _state_dicts(*plan.final)
    job.l2_final = {s: states[j] for j, s in enumerate(plan.lane_set)}
    total = len(plan.order)
    job.op_hit = np.empty(total, dtype=bool)
    job.op_vtag = np.empty(total, dtype=np.int64)
    job.op_vdirty = np.empty(total, dtype=bool)
    job.op_hit[plan.order] = plan.hit
    job.op_vtag[plan.order] = plan.vtag
    job.op_vdirty[plan.order] = plan.vdirty
    job.l2_plan = None


# ---------------------------------------------------------------------------
# Timing, stats, commit
# ---------------------------------------------------------------------------


def _accumulate(start: float, columns, buf: np.ndarray) -> float:
    """``start`` plus the elements of ``columns`` taken in turn —
    ``columns[0][0], columns[1][0], ..., columns[0][1], ...`` — as
    sequential float adds (``np.cumsum`` is bit-identical to them), fed
    slice by slice through the scratch buffer ``buf``."""
    k = len(columns)
    n = len(columns[0])
    step = (len(buf) - 1) // k
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        seg = buf[:k * (hi - lo) + 1]
        seg[0] = start
        for j, column in enumerate(columns):
            seg[1 + j::k] = column[lo:hi]
        np.cumsum(seg, out=seg)
        start = float(seg[-1])
    return start


def _finish(job: _Job):
    from repro.memory.mp import CpuRunResult, observe_latencies

    memory = job.memory
    config = memory.config
    n = job.n
    compute_ns = job.compute_ns
    stall = job.stall
    l1_hit_ns = config.l1_hit_ns
    l2_hit_ns = config.l2_hit_ns
    tlb_miss_ns = config.tlb_miss_ns
    line = config.l1.line_bytes
    l2_shift = memory.l2s[0]._set_shift

    # Refills that miss L2 fetch from memory; only they run scalar.
    refills = np.nonzero(job.op_refill)[0]
    fetches = refills[~job.op_hit[refills]]
    fetch_src = job.op_src[fetches]
    fetch_pos = fetch_src.tolist()
    victim_dirty = job.op_vdirty[fetches] & (job.op_vtag[fetches] >= 0)
    victim_tag = np.where(victim_dirty, job.op_vtag[fetches], -1).tolist()

    l1_hit, tlb_miss = job.l1_hit, job.tlb_miss
    # The four fast latencies (TLB hit/miss x L1 hit/L2 refill), argument
    # grouping per the reference, and their stalls.
    latency_consts = [0.0 + l1_hit_ns, (0.0 + l1_hit_ns) + l2_hit_ns,
                      tlb_miss_ns + l1_hit_ns,
                      (tlb_miss_ns + l1_hit_ns) + l2_hit_ns]
    stall_consts = np.array([stall(latency, compute_ns)
                             for latency in latency_consts])
    key = (tlb_miss.view(np.uint8) << 1) | (~l1_hit).view(np.uint8)
    stall_arr = stall_consts[key]

    compute_col = np.broadcast_to(np.float64(compute_ns), (n,))
    buf = np.empty(2 * min(n, _TIMING_SLICE) + 1)
    sequencer = memory.sequencer
    memory_fetch = memory._memory_fetch
    addr_col = job.addr
    local = 0.0
    queueing_total = 0.0
    fetch_latencies = []
    seg_start = 0
    for si, wb_tag in zip(fetch_pos, victim_tag):
        local = _accumulate(local, (compute_col[seg_start:si],
                                    stall_arr[seg_start:si]), buf)
        issue = local + compute_ns
        translation = tlb_miss_ns if tlb_miss[si] else 0.0
        latency = translation + l1_hit_ns
        issue_bus = issue + latency + l2_hit_ns
        grant, phase_done = sequencer.occupy(issue_bus)
        queueing = grant - issue_bus
        latency += l2_hit_ns + (phase_done - issue_bus)
        start, done = memory_fetch(phase_done, int(addr_col[si]), line)
        queueing += start - phase_done
        latency += done - phase_done
        if wb_tag >= 0:
            memory_fetch(phase_done, wb_tag << l2_shift, line)
        fetch_latencies.append(latency)
        stall_ns = stall(latency, compute_ns)
        stall_arr[si] = stall_ns
        local = issue + stall_ns
        queueing_total += queueing
        seg_start = si + 1
    local = _accumulate(local, (compute_col[seg_start:],
                                stall_arr[seg_start:]), buf)

    fetch_writes = int(np.count_nonzero(job.is_write[fetch_src]))
    _commit(job, len(refills) - len(fetches),
            {BusOp.READ: len(fetches) - fetch_writes,
             BusOp.READ_EXCLUSIVE: fetch_writes},
            int(np.count_nonzero(victim_dirty)))
    if OBS.enabled:
        # Every access's latency, level by level in access order: the
        # fast constants by ``key``, the fetches as computed above.
        latency_arr = np.array(latency_consts)[key]
        refilled = ~l1_hit
        refilled[fetch_src] = False
        observe_latencies(memory, {
            ServiceLevel.L1: latency_arr[l1_hit].tolist(),
            ServiceLevel.L2: latency_arr[refilled].tolist(),
            ServiceLevel.MEMORY: fetch_latencies})
    return CpuRunResult(finish_ns=local, steps=n,
                        compute_ns=_accumulate(0.0, (compute_col,), buf),
                        stall_ns=_accumulate(0.0, (stall_arr,), buf),
                        queueing_ns=queueing_total)


def _commit(job: _Job, l2_refills: int, bus_ops: Dict[BusOp, int],
            writebacks: int) -> None:
    """Fold the oracle outcomes into the real caches and counters, with
    the same per-key attribution as the scalar routes.  ``l2_refills``
    L1 misses hit L2, ``bus_ops`` counts the fetches from memory per bus
    op and ``writebacks`` of those pushed a dirty L2 victim."""
    from repro.memory.mp import fold_replay_counts

    memory = job.memory
    l1, l2, tlb = memory.l1s[0], memory.l2s[0], memory.tlbs[0]
    is_write, l1_hit = job.is_write, job.l1_hit
    vtag, vdirty = job.l1_vtag, job.l1_vdirty
    op_write, op_hit = job.op_write, job.op_hit
    op_vtag, op_vdirty = job.op_vtag, job.op_vdirty

    def count(mask) -> int:
        return int(np.count_nonzero(mask))

    tlb_misses = count(job.tlb_miss)
    fold_replay_counts(
        memory, 0,
        tlb={"hits": job.n - tlb_misses, "misses": tlb_misses,
             "evictions": job.tlb_evictions},
        l1={"read_hit": count(l1_hit & ~is_write),
            "write_hit": count(l1_hit & is_write),
            "read_miss": count(~l1_hit & ~is_write),
            "write_miss": count(~l1_hit & is_write),
            "writeback": count(vdirty),
            "clean_evict": count((vtag >= 0) & ~vdirty)},
        l2={"read_hit": count(op_hit & ~op_write),
            "write_hit": count(op_hit & op_write),
            "read_miss": count(~op_hit & ~op_write),
            "write_miss": count(~op_hit & op_write),
            "writeback": count((op_vtag >= 0) & op_vdirty),
            "clean_evict": count((op_vtag >= 0) & ~op_vdirty)},
        domain={"hit": l2_refills},
        node={"l1_hits": count(l1_hit), "tlb_misses": tlb_misses,
              "l2_hits": l2_refills,
              "memory_accesses": sum(bus_ops.values()),
              "writebacks": writebacks},
        bus_ops=bus_ops)

    for cache, finals in ((l1, job.l1_final), (l2, job.l2_final)):
        for s, state in finals.items():
            line_set = cache._sets[s]
            line_set.clear()
            for tag, dirty in state.items():
                line_set[tag] = _MODIFIED if dirty else _EXCLUSIVE
    tlb._entries.clear()
    for page in job.tlb_final:
        tlb._entries[int(page)] = None


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def replay_batch(specs: Sequence[Tuple]) -> List:
    """Vectorize many independent replays through shared lockstep passes.

    ``specs`` is a sequence of ``(memory, trace, compute_ns, stall_model)``
    tuples, each with its *own* ``MultiprocessorMemory`` (sweep points are
    isolated; batching shares host work, never simulated state).  Returns
    one entry per spec: a ``CpuRunResult``, or ``None`` when that spec's
    preconditions fail and the caller must use the scalar path instead —
    the trace is left unconsumed in that case only if it was an array.
    """
    from repro.memory.mp import CpuRunResult

    results: List = [None] * len(specs)
    jobs: List[_Job] = []
    for index, (memory, trace, compute_ns, stall) in enumerate(specs):
        try:
            arr = coerce_trace(trace)
        except (OverflowError, ValueError):
            continue
        if len(arr) and int(arr["addr"].min()) < 0:
            continue
        if not _supported(memory):
            continue
        if len(arr) == 0:
            results[index] = CpuRunResult(finish_ns=0.0, steps=0,
                                          compute_ns=0.0, stall_ns=0.0,
                                          queueing_ns=0.0)
            continue
        jobs.append(_Job(index, memory, arr, compute_ns, stall))
    if not jobs:
        return results
    for job in jobs:
        _plan_l1(job)
    _pooled_lockstep([job.l1_plan for job in jobs])
    for job in jobs:
        _fixup_l1(job)
        _run_tlb(job)
        _plan_l2(job)
    _pooled_lockstep([job.l2_plan for job in jobs])
    for job in jobs:
        _gather_l2(job)
        results[job.index] = _finish(job)
    return results


def replay_traces_vec(memory, trace, compute_ns: float, stall_model):
    """Single-replay wrapper over :func:`replay_batch` (may return None)."""
    return replay_batch([(memory, trace, compute_ns, stall_model)])[0]
