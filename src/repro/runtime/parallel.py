"""Simulated parallel execution of a fused sequence.

Executes an :class:`~repro.core.execplan.ExecutionPlan` the way the target
machine would: every processor runs its fused block (strip-mined, nests
interleaved strip by strip), then a single barrier, then the peeled
iterations.  Because true multithreading would not make iteration
interleavings reproducible, parallelism is *simulated*: each processor's
work is a generator of single iterations, and a scheduler interleaves the
generators — round-robin, reversed, or adversarially at random.  Any legal
transformation must produce bit-identical results under every interleave,
which is exactly what the test suite asserts.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, MutableMapping, Optional, Sequence

import numpy as np

from ..core.execplan import ExecutionPlan, ProcessorPlan
from ..ir.loop import LoopNest


WorkItem = tuple[int, tuple[int, ...]]  # (nest_idx, iteration vector)
Box = tuple[tuple[int, int], ...]  # inclusive (lo, hi) per nest dimension


def fused_position_extent(
    proc: ProcessorPlan, plan_depth: int, num_nests: int, shifts,
) -> Optional[Box]:
    """Position-space extent of one processor's fused block: per fused
    dimension, the union over nests of the fused range shifted into
    position space.  None when some dimension is empty for every nest
    (the fused block then has no iterations)."""
    pos_lo = [None] * plan_depth
    pos_hi = [None] * plan_depth
    for k in range(num_nests):
        for d in range(plan_depth):
            lo, hi = proc.fused[k][d]
            if hi < lo:
                continue
            s = shifts(k, d)
            plo, phi = lo + s, hi + s
            pos_lo[d] = plo if pos_lo[d] is None else min(pos_lo[d], plo)
            pos_hi[d] = phi if pos_hi[d] is None else max(pos_hi[d], phi)
    if any(lo is None for lo in pos_lo):
        return None
    return tuple(zip(pos_lo, pos_hi))


def fused_tile_boxes(
    proc: ProcessorPlan, plan_depth: int, nests: Sequence[LoopNest],
    shifts, strip: int = 4,
) -> Iterator[tuple[int, Box]]:
    """Yield ``(nest_idx, box)`` for the fused phase of one processor in
    strip-mined order (paper Fig. 12): position-space tiles in
    lexicographic order; per tile, nests in sequence order.  Each box is
    the nest's original-iteration rectangle inside the tile, extended with
    the full range of the nest's non-fused inner dimensions."""
    ndims = plan_depth
    extent = fused_position_extent(proc, ndims, len(nests), shifts)
    if extent is None:
        return
    tile_starts = [range(lo, hi + 1, strip) for lo, hi in extent]
    for tile in itertools.product(*tile_starts):
        for k, nest in enumerate(nests):
            ranges = []
            empty = False
            for d in range(ndims):
                s = shifts(k, d)
                flo, fhi = proc.fused[k][d]
                lo = max(flo, tile[d] - s)
                hi = min(fhi, tile[d] + strip - 1 - s)
                if hi < lo:
                    empty = True
                    break
                ranges.append((lo, hi))
            if empty:
                continue
            for d in range(ndims, nest.depth):
                lo, hi = proc.fused[k][d]
                ranges.append((lo, hi))
            yield (k, tuple(ranges))


def fused_work(
    proc: ProcessorPlan, plan_depth: int, nests: Sequence[LoopNest],
    shifts, strip: int = 4,
) -> Iterator[WorkItem]:
    """Yield the fused-phase iterations of one processor in strip-mined
    order (paper Fig. 12): position-space tiles in lexicographic order; per
    tile, nests in sequence order; per nest, iterations lexicographically."""
    for k, box in fused_tile_boxes(proc, plan_depth, nests, shifts, strip):
        for ivec in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
            yield (k, ivec)


def peeled_work(proc: ProcessorPlan) -> Iterator[WorkItem]:
    """Yield the peeled-phase iterations of one processor: nests in
    sequence order, rectangles in construction order, iterations
    lexicographically (Sec. 3.4's dependence-closed grouping)."""
    rects = sorted(range(len(proc.peeled)), key=lambda r: proc.peeled[r].nest_idx)
    for r in rects:
        rect = proc.peeled[r]
        if rect.is_empty():
            continue
        for ivec in rect.iterations():
            yield (rect.nest_idx, ivec)


def _interleave(
    streams: list[Iterator[WorkItem]],
    mode: str,
    rng: Optional[np.random.Generator],
) -> Iterator[tuple[int, WorkItem]]:
    """Merge per-processor work streams into one global order."""
    live = {p: it for p, it in enumerate(streams)}
    if mode == "sequential":
        for p in sorted(live):
            for item in live[p]:
                yield (p, item)
        return
    if mode == "reversed":
        for p in sorted(live, reverse=True):
            for item in live[p]:
                yield (p, item)
        return
    if mode == "roundrobin":
        while live:
            for p in sorted(live):
                try:
                    yield (p, next(live[p]))
                except StopIteration:
                    del live[p]
        return
    if mode == "random":
        if rng is None:
            rng = np.random.default_rng(0)
        keys = list(live)
        while keys:
            p = keys[int(rng.integers(len(keys)))]
            try:
                yield (p, next(live[p]))
            except StopIteration:
                keys.remove(p)
        return
    raise ValueError(f"unknown interleave mode {mode!r}")


def run_parallel(
    exec_plan: ExecutionPlan,
    arrays: MutableMapping[str, np.ndarray],
    interleave: str = "roundrobin",
    strip: int = 4,
    rng: Optional[np.random.Generator] = None,
) -> dict[str, int]:
    """Execute the fused phase (interleaved), the barrier, then the peeled
    phase (interleaved).  Returns counters for sanity checks."""
    plan = exec_plan.plan
    nests = list(plan.seq)
    params = exec_plan.params
    env_base = dict(params)

    def shifts(k: int, d: int) -> int:
        return plan.shift(k, d)

    fused_streams = [
        fused_work(proc, plan.depth, nests, shifts, strip=strip)
        for proc in exec_plan.processors
    ]
    executed = 0
    for _p, (k, ivec) in _interleave(fused_streams, interleave, rng):
        nest = nests[k]
        env = env_base
        for var, val in zip(nest.loop_vars, ivec):
            env[var] = val
        for st in nest.body:
            st.execute(env, arrays)
        executed += 1

    # ---- barrier (Sec. 3.4) ----
    peeled_streams = [peeled_work(proc) for proc in exec_plan.processors]
    peeled_count = 0
    for _p, (k, ivec) in _interleave(peeled_streams, interleave, rng):
        nest = nests[k]
        env = env_base
        for var, val in zip(nest.loop_vars, ivec):
            env[var] = val
        for st in nest.body:
            st.execute(env, arrays)
        peeled_count += 1

    return {"fused_iterations": executed, "peeled_iterations": peeled_count}


def run_unfused_parallel(
    seq,
    params: Mapping[str, int],
    arrays: MutableMapping[str, np.ndarray],
    num_procs: int,
    interleave: str = "roundrobin",
    rng: Optional[np.random.Generator] = None,
) -> dict[str, int]:
    """Baseline: each nest runs as its own parallel loop with a barrier
    between nests (the original program's execution on the machine)."""
    from ..core.schedule import BlockSchedule

    executed = 0
    for nest in seq:
        params_env = dict(params)
        lo, hi = nest.loops[0].bounds(params)
        nblocks = min(num_procs, max(1, hi - lo + 1))
        sched = BlockSchedule(lo, hi, nblocks)

        def proc_stream(p: int, nest=nest, sched=sched):
            blo, bhi = sched.block(p)
            ranges = [range(blo, bhi + 1)]
            for lp in nest.loops[1:]:
                ranges.append(range(lp.lower.eval(params), lp.upper.eval(params) + 1))
            for ivec in itertools.product(*ranges):
                yield (0, ivec)

        streams = [proc_stream(p) for p in range(1, nblocks + 1)]
        for _p, (_k, ivec) in _interleave(streams, interleave, rng):
            env = params_env
            for var, val in zip(nest.loop_vars, ivec):
                env[var] = val
            for st in nest.body:
                st.execute(env, arrays)
            executed += 1
        # barrier between nests
    return {"iterations": executed}
