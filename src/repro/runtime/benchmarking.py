"""Wall-clock measurement of execution backends on the paper's kernels.

This is the machinery behind ``python -m repro exec`` and
``benchmarks/bench_fastexec.py``: build the shift-and-peel plans for every
sequence of a kernel, allocate seeded arrays, execute them through a named
backend (:mod:`repro.runtime.backend`) and report seconds, iteration
counts and a machine-independent checksum.  Records are plain dicts so
they serialize straight into ``BENCH_fastexec.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from ..bench.telemetry import summarize_samples
from ..core import build_execution_plan, derive_shift_peel, max_processors
from ..core.execplan import ExecutionPlan
from ..ir.sequence import Program
from ..kernels import get_kernel
from .backend import checksum, get_backend
from .plancache import default_cache, program_signature


def resolve_params(
    info,
    program: Program,
    params: Optional[Mapping[str, int]] = None,
    n: Optional[int] = None,
) -> dict[str, int]:
    """The concrete parameter binding a kernel runs at."""
    run_params = dict(info.default_params) or {p: 128 for p in program.params}
    if params:
        run_params.update(params)
    if n is not None:
        run_params["n"] = n
        if "m" in run_params:
            run_params["m"] = n
    return run_params


@dataclass
class PreparedKernel:
    """Everything needed to execute one kernel repeatably.

    For the jit backend with a warm program alias, ``modules`` holds the
    compiled plan modules and ``plans`` stays empty — planning was skipped
    entirely.  For ``cjit``, ``native_modules`` holds the dlopen'd
    :class:`~repro.codegen.emitc.CJitModule` per plan when the native tier
    is live, and ``native_reason`` records why it is not (the run falls
    back to the numpy ``modules``).  ``plan_seconds``/``compile_seconds``
    record what preparation actually cost so callers can report overhead
    honestly.
    """

    name: str
    program: Program
    params: dict[str, int]
    plans: list[ExecutionPlan]
    procs: int
    seed: int
    modules: Optional[list] = None
    native_modules: Optional[list] = None
    native_reason: Optional[str] = None
    plan_seconds: float = 0.0
    compile_seconds: float = 0.0
    cache_stats: dict = field(default_factory=dict)

    def alloc(self, arena=None) -> dict[str, np.ndarray]:
        """Fresh seeded arrays in ``[1, 2)``: private, or views placed in
        ``arena`` (a :class:`~repro.runtime.pool.SharedArena`).  Both
        fill in place from the same generator, so the bits match."""
        shapes = {d.name: d.concrete_shape(self.params)
                  for d in self.program.arrays}
        if arena is not None:
            arrays = arena.place(shapes)
        else:
            arrays = {name: np.empty(shape) for name, shape in shapes.items()}
        rng = np.random.default_rng(self.seed)
        for arr in arrays.values():
            rng.random(out=arr)
            arr += 1.0
        return arrays

    @property
    def shape(self) -> str:
        return ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))


def prepare_kernel(
    kernel: str,
    params: Optional[Mapping[str, int]] = None,
    n: Optional[int] = None,
    procs: int = 4,
    seed: int = 7,
    backend: Optional[str] = None,
    strip: Optional[int] = None,
    use_cache: bool = True,
    need_plans: bool = False,
) -> PreparedKernel:
    """Fuse every sequence of ``kernel`` and build its execution plans.

    ``procs`` is clamped per sequence to the legal maximum (Theorem 1); the
    reported processor count is the request, each plan carries its own
    clamped grid.

    For ``backend='jit'`` (and ``'mpjit'``, which executes the same
    compiled modules through the worker pool) with ``use_cache=True`` the
    plan cache is consulted first: a warm program alias (same kernel IR,
    params, procs and strip) yields the compiled modules without running
    the analysis → derive → fuse → plan pipeline at all.  ``cjit`` rides
    the same alias: when every aliased plan also has a cached ``.so`` the
    native modules come back without planning or compiling anything;
    a missing ``.so`` falls through to the planning path, which compiles
    it (or records the fallback reason).  ``need_plans=True`` forces
    planning regardless (``verify`` needs the plans for the interpreter
    oracle).
    """
    info = get_kernel(kernel)
    program = info.program()
    run_params = resolve_params(info, program, params=params, n=n)
    jit_cached = backend in ("jit", "mpjit", "cjit") and use_cache
    cache = default_cache() if jit_cached else None
    alias_key = None
    if jit_cached:
        alias_key = program_signature(program, run_params, procs, strip)
        if not need_plans:
            before = cache.stats.snapshot()
            modules = cache.lookup_alias(alias_key)
            if modules is not None:
                natives = None
                if backend == "cjit":
                    natives = [cache.peek_native(m.signature)
                               for m in modules]
                    if not all(natives):
                        natives = None  # compile on the planning path
                if backend != "cjit" or natives is not None:
                    return PreparedKernel(
                        name=kernel, program=program, params=run_params,
                        plans=[], procs=procs, seed=seed, modules=modules,
                        native_modules=natives,
                        cache_stats=cache.stats.delta(before),
                    )
    t0 = time.perf_counter()
    plans = []
    for seq in program.sequences:
        plan = derive_shift_peel(seq, tuple(program.params), seq.fusable_depth())
        legal = max_processors(plan, run_params)[0]
        plans.append(
            build_execution_plan(plan, run_params, num_procs=min(procs, legal))
        )
    plan_seconds = time.perf_counter() - t0
    modules = None
    native_modules = None
    native_reason = None
    compile_seconds = 0.0
    cache_stats: dict = {}
    if jit_cached:
        before = cache.stats.snapshot()
        modules = [cache.get(ep, strip=strip) for ep in plans]
        cache.link_alias(alias_key, [m.signature for m in modules])
        if backend == "cjit":
            native_modules = []
            for ep in plans:
                native, reason = cache.get_native(ep, strip=strip)
                if native is None:
                    native_modules = None
                    native_reason = reason
                    break
                native_modules.append(native)
            if native_modules is None:
                from ..codegen import emitc

                emitc.note_fallback(
                    native_reason or "native compilation unavailable")
        cache_stats = cache.stats.delta(before)
        compile_seconds = (cache_stats.get("compile_seconds", 0.0)
                           + cache_stats.get("native_compile_seconds", 0.0))
    return PreparedKernel(
        name=kernel, program=program, params=run_params, plans=plans,
        procs=procs, seed=seed, modules=modules,
        native_modules=native_modules, native_reason=native_reason,
        plan_seconds=plan_seconds, compile_seconds=compile_seconds,
        cache_stats=cache_stats,
    )


def execute_prepared(
    prep: PreparedKernel,
    backend: str,
    strip: Optional[int] = None,
    verify: bool = False,
    no_cache: bool = False,
    max_workers: Optional[int] = None,
    sync: Optional[str] = None,
) -> tuple[float, dict[str, int], str]:
    """One timed execution of all sequences: (seconds, counters, checksum).

    ``sync`` selects the phase synchronization for the mp/mpjit backends
    (``"p2p"``/``"barrier"``; None keeps the runner's default, p2p).

    Array allocation and the checksum happen outside the timed region;
    the run itself — including backend setup such as shared-memory
    creation for ``mp`` and, on the first ``mpjit`` run, spawning the
    worker pool — is what the clock sees.  When ``prep`` carries
    precompiled jit modules (and no interpreter verification is
    requested) they run directly — serially for ``jit``, through the
    persistent pool for ``mpjit``; otherwise execution goes through the
    backend registry.  On that direct ``mpjit`` path the arrays are
    allocated in the pool's resident arena, so the run neither copies
    them into shared memory nor back; the views are dropped before this
    call returns.
    """
    direct = prep.modules is not None and not verify
    arena = None
    seconds = 0.0
    if direct and backend == "mpjit":
        from .pool import release_retired, resident_arena, run_mpjit_module

        cache = default_cache()
        cache_root = str(cache.root) if cache.persist else None
        t0 = time.perf_counter()
        nprocs = max((m.nprocs for m in prep.modules), default=1)
        arena = resident_arena(nprocs, max_workers, sync or "p2p")
        seconds = time.perf_counter() - t0  # a pool spawn is run time
    if not direct:
        be = get_backend(backend)
        options: dict = {}
        if backend in ("jit", "mpjit", "cjit") and no_cache:
            options["no_cache"] = True
        if backend in ("mp", "mpjit") and max_workers is not None:
            options["max_workers"] = max_workers
        if backend in ("mp", "mpjit") and sync is not None:
            options["sync"] = sync
    arrays = prep.alloc(arena)
    totals = {"fused_iterations": 0, "peeled_iterations": 0}
    try:
        t0 = time.perf_counter()
        if direct:
            run_modules = prep.modules
            if backend == "cjit" and prep.native_modules is not None:
                run_modules = prep.native_modules  # else jit fallback
            for module in run_modules:
                if backend == "mpjit":
                    stats = run_mpjit_module(module, arrays,
                                             max_workers=max_workers,
                                             cache_root=cache_root,
                                             sync=sync or "p2p")
                else:
                    stats = module.run(arrays)
                for key in totals:
                    totals[key] += stats.get(key, 0)
        else:
            for ep in prep.plans:
                stats = be.run(ep, arrays, strip=strip, verify=verify,
                               **options)
                for key in totals:
                    totals[key] += stats.get(key, 0)
        seconds += time.perf_counter() - t0
        return seconds, totals, checksum(arrays)
    finally:
        arrays.clear()  # arena views never outlive this call
        if arena is not None:
            release_retired()


def _prep_signature(prep: PreparedKernel) -> str:
    """Stable per-artifact key for the circuit breaker: the compiled
    module signature when available, else the plan signature."""
    if prep.modules:
        return prep.modules[0].signature
    if prep.plans:
        return prep.plans[0].signature
    return prep.name


def execute_resilient(
    prep: PreparedKernel,
    backend: str,
    strip: Optional[int] = None,
    no_cache: bool = False,
    max_workers: Optional[int] = None,
    sync: Optional[str] = None,
    policy=None,
    breaker=None,
    signature: Optional[str] = None,
) -> tuple[float, dict[str, int], str, dict]:
    """:func:`execute_prepared` with bounded retries and degradation.

    Exec requests are idempotent (fresh arrays every attempt), so a
    failed attempt is retried after a deterministic exponential backoff
    (:class:`~repro.runtime.supervisor.RetryPolicy`), stepping down the
    backend ladder ``mpjit → jit → vector`` — every rung bit-identical
    by construction, so a degraded answer differs only in latency.  The
    per-signature :class:`~repro.runtime.supervisor.CircuitBreaker`
    remembers recent failures, so a poisoned artifact starts below
    ``mpjit`` instead of rediscovering the failure on every request.

    Returns ``(seconds, counters, checksum, recovery)`` where
    ``recovery`` records ``retries``, ``backend_used``, ``degraded`` and
    the per-attempt failure kinds.  Raises
    :class:`~repro.runtime.supervisor.ExecError` carrying the last
    classified failure once attempts are exhausted.

    The zero-failure fast path costs one breaker dict lookup before the
    run and one after — the retry machinery stays off the hot path.
    """
    from .fastexec import FastExecError
    from .supervisor import (
        ExecError,
        RetryPolicy,
        classify_failure,
        default_breaker,
        degrade_ladder,
    )

    policy = policy or RetryPolicy()
    breaker = breaker or default_breaker()
    if signature is None:
        signature = _prep_signature(prep)
    ladder = degrade_ladder(backend)
    backend_now, _ = breaker.effective_backend(signature, backend)
    attempts: list[dict] = []
    for attempt in range(1, policy.max_attempts + 1):
        try:
            seconds, counters, digest = execute_prepared(
                prep, backend_now, strip=strip, no_cache=no_cache,
                max_workers=max_workers, sync=sync,
            )
        except FastExecError as exc:
            failure = classify_failure(exc)
            breaker.record_failure(signature, backend)
            attempts.append({"backend": backend_now, "kind": failure.kind})
            if attempt >= policy.max_attempts or not failure.retryable:
                if isinstance(exc, ExecError):
                    raise
                raise ExecError(failure) from exc
            index = (ladder.index(backend_now)
                     if backend_now in ladder else 0)
            backend_now = ladder[min(index + 1, len(ladder) - 1)]
            time.sleep(policy.delay(attempt))
        else:
            breaker.record_success(signature)
            recovery = {
                "retries": attempt - 1,
                "requested_backend": backend,
                "backend_used": backend_now,
                "degraded": backend_now != backend,
                "attempts": attempts,
            }
            return seconds, counters, digest, recovery
    raise AssertionError("unreachable")  # pragma: no cover


def measure_kernel(
    kernel: str,
    backend: str,
    params: Optional[Mapping[str, int]] = None,
    n: Optional[int] = None,
    procs: int = 4,
    strip: Optional[int] = None,
    repeat: int = 3,
    seed: int = 7,
    verify: bool = False,
    use_cache: bool = True,
    max_workers: Optional[int] = None,
    deadline_seconds: Optional[float] = None,
    sync: Optional[str] = None,
    label: Optional[str] = None,
    autotune: bool = False,
    tuner=None,
    retries: int = 0,
) -> dict:
    """Per-repeat wall-clock record for one kernel × backend.

    ``sync`` selects the mp/mpjit phase synchronization (``"p2p"`` is
    the runners' default, ``"barrier"`` the paper's global barrier); the
    effective mode is recorded as ``record["sync"]``.  ``label``
    overrides the reported backend name, so the bench harness can gate
    variants like ``mpjit-barrier`` as their own entries.

    ``autotune=True`` consults the measured-cost auto-tuner
    (:mod:`repro.runtime.autotune`) first: the persisted winner for this
    (kernel IR, shape, procs, machine) — timed once, reused on every
    warm run — overrides ``backend``/``strip``/``max_workers``/``sync``,
    and the tuner's key, hit/miss flag and counters are recorded under
    ``record["autotune"]``.

    The checksum must be identical across repeats (execution is
    deterministic); a mismatch raises ``RuntimeError`` immediately.

    Every repeat is kept as its own sample under ``samples`` — a dict of
    ``seconds`` plus that repeat's share of the cost phases the jit cache
    is designed to amortize: ``plan_seconds`` (the analysis → derive →
    fuse → plan pipeline) and ``compile_seconds`` (source emission +
    ``compile()``) are paid by the first repeat only (0 on a warm program
    alias / cache hit respectively), and for ``mpjit`` each sample
    carries its own ``pool_runs``/``pool_spawn_seconds`` delta so pool
    startup is attributed to the repeat that paid it.

    The aggregate fields are derived from the samples: the headline
    ``seconds`` is still the best run, ``median_seconds`` /
    ``warm_median_seconds`` / ``p50`` / ``p95`` / ``p99`` / ``iqr`` /
    ``jitter`` (IQR/median) come from
    :func:`repro.bench.telemetry.summarize_samples`, ``cold_seconds`` is
    plan + compile + first run and ``warm_seconds`` the best run after
    the first.  ``deadline_seconds`` (optional) counts repeats exceeding
    it as ``deadline_misses`` — the service-benchmark semantics.
    ``use_cache=False`` bypasses the plan cache completely.

    For ``mpjit`` the record additionally reports pool totals:
    ``pool_spawn_seconds`` (forking the persistent workers, paid inside
    the *first* run only), ``pool_workers``, ``pool_runs`` and
    ``steady_seconds`` (an alias of ``warm_seconds``: every repeat after
    the first executes against already-warm workers, which is the number
    a long-running service would see).  ``max_workers`` caps the worker
    count for the mp/mpjit backends.
    """
    wall0 = time.perf_counter()
    tuner_info = None
    if autotune:
        from .autotune import resolve_config

        config, tuner_info = resolve_config(
            kernel, params=params, n=n, procs=procs, seed=seed,
            tuner=tuner,
        )
        backend = config.get("backend", backend)
        strip = config.get("strip", strip)
        max_workers = config.get("max_workers", max_workers)
        sync = config.get("sync", sync)
    prep = prepare_kernel(
        kernel, params=params, n=n, procs=procs, seed=seed,
        backend=backend, strip=strip, use_cache=use_cache,
        need_plans=verify,
    )
    pool_snapshot = None
    if backend == "mpjit":
        from .pool import pool_stats

        pool_snapshot = pool_stats()
    digest = None
    counters = None
    samples: list[dict] = []
    recovery_totals = {"retries": 0, "degraded_runs": 0}
    for index in range(max(1, repeat)):
        if retries > 0 and not verify:
            from .supervisor import RetryPolicy

            seconds, totals, run_digest, recovery = execute_resilient(
                prep, backend, strip=strip, no_cache=not use_cache,
                max_workers=max_workers, sync=sync,
                policy=RetryPolicy(max_attempts=retries + 1),
            )
            recovery_totals["retries"] += recovery["retries"]
            recovery_totals["degraded_runs"] += int(recovery["degraded"])
        else:
            seconds, totals, run_digest = execute_prepared(
                prep, backend, strip=strip, verify=verify,
                no_cache=not use_cache, max_workers=max_workers,
                sync=sync,
            )
        if digest is not None and run_digest != digest:
            raise RuntimeError(
                f"{kernel}/{backend}: nondeterministic checksum "
                f"({digest} vs {run_digest})"
            )
        digest = run_digest
        counters = totals
        sample = {
            "seconds": round(seconds, 6),
            "plan_seconds": round(prep.plan_seconds if index == 0 else 0.0, 6),
            "compile_seconds": round(
                prep.compile_seconds if index == 0 else 0.0, 6),
        }
        if backend == "mpjit":
            stats = pool_stats()
            sample["pool_runs"] = (stats.get("runs", 0)
                                   - pool_snapshot.get("runs", 0))
            sample["pool_spawn_seconds"] = round(
                stats.get("spawn_seconds", 0.0)
                - pool_snapshot.get("spawn_seconds", 0.0), 6)
            pool_snapshot = stats
        samples.append(sample)
    total_seconds = time.perf_counter() - wall0
    run_times = [s["seconds"] for s in samples]
    first_run = run_times[0]
    warm_best = min(run_times[1:]) if len(run_times) > 1 else None
    record = {
        "kernel": kernel,
        "backend": label or backend,
        "shape": prep.shape,
        "procs": procs,
        "seconds": round(min(run_times), 6),
        "iterations": counters["fused_iterations"] + counters["peeled_iterations"],
        "checksum": digest,
        "samples": samples,
        "plan_seconds": round(prep.plan_seconds, 6),
        "compile_seconds": round(prep.compile_seconds, 6),
        "cold_seconds": round(
            prep.plan_seconds + prep.compile_seconds + first_run, 6
        ),
        "warm_seconds": round(
            warm_best if warm_best is not None else first_run, 6
        ),
        "total_seconds": round(total_seconds, 6),
    }
    record.update(summarize_samples(run_times,
                                    deadline_seconds=deadline_seconds))
    if backend in ("mp", "mpjit"):
        record["sync"] = sync or "p2p"
    if tuner_info is not None:
        record["autotune"] = tuner_info
    if retries > 0:
        record["recovery"] = dict(recovery_totals, budget=retries)
    if backend in ("jit", "mpjit", "cjit"):
        record["cache"] = dict(prep.cache_stats)
    if backend == "cjit":
        from ..codegen import emitc

        if prep.native_modules is not None:
            native, reason = True, None
        elif use_cache:
            native, reason = False, prep.native_reason
        else:
            # no-cache runs compile inline inside run_cjit; native status
            # mirrors compiler presence, the run itself noted any failure
            native = emitc.find_compiler() is not None
            reason = None if native else \
                "no C compiler found (set $REPRO_CC or install cc)"
        entry: dict = {"native": native}
        if reason:
            entry["fallback_reason"] = reason
        fp = emitc.compiler_fingerprint()
        if fp:
            entry["compiler_fingerprint"] = fp
        record["cjit"] = entry
    if backend == "mpjit":
        stats = pool_stats()
        record["pool_workers"] = stats.get("nworkers", 0)
        record["pool_runs"] = stats.get("runs", 0)
        record["pool_spawn_seconds"] = stats.get("spawn_seconds", 0.0)
        record["steady_seconds"] = record["warm_seconds"]
    return record


def calibrate(loops: int = 2_000_000) -> float:
    """Seconds for a fixed pure-Python workload — a proxy for interpreter
    speed on this machine.  The regression checker scales committed
    baseline times by the calibration ratio so wall-clock gates survive a
    change of hardware."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(loops):
        acc += i * 0.5
    if acc < 0:  # pragma: no cover - keeps the loop from being optimized out
        raise AssertionError
    return time.perf_counter() - t0
