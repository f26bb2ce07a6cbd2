"""Worker-crash safety for the mp and mpjit backends.

A parallel runtime is only production-grade if a dead worker surfaces as
a prompt, informative error instead of a 600 s barrier hang.  These tests
inject failures into one worker — a Python exception (the traceback must
travel to the parent) and a hard ``os._exit`` (the liveness poll must
notice) — and assert that the run raises
:class:`~repro.runtime.fastexec.FastExecError` well under 10 seconds,
leaks no shared-memory segments and leaves no live child processes.
Failure injection relies on ``fork`` start-method inheritance (the
monkeypatched module state is visible in the forked worker), so the
crash tests skip on platforms without ``fork``.
"""

import multiprocessing as mp
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import build_execution_plan, derive_shift_peel
from repro.ir import Affine, Loop, LoopNest, LoopSequence, assign, load
from repro.runtime import fastexec
from repro.runtime import pool as pool_mod
from repro.runtime.fastexec import (
    FastExecError,
    P2PSync,
    SyncAborted,
    _resolve_workers,
    run_mp,
    sync_timeout,
)
from repro.runtime.pool import pool_stats, run_mpjit, shutdown_pool

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="crash injection relies on fork inheritance",
)

CRASH_BUDGET_SECONDS = 10.0


def _plan(n=25, procs=3):
    i = Affine.var("i")
    nsym = Affine.var("n")
    seq = LoopSequence(
        (
            LoopNest((Loop.make("i", 2, nsym - 1),),
                     (assign("a", i, load("b", i)),), name="L1"),
            LoopNest((Loop.make("i", 2, nsym - 1),),
                     (assign("c", i, load("a", i + 1) + load("a", i - 1)),),
                     name="L2"),
        ),
        name="chain",
    )
    plan = derive_shift_peel(seq, ("n",))
    return build_execution_plan(plan, {"n": n}, num_procs=procs)


def _arrays(size=26, seed=11):
    rng = np.random.default_rng(seed)
    return {name: rng.random(size) + 0.5 for name in "abc"}


def _shm_entries():
    """Names of live POSIX shared-memory segments (Linux); None elsewhere."""
    base = Path("/dev/shm")
    if not base.is_dir():
        return None
    return {p.name for p in base.iterdir()}


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Crash tests must not inherit (or leave behind) a live pool: the
    injection hook is captured at fork time, and a poisoned barrier must
    not leak into the next test."""
    shutdown_pool()
    yield
    pool_mod._test_worker_hook = None
    shutdown_pool()


@pytest.fixture
def leak_check():
    """Assert no new shm segments and no new child processes survive."""
    shm_before = _shm_entries()
    children_before = set(mp.active_children())
    yield
    # A healthy pool deliberately outlives the run; retire it before
    # checking so only *unexpected* survivors count as leaks.
    shutdown_pool()
    leftover = set(mp.active_children()) - children_before
    assert not leftover, f"live child processes leaked: {leftover}"
    if shm_before is not None:
        leaked = _shm_entries() - shm_before
        assert not leaked, f"shared-memory segments leaked: {leaked}"


class TestSyncTimeoutEnv:
    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(fastexec.ENV_SYNC_TIMEOUT, "42.5")
        assert sync_timeout() == 42.5

    def test_garbage_and_nonpositive_raise_naming_the_variable(
        self, monkeypatch
    ):
        """A typo'd knob must fail loudly at parse time — a silent
        fall-back to 600 s turns a config error into a mystery hang."""
        from repro.runtime.fastexec import EnvConfigError

        for bad in ("abc", "1h", "-3", "0"):
            monkeypatch.setenv(fastexec.ENV_SYNC_TIMEOUT, bad)
            with pytest.raises(EnvConfigError,
                               match=fastexec.ENV_SYNC_TIMEOUT):
                sync_timeout()

    def test_unset_and_blank_fall_back(self, monkeypatch):
        monkeypatch.setenv(fastexec.ENV_SYNC_TIMEOUT, "")
        assert sync_timeout() == fastexec.DEFAULT_SYNC_TIMEOUT
        monkeypatch.delenv(fastexec.ENV_SYNC_TIMEOUT)
        assert sync_timeout() == fastexec.DEFAULT_SYNC_TIMEOUT

    @needs_fork
    def test_bad_env_rejected_before_any_fork(self, monkeypatch):
        """mpjit validates the knob in the parent — the error names the
        variable instead of surfacing as a worker traceback."""
        from repro.runtime.fastexec import EnvConfigError

        monkeypatch.setenv(fastexec.ENV_SYNC_TIMEOUT, "soon")
        with pytest.raises(EnvConfigError,
                           match=fastexec.ENV_SYNC_TIMEOUT):
            run_mpjit(_plan(), _arrays(), max_workers=2)
        assert pool_stats()["alive"] is False  # nothing was spawned

    def test_pytest_suite_runs_bounded(self):
        """The conftest fixture must keep the backstop in seconds, not
        minutes, for every test in this suite."""
        assert sync_timeout() <= 15


class TestP2PSyncUnit:
    """Deterministic unit checks of the event protocol — no processes."""

    def _sync(self, nprocs=3):
        ctx = mp.get_context()
        return P2PSync([ctx.Event() for _ in range(nprocs)], ctx.Event())

    def test_wait_returns_once_preds_signalled(self):
        sync = self._sync()
        sync.signal_fused_done(0)
        sync.signal_fused_done(2)
        sync.wait_for((0, 2))  # must not block
        sync.wait_for(())      # no predecessors: immediate

    def test_abort_releases_waiter_promptly(self):
        """A waiter parked on a never-signalled event must observe the
        abort within the poll interval — the sub-0.2 s failure budget."""
        sync = self._sync()
        sync.abort()
        t0 = time.monotonic()
        with pytest.raises(SyncAborted, match="a peer failed first"):
            sync.wait_for((1,))
        assert time.monotonic() - t0 < 0.2

    def test_timeout_raises_and_aborts_peers(self):
        sync = self._sync()
        with pytest.raises(SyncAborted, match="no fused-done signal"):
            sync.wait_for((1,), timeout=0.15)
        # the timed-out waiter released everyone else
        assert sync.abort_event.is_set()

    def test_unknown_sync_mode_rejected(self):
        with pytest.raises(FastExecError, match="unknown sync mode"):
            run_mp(_plan(), _arrays(), max_workers=2, sync="psychic")
        with pytest.raises(FastExecError, match="unknown sync mode"):
            run_mpjit(_plan(), _arrays(), max_workers=2, sync="psychic")


class TestRunMpCrashSafety:
    @needs_fork
    def test_worker_exception_ships_traceback(self, monkeypatch, leak_check):
        def boom(*args, **kwargs):
            raise ValueError("injected-mp-boom")

        monkeypatch.setattr(fastexec, "_run_proc_fused", boom)
        t0 = time.monotonic()
        with pytest.raises(FastExecError) as excinfo:
            run_mp(_plan(), _arrays(), max_workers=2)
        assert time.monotonic() - t0 < CRASH_BUDGET_SECONDS
        message = str(excinfo.value)
        assert "injected-mp-boom" in message
        assert "Traceback" in message

    @needs_fork
    def test_worker_hard_crash_detected_by_liveness_poll(
        self, monkeypatch, leak_check
    ):
        monkeypatch.setattr(
            fastexec, "_run_proc_fused",
            lambda *args, **kwargs: os._exit(17),
        )
        t0 = time.monotonic()
        with pytest.raises(FastExecError) as excinfo:
            run_mp(_plan(), _arrays(), max_workers=2)
        assert time.monotonic() - t0 < CRASH_BUDGET_SECONDS
        message = str(excinfo.value)
        assert "died without reporting" in message
        assert "17" in message

    @needs_fork
    def test_peel_phase_exception_after_barrier(self, monkeypatch, leak_check):
        def boom(*args, **kwargs):
            raise RuntimeError("injected-peel-boom")

        monkeypatch.setattr(fastexec, "_run_proc_peeled", boom)
        t0 = time.monotonic()
        with pytest.raises(FastExecError, match="injected-peel-boom"):
            run_mp(_plan(), _arrays(), max_workers=2)
        assert time.monotonic() - t0 < CRASH_BUDGET_SECONDS

    def test_default_worker_count_capped_by_cores(self, monkeypatch):
        """A 56-processor plan must not fork 56 processes on a small host."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _resolve_workers(56, None) == 4
        assert _resolve_workers(2, None) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _resolve_workers(56, None) == 1
        # An explicit request still wins (tests use it to force the pool).
        assert _resolve_workers(56, 8) == 8
        assert _resolve_workers(3, 8) == 3
        assert _resolve_workers(3, 0) == 1


class TestMpjitCrashSafety:
    @needs_fork
    def test_worker_exception_ships_traceback(self, leak_check):
        from repro.runtime.supervisor import default_supervisor

        def boom(worker_id, signature):
            raise ValueError("injected-mpjit-boom")

        pool_mod._test_worker_hook = boom
        t0 = time.monotonic()
        with pytest.raises(FastExecError) as excinfo:
            run_mpjit(_plan(), _arrays(), max_workers=2)
        assert time.monotonic() - t0 < CRASH_BUDGET_SECONDS
        message = str(excinfo.value)
        assert "injected-mpjit-boom" in message
        assert "Traceback" in message
        # The poisoned pool is repaired off the hot path, not abandoned.
        default_supervisor().wait(timeout=10.0)
        assert pool_stats()["alive"] is True

    @needs_fork
    def test_worker_hard_crash_detected_and_classified(self, leak_check):
        from repro.runtime.supervisor import ExecError, default_supervisor

        pool_mod._test_worker_hook = (
            lambda worker_id, signature: os._exit(23)
        )
        t0 = time.monotonic()
        with pytest.raises(ExecError) as excinfo:
            run_mpjit(_plan(), _arrays(), max_workers=2)
        assert time.monotonic() - t0 < CRASH_BUDGET_SECONDS
        assert "died without reporting" in str(excinfo.value)
        failure = excinfo.value.failure
        assert failure.kind == "worker_crash"
        assert failure.retryable is True
        assert 23 in failure.exitcodes
        supervisor = default_supervisor()
        supervisor.wait(timeout=10.0)
        assert pool_stats()["alive"] is True
        stats = supervisor.stats()
        assert stats["recoveries"] >= 1
        assert stats["failures"].get("worker_crash", 0) >= 1
        assert any(q["exitcode"] == 23 for q in stats["quarantined"])

    @needs_fork
    def test_pool_recovers_after_crash(self, leak_check):
        """A failed run poisons the pool; after the supervisor's repair
        (or an explicit teardown) the next run must produce correct
        results.  The explicit shutdown here also discards the repaired
        workers, which inherited the injection hook at fork time."""
        from repro.runtime.supervisor import default_supervisor

        def boom(worker_id, signature):
            raise ValueError("poison")

        pool_mod._test_worker_hook = boom
        with pytest.raises(FastExecError):
            run_mpjit(_plan(), _arrays(), max_workers=2)
        pool_mod._test_worker_hook = None
        default_supervisor().wait(timeout=10.0)
        shutdown_pool()

        ep = _plan()
        base = _arrays()
        from repro.runtime import run_parallel

        ref = {k: v.copy() for k, v in base.items()}
        expected = run_parallel(ep, ref)
        got = {k: v.copy() for k, v in base.items()}
        stats = run_mpjit(ep, got, max_workers=2)
        assert stats == {
            "fused_iterations": expected["fused_iterations"],
            "peeled_iterations": expected["peeled_iterations"],
        }
        for name in ref:
            assert np.array_equal(ref[name], got[name]), name
        assert pool_stats()["alive"] is True


class TestP2PCrashPropagation:
    """Crashes on the point-to-point path: a worker dying *before* it
    signals fused-done must fail its dependents promptly (via the parent
    liveness poll + abort event), release shared memory and poison the
    pool — never strand a waiter until the timeout backstop."""

    @needs_fork
    def test_mp_partial_fused_crash_releases_waiters(
        self, monkeypatch, leak_check
    ):
        """Worker 0 (procs 0 and 2) dies after signaling proc 0 but
        before proc 2; worker 1's peeled phase waits on proc 2's event
        and must be released by the abort, not the 600 s backstop."""
        real = fastexec._run_proc_fused
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1  # per-process state: fork copies it at zero
            if calls["n"] == 2:
                os._exit(29)
            return real(*args, **kwargs)

        monkeypatch.setattr(fastexec, "_run_proc_fused", flaky)
        t0 = time.monotonic()
        with pytest.raises(FastExecError) as excinfo:
            run_mp(_plan(), _arrays(), max_workers=2, sync="p2p")
        assert time.monotonic() - t0 < CRASH_BUDGET_SECONDS
        assert "died without reporting" in str(excinfo.value)

    @needs_fork
    def test_mp_barrier_mode_crash_still_prompt(self, monkeypatch, leak_check):
        """The explicit barrier path keeps the historical semantics."""
        monkeypatch.setattr(fastexec, "_run_proc_fused",
                            lambda *a, **k: os._exit(31))
        t0 = time.monotonic()
        with pytest.raises(FastExecError, match="died without reporting"):
            run_mp(_plan(), _arrays(), max_workers=2, sync="barrier")
        assert time.monotonic() - t0 < CRASH_BUDGET_SECONDS

    @needs_fork
    def test_mpjit_crash_before_fused_done_repaired_in_place(
        self, leak_check
    ):
        """A pool worker dying before any fused-done signal: dependents
        fail fast, the supervisor re-forks only the corpse (warm
        survivors keep their modules — ``spawns`` does not move), and
        the next p2p run produces the reference bits."""
        from repro.runtime import faults
        from repro.runtime.supervisor import ExecError, default_supervisor

        run_mpjit(_plan(), _arrays(), max_workers=2, sync="p2p")  # warm
        spawns_before = pool_stats()["spawns"]
        faults.install_plan(faults.FaultPlan.parse(
            "crash@run=1:worker=0:exitcode=37", source="test"))
        t0 = time.monotonic()
        with pytest.raises(ExecError) as excinfo:
            run_mpjit(_plan(), _arrays(), max_workers=2, sync="p2p")
        assert time.monotonic() - t0 < CRASH_BUDGET_SECONDS
        assert "died without reporting" in str(excinfo.value)
        assert excinfo.value.failure.kind == "worker_crash"
        faults.install_plan(None)
        supervisor = default_supervisor()
        supervisor.wait(timeout=10.0)
        stats = pool_stats()
        assert stats["alive"] is True
        assert stats["spawns"] == spawns_before  # in-place, not teardown
        assert supervisor.stats()["respawns"] >= 1

        ep = _plan()
        base = _arrays()
        from repro.runtime import run_parallel

        ref = {k: v.copy() for k, v in base.items()}
        run_parallel(ep, ref)
        got = {k: v.copy() for k, v in base.items()}
        run_mpjit(ep, got, max_workers=2, sync="p2p")
        assert pool_stats()["last_sync"] == "p2p"
        for name in ref:
            assert np.array_equal(ref[name], got[name]), name

    @needs_fork
    def test_mpjit_exception_during_p2p_ships_traceback(self, leak_check):
        from repro.runtime.supervisor import default_supervisor

        def boom(worker_id, signature):
            if worker_id == 1:
                raise ValueError("injected-p2p-boom")

        pool_mod._test_worker_hook = boom
        t0 = time.monotonic()
        with pytest.raises(FastExecError) as excinfo:
            run_mpjit(_plan(), _arrays(), max_workers=2, sync="p2p")
        assert time.monotonic() - t0 < CRASH_BUDGET_SECONDS
        message = str(excinfo.value)
        assert "injected-p2p-boom" in message
        assert "Traceback" in message
        default_supervisor().wait(timeout=10.0)
        assert pool_stats()["alive"] is True


class TestP2PSlotFallback:
    def test_plan_larger_than_event_table_uses_barrier(
        self, monkeypatch, leak_check
    ):
        """A plan with more processors than preallocated event slots must
        fall back to the global barrier for that run — and still produce
        the reference bits."""
        monkeypatch.setattr(pool_mod, "P2P_EVENT_SLOTS", 2)
        ep = _plan(procs=3)
        base = _arrays()
        from repro.runtime import run_parallel

        ref = {k: v.copy() for k, v in base.items()}
        run_parallel(ep, ref)
        got = {k: v.copy() for k, v in base.items()}
        run_mpjit(ep, got, max_workers=2, sync="p2p")
        assert pool_stats()["last_sync"] == "barrier"
        for name in ref:
            assert np.array_equal(ref[name], got[name]), name

    def test_pool_stats_report_sync_and_slots(self, leak_check):
        run_mpjit(_plan(), _arrays(), max_workers=2)
        stats = pool_stats()
        assert stats["last_sync"] == "p2p"
        assert stats["p2p_slots"] >= stats["nworkers"]
        run_mpjit(_plan(), _arrays(), max_workers=2, sync="barrier")
        assert pool_stats()["last_sync"] == "barrier"


class TestPoolLifecycle:
    def test_pool_spawned_once_across_runs(self, leak_check):
        """The fork/spawn cost is paid once and amortized: repeated mpjit
        runs reuse the same workers, and a warm worker re-executes from
        its in-memory module (recompiling nothing)."""
        ep = _plan()
        spawns_before = pool_stats()["spawns"]
        for _ in range(3):
            run_mpjit(ep, _arrays(), max_workers=2)
        stats = pool_stats()
        assert stats["alive"] is True
        assert stats["spawns"] == spawns_before + 1
        assert stats["runs"] == 3
        assert stats["nworkers"] == 2
        # First run: workers load the parent-persisted source from the
        # on-disk plan cache; afterwards it is memory-resident.
        assert stats["last_load_modes"] == ["memory", "memory"]

    def test_single_worker_bypasses_pool(self, leak_check):
        """With one resolved worker the compiled module runs serially
        in-process — no pool, no shared memory."""
        run_mpjit(_plan(procs=2), _arrays(), max_workers=1)
        assert pool_stats()["alive"] is False

    def test_worker_loads_from_disk_cache_when_cold(self, leak_check):
        """A cold worker fetches the generated source from the on-disk
        plan cache by signature (one compile, no emission)."""
        run_mpjit(_plan(), _arrays(), max_workers=2)
        assert pool_stats()["last_load_modes"] == ["disk", "disk"]

    def test_success_leaves_no_shm(self):
        before = _shm_entries()
        if before is None:
            pytest.skip("no /dev/shm on this platform")
        run_mpjit(_plan(), _arrays(), max_workers=2)
        shutdown_pool()
        assert _shm_entries() - before == set()

    def test_shutdown_is_idempotent(self, leak_check):
        """A daemon's SIGTERM drain and the atexit hook may both reach
        the pool: the second (and third) close must be a silent no-op,
        not a double-close of queues or re-terminate of reaped workers."""
        run_mpjit(_plan(), _arrays(), max_workers=2)
        pool = pool_mod._pool
        assert pool is not None and not pool.closed
        pool.close()          # the explicit daemon-facing alias
        assert pool.closed
        pool.close()          # second call: no-op
        pool.shutdown()       # and via the original name too
        assert all(not p.is_alive() for p in pool.workers.values())
        # The module-level teardown is equally reentrant, including
        # after the pool object itself was already closed.
        shutdown_pool()
        shutdown_pool()
        assert pool_stats()["alive"] is False

    def test_pool_respawns_after_close(self, leak_check):
        """Closing the pool must not poison the process: the next run
        transparently spawns a fresh pool."""
        run_mpjit(_plan(), _arrays(), max_workers=2)
        spawns = pool_stats()["spawns"]
        shutdown_pool()
        counters = run_mpjit(_plan(), _arrays(), max_workers=2)
        assert counters["fused_iterations"] > 0
        assert pool_stats()["spawns"] == spawns + 1
        assert pool_stats()["alive"] is True


def _prep(kernel="jacobi", n=17):
    from repro.runtime.benchmarking import prepare_kernel

    return prepare_kernel(kernel, n=n, procs=4, backend="mpjit")


def _interp_digest(kernel, n):
    from repro.runtime.benchmarking import execute_prepared, prepare_kernel

    prep = prepare_kernel(kernel, n=n, procs=4, backend="interp")
    return execute_prepared(prep, "interp")[2]


class TestResidentArena:
    """The pool's shared-memory arena: arrays are allocated in it, workers
    map it once per generation, and no segment is created, attached or
    unlinked per run."""

    @pytest.mark.parametrize("kernel", ["jacobi", "ll18", "calc", "filter"])
    def test_paper_kernels_bit_identical_to_interp(self, kernel,
                                                   leak_check):
        from repro.runtime.benchmarking import execute_prepared

        prep = _prep(kernel, n=33)
        runs = pool_stats()["runs"]
        _, _, digest = execute_prepared(prep, "mpjit", max_workers=2)
        stats = pool_stats()
        assert stats["runs"] - runs == len(prep.modules)  # no bypass
        assert stats["arena_generation"] >= 1
        assert digest == _interp_digest(kernel, 33)

    def test_small_large_small_grows_once_never_shrinks(self, leak_check):
        from repro.runtime.benchmarking import execute_prepared

        execute_prepared(_prep(n=17), "mpjit", max_workers=2)
        small = pool_stats()
        execute_prepared(_prep(n=65), "mpjit", max_workers=2)
        large = pool_stats()
        execute_prepared(_prep(n=17), "mpjit", max_workers=2)
        again = pool_stats()
        assert large["arena_generation"] == small["arena_generation"] + 1
        assert large["arena_bytes"] > small["arena_bytes"]
        assert again["arena_generation"] == large["arena_generation"]
        assert again["arena_bytes"] == large["arena_bytes"]
        assert again["spawns"] == small["spawns"]

    def test_no_segment_per_run(self, leak_check):
        """Warm runs neither create nor unlink shared-memory segments."""
        from repro.runtime.benchmarking import execute_prepared

        prep = _prep()
        execute_prepared(prep, "mpjit", max_workers=2)
        before = _shm_entries()
        if before is None:
            pytest.skip("no /dev/shm on this platform")
        for _ in range(3):
            execute_prepared(prep, "mpjit", max_workers=2)
            run_mpjit(_plan(), _arrays(), max_workers=2)  # staged
        assert _shm_entries() == before

    @needs_fork
    def test_inplace_respawn_reattaches_arena(self, leak_check):
        from repro.runtime import faults
        from repro.runtime.benchmarking import execute_prepared
        from repro.runtime.supervisor import ExecError, default_supervisor

        prep = _prep()
        _, _, expected = execute_prepared(prep, "mpjit", max_workers=2)
        arena = pool_mod._pool.arena.name
        spawns = pool_stats()["spawns"]
        faults.install_plan(faults.FaultPlan.parse(
            "crash@run=1:worker=1:exitcode=41", source="test"))
        with pytest.raises(ExecError) as excinfo:
            execute_prepared(prep, "mpjit", max_workers=2)
        assert excinfo.value.failure.kind == "worker_crash"
        faults.install_plan(None)
        default_supervisor().wait(timeout=10.0)
        assert pool_stats()["spawns"] == spawns  # repaired in place
        assert default_supervisor().stats()["respawns"] >= 1
        _, _, digest = execute_prepared(prep, "mpjit", max_workers=2)
        assert digest == expected
        assert pool_mod._pool.arena.name == arena  # same generation

    def test_staged_path_writes_back_into_callers_arrays(self, leak_check):
        from repro.runtime import run_parallel

        ep = _plan()
        base = _arrays()
        ref = {k: v.copy() for k, v in base.items()}
        run_parallel(ep, ref)
        got = {k: v.copy() for k, v in base.items()}
        held = dict(got)
        run_mpjit(ep, got, max_workers=2)
        assert pool_stats()["arena_generation"] == 1  # staged, not bypassed
        for name in ref:
            assert got[name] is held[name]
            assert np.array_equal(ref[name], got[name]), name

    @needs_fork
    def test_pool_replaced_between_alloc_and_dispatch(self, leak_check):
        """A worker dies after the arrays were placed in the arena: the
        replaced pool's arena is not closed under the live views, the
        run stages into the new pool's arena, and the bits still match."""
        import signal

        from repro.runtime.benchmarking import execute_prepared

        prep = _prep()
        _, _, expected = execute_prepared(prep, "mpjit", max_workers=2)
        spawns = pool_stats()["spawns"]
        old_arena = pool_mod._pool.arena.name
        alloc = prep.alloc

        def alloc_then_kill(arena=None):
            arrays = alloc(arena)
            victim = pool_mod._pool.workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            return arrays

        prep.alloc = alloc_then_kill
        _, _, digest = execute_prepared(prep, "mpjit", max_workers=2)
        del prep.alloc
        assert digest == expected
        assert pool_stats()["spawns"] == spawns + 1
        assert pool_mod._pool.arena.name != old_arena
        assert pool_mod._retired == []  # unmapped once the views went
        shm = _shm_entries()
        if shm is not None:
            assert old_arena not in shm

    def test_shutdown_leaves_no_shm_entry(self, leak_check):
        from repro.runtime.benchmarking import execute_prepared

        if _shm_entries() is None:
            pytest.skip("no /dev/shm on this platform")
        execute_prepared(_prep(), "mpjit", max_workers=2)
        name = pool_mod._pool.arena.name
        assert name in _shm_entries()
        shutdown_pool()
        assert name not in _shm_entries()

    def test_run_then_shutdown_prints_no_tracker_warning(self):
        """Workers never cancel the parent's tracker registration: a run,
        an arena growth and a shutdown leave the resource tracker quiet
        (no "leaked shared_memory" warning, no tracker traceback)."""
        import subprocess
        import sys

        script = (
            "from repro.runtime.benchmarking import execute_prepared, "
            "prepare_kernel\n"
            "from repro.runtime.pool import shutdown_pool\n"
            "for n in (17, 65, 17):\n"
            "    prep = prepare_kernel('jacobi', n=n, procs=4, "
            "backend='mpjit')\n"
            "    execute_prepared(prep, 'mpjit', max_workers=2)\n"
            "shutdown_pool()\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "leaked" not in done.stderr
        assert "Traceback" not in done.stderr
