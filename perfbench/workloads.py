"""The benchmark's four workloads.

Every workload is a closed loop: a client sends its next op only after the
previous one returned.  ``native-paper``, ``parallel-paper`` and
``cold-compile`` run in the benchmark process; ``serve-small`` sends its
requests to a ``repro serve`` daemon.  Each runs one client.  Why each
workload exists, and which layers it should and should not move, is in
``METRICS.md`` next to this file.

A workload is set up :data:`SETUP_ROUNDS` times from scratch (private empty
plan cache, new pool or daemon) and the median round is its ``setup_s``;
the last round's state serves the measured window.  The seed draws the
inputs a client sends: the kernel order of each pass, the cold-compile
programs, and each serve client's request sequence.  Array contents come
from the package's fixed array seed, so the expected checksums can be
precomputed by the ``interp`` reference backend (``oracle.json``).
"""

from __future__ import annotations

import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from oracle import ARRAY_SEED

#: The paper-size kernels at P=4 (Table 1 shapes).
PAPER = (("jacobi", 511), ("ll18", 511), ("calc", 513), ("filter", 512))
PAPER_PROCS = 4

#: cold-compile draws (kernel or application, n, procs, strip).  Every n
#: of the grid has an ``interp`` checksum in ``oracle.json``.
COLD_KERNELS = ("jacobi", "ll18", "calc", "filter", "hydro2d", "spem",
                "tomcatv")
COLD_N = (33, 49, 65, 81, 97, 113, 129)
#: (procs, strip) configs; each procs and each strip value appears once.
COLD_CONFIGS = ((2, None), (3, 16), (4, 8), (8, 4))
#: The fixed, seed-independent program set a cold-compile set-up warms on.
COLD_WARMUP_N = 65

SERVE_KERNELS = ("jacobi", "ll18", "calc", "filter")
SERVE_N = 65
SERVE_PROCS = 4

SETUP_ROUNDS = 5
#: A traced run traces alternate blocks of this many ops.  One block is a
#: cold-compile round (every kernel once), so traced and untraced ops see
#: the same program mix and their latencies compare.
TRACE_BLOCK = len(COLD_KERNELS)
DAEMON_BOOT_SECONDS = 60.0
DAEMON_DRAIN_SECONDS = 60.0


def is_traced(tracer, index: int) -> bool:
    return tracer is not None and (index // TRACE_BLOCK) % 2 == 1


class WorkloadError(RuntimeError):
    """The workload could not run (its set-up or a client broke)."""


@dataclass
class OpRecord:
    """One op as the client saw it."""

    op_id: str
    latency_s: float
    run_s: float
    traced: bool = False
    failures: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


@dataclass
class Context:
    seed: int
    work_dir: Path
    oracle: object


def measured(tracer, op_id: str):
    """The op's root span when ``tracer`` is set, else nothing."""
    return tracer.op(op_id) if tracer is not None else nullcontext()


def use_private_cache(path: Path) -> None:
    """Point the process-wide plan cache at an empty private directory."""
    from repro.runtime import plancache

    os.environ[plancache.ENV_CACHE_DIR] = str(path)
    plancache.reset_default_cache()


def working_set_bytes(kernel: str, n: int) -> int:
    """Bytes of every array of ``kernel`` at size ``n`` (float64)."""
    from repro.kernels import get_kernel
    from repro.runtime.benchmarking import resolve_params

    info = get_kernel(kernel)
    program = info.program()
    params = resolve_params(info, program, n=n)
    return sum(8 * math.prod(d.concrete_shape(params))
               for d in program.arrays)


def check_recovery(recovery: dict, where: str) -> list:
    if recovery["retries"] or recovery["degraded"]:
        return [f"{where}: retried {recovery['retries']}x, ran on "
                f"{recovery['backend_used']}"]
    return []


class Workload:
    name = ""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.rng = random.Random(f"{self.name}:{ctx.seed}")
        self.retries = 0
        self.degraded = 0

    @classmethod
    def oracle_pairs(cls) -> list:
        """Every (kernel, n) whose checksum the workload may check."""
        raise NotImplementedError

    def working_set(self) -> dict:
        return {f"{k}:{n}": working_set_bytes(k, n)
                for k, n in sorted(set(self.oracle_pairs()))}

    def setup(self, round_index: int) -> list:
        """One set-up from scratch; returns tier-honesty violations."""
        raise NotImplementedError

    def op(self, index: int, tracer) -> OpRecord:
        raise NotImplementedError

    def run_window(self, seconds: float, tracer) -> tuple[list, float]:
        """Ops back to back for ``seconds``; (records, wall seconds).  In
        a traced run alternate blocks of ops are traced."""
        records = []
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            index = len(records)
            traced = is_traced(tracer, index)
            record = self.op(index, tracer if traced else None)
            record.traced = traced
            records.append(record)
        return records, time.perf_counter() - start

    def close(self) -> list:
        """Release everything; returns violations found on the way."""
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_metrics(self, records: list) -> dict:
        """Per-layer numbers the spans cannot give, as name -> value."""
        return {}


class PaperWorkload(Workload):
    """One op = one pass over the four paper kernels, in seed order."""

    backend = ""
    sync: Optional[str] = None

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.preps: list = []

    @classmethod
    def oracle_pairs(cls) -> list:
        return list(PAPER)

    def setup(self, round_index: int) -> list:
        from repro.runtime.benchmarking import prepare_kernel

        use_private_cache(self.ctx.work_dir / f"cache-{round_index}")
        self.preps = [
            prepare_kernel(kernel, n=n, procs=PAPER_PROCS, seed=ARRAY_SEED,
                           backend=self.backend)
            for kernel, n in PAPER
        ]
        _, failures, violations = self.run_pass(self.preps, "warm-up")
        if failures:
            raise WorkloadError("; ".join(failures))
        return violations

    def run_pass(self, order: list, where: str) -> tuple[float, list, list]:
        """Execute each prepared kernel once; (run seconds, failures,
        violations)."""
        from repro.runtime.benchmarking import execute_resilient

        run_s = 0.0
        failures: list = []
        violations: list = []
        for prep in order:
            seconds, _counters, digest, recovery = execute_resilient(
                prep, self.backend, sync=self.sync)
            run_s += seconds
            n = prep.params["n"]
            expected = self.ctx.oracle.expected(prep.name, n)
            if digest != expected:
                failures.append(f"{where} {prep.name} n={n}: checksum "
                                f"{digest} != interp {expected}")
            self.retries += recovery["retries"]
            self.degraded += int(recovery["degraded"])
            violations += check_recovery(recovery, f"{where} {prep.name}")
        return run_s, failures, violations

    def op(self, index: int, tracer) -> OpRecord:
        order = self.rng.sample(self.preps, len(self.preps))
        with measured(tracer, f"op-{index}"):
            t0 = time.perf_counter()
            run_s, failures, violations = self.run_pass(order, f"op {index}")
            latency = time.perf_counter() - t0
        return OpRecord(f"op-{index}", latency, run_s, failures=failures,
                        violations=violations + self.op_violations(index))

    def op_violations(self, index: int) -> list:
        return []


class NativePaper(PaperWorkload):
    """cjit over the paper kernels; the pool is never touched."""

    name = "native-paper"
    backend = "cjit"

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        from repro.codegen import emitc

        self.fallbacks_at_start = emitc.fallback_stats()["count"]

    def setup(self, round_index: int) -> list:
        violations = super().setup(round_index)
        for prep in self.preps:
            if prep.native_modules is None:
                violations.append(f"cjit fell back to jit for {prep.name}: "
                                  f"{prep.native_reason}")
        return violations

    def close(self) -> list:
        from repro.codegen import emitc

        fallbacks = emitc.fallback_stats()["count"] - self.fallbacks_at_start
        if fallbacks:
            return [f"cjit fell back to jit {fallbacks}x "
                    f"({emitc.fallback_stats()['last_reason']})"]
        return []


class ParallelPaper(PaperWorkload):
    """mpjit (p2p sync, one worker per CPU) over the paper kernels."""

    name = "parallel-paper"
    backend = "mpjit"
    sync = "p2p"

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.spawn_seconds: list = []
        self.pool_runs = 0

    def setup(self, round_index: int) -> list:
        from repro.runtime.pool import pool_stats, shutdown_pool

        shutdown_pool()  # every round pays its own pool spawn
        self.pool_runs = 0
        violations = super().setup(round_index)
        stats = pool_stats()
        self.spawn_seconds.append(stats["spawn_seconds"])
        return violations + self._pool_violations(stats, "warm-up")

    def _pool_violations(self, stats: dict, where: str) -> list:
        modules = sum(len(prep.modules) for prep in self.preps)
        runs = stats["runs"] - self.pool_runs
        self.pool_runs = stats["runs"]
        if stats["nworkers"] < 2 or runs != modules:
            return [f"{where}: mpjit bypassed the pool ({runs} pool runs "
                    f"for {modules} modules, {stats['nworkers']} workers)"]
        return []

    def op_violations(self, index: int) -> list:
        from repro.runtime.pool import pool_stats

        return self._pool_violations(pool_stats(), f"op {index}")

    def layer_metrics(self, records: list) -> dict:
        """Pool facts, and serial jit over the same modules as the
        single-threaded baseline."""
        from repro.runtime.benchmarking import execute_prepared
        from repro.runtime.pool import pool_stats

        stats = pool_stats()
        serial = []
        for _ in range(5):
            serial.append(sum(execute_prepared(prep, "jit")[0]
                              for prep in self.preps))
        parallel = statistics.median(r.run_s for r in records)
        return {
            "pool.spawn_s": statistics.median(self.spawn_seconds),
            "pool.workers": stats["nworkers"],
            "pool.respawns": stats["respawns"],
            "parallel.speedup_vs_jit": statistics.median(serial) / parallel,
        }

    def close(self) -> list:
        """Shut the pool down; a worker that outlives it is caught and
        reported by ``run.stop_children``."""
        from repro.runtime.pool import shutdown_pool

        shutdown_pool()
        return []


class ColdCompile(Workload):
    """Seed-drawn programs, each prepared through jit from an empty plan
    cache and run once: every op is a plan-cache miss."""

    name = "cold-compile"

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.programs: list = []

    def program(self, index: int) -> tuple:
        """The ``index``-th drawn program.

        Programs come in rounds that hold every kernel once, in seed
        order.  In its j-th round a kernel gets n = N[j % 7] and
        (procs, strip) = C[j % 4], where N and C are seed permutations
        of the grid and the configs, redrawn every 28 rounds.  As 7 and 4
        are coprime, 28 rounds give each kernel every (n, config) pair
        once, and any 7 (4) consecutive rounds every n (config) once, so
        however far a window gets, its mix hardly depends on the seed."""
        cycle = len(COLD_N) * len(COLD_CONFIGS)
        while len(self.programs) <= index:
            ns = {k: self.rng.sample(COLD_N, len(COLD_N))
                  for k in COLD_KERNELS}
            configs = {k: self.rng.sample(COLD_CONFIGS, len(COLD_CONFIGS))
                       for k in COLD_KERNELS}
            for j in range(cycle):
                for kernel in self.rng.sample(COLD_KERNELS,
                                              len(COLD_KERNELS)):
                    procs, strip = configs[kernel][j % len(COLD_CONFIGS)]
                    self.programs.append(
                        (kernel, ns[kernel][j % len(COLD_N)], procs, strip))
        return self.programs[index]

    @classmethod
    def oracle_pairs(cls) -> list:
        return [(k, n) for k in COLD_KERNELS for n in COLD_N]

    def working_set(self) -> dict:
        sizes = [working_set_bytes(k, n) for k, n in self.oracle_pairs()]
        return {"min": min(sizes), "max": max(sizes)}

    def compile_once(self, kernel: str, n: int, procs: int,
                     strip: Optional[int], cache: Path, where: str,
                     tracer=None) -> OpRecord:
        from repro.runtime.benchmarking import (
            execute_resilient,
            prepare_kernel,
        )

        use_private_cache(cache)
        with measured(tracer, where):
            t0 = time.perf_counter()
            prep = prepare_kernel(kernel, n=n, procs=procs, strip=strip,
                                  seed=ARRAY_SEED, backend="jit")
            seconds, _counters, digest, recovery = execute_resilient(
                prep, "jit", strip=strip)
            latency = time.perf_counter() - t0
        shutil.rmtree(cache, ignore_errors=True)
        record = OpRecord(where, latency, seconds)
        label = f"{where} {kernel} n={n} P={procs} strip={strip}"
        expected = self.ctx.oracle.expected(kernel, n)
        if digest != expected:
            record.failures.append(f"{label}: checksum {digest} != interp "
                                   f"{expected}")
        self.retries += recovery["retries"]
        self.degraded += int(recovery["degraded"])
        record.violations += check_recovery(recovery, label)
        stats = prep.cache_stats
        if (not prep.plans or stats.get("misses") != len(prep.plans)
                or stats.get("memory_hits") or stats.get("disk_hits")):
            record.violations.append(f"{label}: not a plan-cache miss "
                                     f"({stats})")
        return record

    def setup(self, round_index: int) -> list:
        violations = []
        for kernel in COLD_KERNELS:
            record = self.compile_once(
                kernel, COLD_WARMUP_N, PAPER_PROCS, None,
                self.ctx.work_dir / f"warm-{round_index}-{kernel}",
                f"warm-up {round_index}")
            if record.failures:
                raise WorkloadError("; ".join(record.failures))
            violations += record.violations
        return violations

    def op(self, index: int, tracer) -> OpRecord:
        kernel, n, procs, strip = self.program(index)
        return self.compile_once(kernel, n, procs, strip,
                                 self.ctx.work_dir / f"op-{index}",
                                 f"op-{index}", tracer)


class ServeSmall(Workload):
    """``repro serve`` on a private unix socket; one closed-loop client
    (one connection) sends jit exec requests.  One client, because a
    second one on a 2-CPU host made the client threads and the daemon
    contend for the CPUs: in two of ten runs the 90th-percentile op took
    twice as long."""

    name = "serve-small"

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.daemon: Optional[subprocess.Popen] = None
        self.socket: Optional[str] = None
        self.client = None
        self.status: dict = {}

    @classmethod
    def oracle_pairs(cls) -> list:
        return [(k, SERVE_N) for k in SERVE_KERNELS]

    def _pass(self, order: list, op_id: str, tracer=None) -> OpRecord:
        """One op: an exec request per kernel, each awaited in turn.  (A
        single request is not the op: the kernels' run times form four
        clusters, and a percentile over them jumps between clusters.)"""
        replies = []
        with measured(tracer, op_id):
            t0 = time.perf_counter()
            for kernel in order:
                sent = time.perf_counter()
                resp = self.client.exec(kernel, req_id=f"{op_id}-{kernel}",
                                        n=SERVE_N, procs=SERVE_PROCS,
                                        backend="jit")
                replies.append((kernel, resp, time.perf_counter() - sent))
            latency = time.perf_counter() - t0
        record = OpRecord(op_id, latency, 0.0)
        exec_ms = queue_ms = rtt_ms = 0.0
        batched = shed = 0
        for kernel, resp, rtt in replies:
            where = f"{op_id} {kernel}"
            result = resp.get("result") or {}
            if resp.get("status") != "ok":
                record.failures.append(f"{where}: {resp.get('status')} "
                                       f"{resp.get('error')}")
                shed += int(resp.get("status") == "overloaded")
                continue
            expected = self.ctx.oracle.expected(kernel, SERVE_N)
            if result.get("checksum") != expected:
                record.failures.append(f"{where}: checksum "
                                       f"{result.get('checksum')} != interp "
                                       f"{expected}")
            if result.get("retries") or result.get("degraded"):
                self.retries += result.get("retries", 0)
                self.degraded += int(bool(result.get("degraded")))
                record.violations.append(f"{where}: retried or degraded "
                                         f"({result})")
            record.run_s += result["seconds"]
            exec_ms += result["seconds"] * 1000.0
            queue_ms += result["queue_ms"]
            rtt_ms += rtt * 1000.0
            batched += int(bool(result.get("batched")))
        record.extra.update(exec_ms=exec_ms, queue_ms=queue_ms,
                            rtt_ms=rtt_ms, batched=batched, shed=shed,
                            requests=len(replies))
        return record

    def _boot(self, round_index: int) -> None:
        from repro.serve.client import ServeClient, ServeClientError

        work = self.ctx.work_dir
        work.mkdir(parents=True, exist_ok=True)
        # relative to the checkout root (the cwd of both processes), which
        # keeps the path inside the unix-socket length limit
        self.socket = os.path.relpath(work / f"serve-{round_index}.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path("src").resolve()), env.get("PYTHONPATH"))
            if p)
        env["REPRO_JIT_CACHE_DIR"] = str(work / f"cache-{round_index}")
        with open(work / f"serve-{round_index}.log", "wb") as log:
            self.daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--socket", self.socket],
                env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
        deadline = time.monotonic() + DAEMON_BOOT_SECONDS
        while True:
            if self.daemon.poll() is not None:
                raise WorkloadError(f"daemon exited with "
                                    f"{self.daemon.returncode} while booting")
            if os.path.exists(self.socket):
                try:
                    with ServeClient(socket_path=self.socket) as probe:
                        if probe.ping().get("ok"):
                            return
                except (OSError, ServeClientError):
                    pass
            if time.monotonic() > deadline:
                raise WorkloadError("daemon did not answer a ping in "
                                    f"{DAEMON_BOOT_SECONDS:.0f}s")
            time.sleep(0.002)

    def setup(self, round_index: int) -> list:
        from repro.serve.client import ServeClient

        violations = self._stop_daemon()
        self._boot(round_index)
        self.client = ServeClient(socket_path=self.socket)
        record = self._pass(list(SERVE_KERNELS), f"warm-{round_index}")
        if record.failures:
            raise WorkloadError("; ".join(record.failures))
        return violations + record.violations

    def op(self, index: int, tracer) -> OpRecord:
        order = self.rng.sample(SERVE_KERNELS, len(SERVE_KERNELS))
        return self._pass(order, f"op-{index}", tracer)

    def run_window(self, seconds: float, tracer) -> tuple[list, float]:
        records, wall = super().run_window(seconds, tracer)
        with_status = self.client.status()
        self.status = with_status.get("result", with_status)
        return records, wall

    def _stop_daemon(self) -> list:
        """SIGTERM drain; a nonzero exit or a leftover process in the
        daemon's session is a violation."""
        if self.client is not None:
            self.client.close()
            self.client = None
        daemon, self.daemon = self.daemon, None
        if daemon is None:
            return []
        violations = []
        daemon.send_signal(signal.SIGTERM)
        try:
            code = daemon.wait(timeout=DAEMON_DRAIN_SECONDS)
        except subprocess.TimeoutExpired:
            os.killpg(daemon.pid, signal.SIGKILL)
            daemon.wait()
            return ["daemon did not drain after SIGTERM"]
        if code != 0:
            violations.append(f"daemon exited with {code} after SIGTERM")
        try:
            os.killpg(daemon.pid, 0)
        except ProcessLookupError:
            pass
        else:
            os.killpg(daemon.pid, signal.SIGKILL)
            violations.append("daemon left processes behind")
        return violations

    def close(self) -> list:
        return self._stop_daemon()

    def peak_rss_mb(self) -> float:
        """The daemons are the benchmark's only children here, so the
        largest reaped child is the daemon."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def layer_metrics(self, records: list) -> dict:
        """Per-op sums over the op's requests, medians over ops."""
        ok = [r for r in records if not r.failures]

        def median(values) -> float:
            return statistics.median(values) if values else 0.0

        exec_ms = median([r.extra["exec_ms"] for r in ok])
        requests = sum(r.extra["requests"] for r in records)
        return {
            "serve.exec_ms": exec_ms,
            "serve.admission_ms": median(
                [r.extra["queue_ms"] - r.extra["exec_ms"] for r in ok]),
            "serve.transport_ms": median(
                [r.extra["rtt_ms"] - r.extra["queue_ms"] for r in ok]),
            "serve.batched_ratio": (sum(r.extra["batched"] for r in records)
                                    / requests if requests else 0.0),
            "serve.shed": sum(r.extra["shed"] for r in records),
            "jit.run_ms": exec_ms,
            "pool.respawns": self.status.get("pool", {}).get("respawns", 0),
        }


WORKLOADS = {w.name: w for w in (NativePaper, ParallelPaper, ColdCompile,
                                 ServeSmall)}
