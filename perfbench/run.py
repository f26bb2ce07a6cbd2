#!/usr/bin/env python3
"""The repository benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload native-paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run it from anywhere; it works in the checkout that holds it and writes
only under ``.perfbench/`` there.  Every op's checksum is compared with
the ``interp`` reference (``oracle.json``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run (``METRICS.md``
defines each one).  The line before it is the run's record: environment,
sample counts and set-up rounds.

Exit status: 0 on success; 1 on a checksum mismatch, a failed or refused
op, or a tier-honesty violation (cjit fell back to jit, mpjit bypassed
the pool, an op was retried or degraded, a daemon did not drain cleanly);
2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench"

#: End-to-end metrics (``--trace 0``) and their units.  Medians and rates
#: go to the record instead: they follow the host's speed (METRICS.md).
END_TO_END = {
    "setup_s": "s",
    "op_p90_ms": "ms",
    "run_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer self-time metrics: metric -> span name (see tracing.TARGETS).
SPAN_MS = {
    "runtime.prepare_ms": "runtime.prepare",
    "core.derive_ms": "core.derive",
    "core.execplan_ms": "core.execplan",
    "dependence.analyze_ms": "dependence.analyze",
    "codegen.emitpy_ms": "codegen.emitpy",
    "codegen.pycompile_ms": "codegen.pycompile",
    "codegen.emitc_ms": "codegen.emitc",
    "codegen.cc_ms": "codegen.cc",
    "codegen.dlopen_ms": "codegen.dlopen",
    "plancache.get_ms": "plancache.get",
    "plancache.lookup_alias_ms": "plancache.lookup_alias",
    "cjit.run_ms": "cjit.run",
    "jit.run_ms": "jit.run",
    "pool.export_ms": "pool.export",
    "pool.copy_back_ms": "pool.copy_back",
    "pool.release_ms": "pool.release",
    "pool.get_pool_ms": "pool.get_pool",
    "pool.run_module_ms": "pool.run_module",
    "runtime.alloc_ms": "runtime.alloc",
    "runtime.checksum_ms": "runtime.checksum",
    "runtime.exec_overhead_ms": "runtime.exec",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    **{name: "ms" for name in SPAN_MS},
    "codegen.py_source_bytes": "bytes",
    "codegen.c_source_bytes": "bytes",
    "plancache.hits": "count",
    "plancache.misses": "count",
    "plancache.hit_ratio": "ratio",
    "pool.marshal_share": "ratio",
    "pool.spawn_s": "s",
    "pool.workers": "count",
    "pool.respawns": "count",
    "parallel.speedup_vs_jit": "ratio",
    "serve.exec_ms": "ms",
    "serve.admission_ms": "ms",
    "serve.transport_ms": "ms",
    "serve.batched_ratio": "ratio",
    "serve.shed": "count",
    "supervisor.retries": "count",
    "supervisor.degraded": "count",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

MARSHAL_SPANS = ("pool.export", "pool.copy_back", "pool.release")

#: How long a child may take to end after its pipe closes or SIGTERM.
CHILD_GRACE_SECONDS = 10.0
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux),
    so a process a child leaves behind becomes ours to stop and wait for."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1,
                                                0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list:
    """Pids whose parent is this process, zombies included."""
    me, pids = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(stat.parent.name))
    return pids


def wait_gone(pid: int, deadline: float) -> bool:
    """Reap child ``pid``, polling until ``deadline``; True once it ended."""
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)


def stop_children() -> list:
    """Stop every process this run left and wait until each has ended.

    The first shared-memory segment starts multiprocessing's resource
    tracker, which otherwise ends only after this process has exited:
    close its pipe and reap it.  Any other child (or adopted orphan) is a
    leak: it is sent SIGTERM, then SIGKILL, reaped, and reported."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        pid, tracker._fd, tracker._pid = tracker._pid, None, None
        if pid is not None and not wait_gone(
                pid, time.monotonic() + CHILD_GRACE_SECONDS):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    leaks = []
    for _ in range(3):  # a stopped child's orphans are adopted in turn
        pids = child_pids()
        if not pids:
            break
        for pid in pids:
            if wait_gone(pid, time.monotonic()):
                continue  # a zombie, now reaped
            leaks.append(f"process {pid} outlived the run")
            os.kill(pid, signal.SIGTERM)
            if not wait_gone(pid, time.monotonic() + CHILD_GRACE_SECONDS):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return leaks


def cpu_caches() -> dict:
    """Data/unified cache sizes of CPU 0 in bytes, by level ({} when the
    kernel does not expose them)."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
        out[f"L{level}"] = int(size.rstrip("KM")) * scale
    return out


def environment(workload) -> dict:
    import numpy

    from repro.bench.telemetry import machine_snapshot
    from repro.codegen import emitc

    return {
        **machine_snapshot(),
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "compiler_fingerprint": emitc.compiler_fingerprint(),
        "cpu_cache_bytes": cpu_caches(),
        "working_set_bytes": workload.working_set(),
    }


#: Units of :func:`window_stats`, whose unbounded entries the run prints
#: and records beside the end-to-end metrics.
WINDOW_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                "run_p50_ms": "ms", "run_p90_ms": "ms"}


def window_stats(records: list, wall: float) -> dict:
    """Rate and percentiles of the measured window."""
    from repro.bench.telemetry import percentile

    latencies = [r.latency_s * 1000.0 for r in records]
    runs = [r.run_s * 1000.0 for r in records]
    return {
        "ops_per_s": len(records) / wall,
        "op_p50_ms": percentile(latencies, 50),
        "op_p90_ms": percentile(latencies, 90),
        "run_p50_ms": percentile(runs, 50),
        "run_p90_ms": percentile(runs, 90),
    }


def end_to_end(workload, setup_s: list, window: dict, records: list,
               failed: int) -> dict:
    return {
        "setup_s": statistics.median(setup_s),
        "op_p90_ms": window["op_p90_ms"],
        "run_p90_ms": window["run_p90_ms"],
        "ok_ratio": (len(records) - failed) / len(records),
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def per_layer(workload, tracer, records: list, setup_ops: list) -> dict:
    from tracing import OP, median_over_ops, total

    table = tracer.per_op()
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    ops = set(setup_ops) | {r.op_id for r in traced}
    metrics = {name: median_over_ops(table, span, ops=ops) / 1e6
               for name, span in SPAN_MS.items()}
    metrics["codegen.py_source_bytes"] = median_over_ops(
        table, "codegen.emitpy", "bytes", ops=ops)
    metrics["codegen.c_source_bytes"] = median_over_ops(
        table, "codegen.emitc", "bytes", ops=ops)
    gets = total(table, "plancache.get", "calls", ops=ops)
    misses = total(table, "plancache.get", "miss", ops=ops)
    metrics["plancache.hits"] = gets - misses
    metrics["plancache.misses"] = misses
    metrics["plancache.hit_ratio"] = (gets - misses) / gets if gets else 0.0
    window = {r.op_id for r in traced}
    marshal = sum(total(table, span, ops=window) for span in MARSHAL_SPANS)
    run_s = sum(r.run_s for r in traced)
    metrics["pool.marshal_share"] = marshal / 1e9 / run_s if marshal else 0.0
    metrics.update({"pool.spawn_s": 0.0, "pool.workers": 0,
                    "pool.respawns": 0, "parallel.speedup_vs_jit": 0.0,
                    "serve.exec_ms": 0.0, "serve.admission_ms": 0.0,
                    "serve.transport_ms": 0.0, "serve.batched_ratio": 0.0,
                    "serve.shed": 0})
    metrics.update(workload.layer_metrics(records))
    metrics["supervisor.retries"] = workload.retries
    metrics["supervisor.degraded"] = workload.degraded
    metrics["trace.unattributed_ms"] = median_over_ops(
        table, OP, ops=window) / 1e6
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.latency_s for r in traced)
        / statistics.median(r.latency_s for r in plain) - 1.0
        if traced and plain else 0.0)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 oracle_path: Path) -> tuple[dict, dict]:
    """Set up, measure and tear down one workload: (result, record)."""
    from oracle import Oracle
    from tracing import Tracer
    from workloads import SETUP_ROUNDS, WORKLOADS, Context, measured

    work_dir = WORK_ROOT / f"run-{os.getpid()}"
    # the C compiler's and Python's temporary files stay in the checkout
    (work_dir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work_dir / "tmp")
    tempfile.tempdir = None
    oracle = Oracle(oracle_path)
    workload = WORKLOADS[name](Context(seed, work_dir, oracle))
    oracle.ensure(workload.oracle_pairs())  # before any timing starts
    env = environment(workload)
    tracer = Tracer() if trace else None
    violations: list = []
    setup_s: list = []
    setup_ops = [f"setup-{r}" for r in range(SETUP_ROUNDS)]
    try:
        if tracer is not None:
            tracer.install()
        for op_id in setup_ops:
            t0 = time.perf_counter()
            with measured(tracer, op_id):
                violations += workload.setup(len(setup_s))
            setup_s.append(time.perf_counter() - t0)
        records, wall = workload.run_window(seconds, tracer)
        layers = (per_layer(workload, tracer, records, setup_ops)
                  if tracer is not None else None)
    finally:
        violations += workload.close()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
    failures = [f for r in records for f in r.failures]
    violations += [v for r in records for v in r.violations]
    failed = sum(1 for r in records if r.failures or r.violations)
    window = window_stats(records, wall)
    if tracer is not None:
        tracer.write(WORK_ROOT / f"trace-{name}.json")
        violations += tracer.nesting_errors()
        metrics, units = layers, PER_LAYER
    else:
        metrics = end_to_end(workload, setup_s, window, records, failed)
        units = END_TO_END
    from repro.bench.telemetry import summarize_samples

    record = {
        "workload": name, "seed": seed, "trace": int(trace),
        "window_s": wall, "samples": len(records),
        "traced_samples": sum(1 for r in records if r.traced),
        "setup_rounds_s": setup_s,
        "window": window,
        "latency": summarize_samples([r.latency_s for r in records]),
        "oracle_computed": oracle.computed,
        "failures": failures[:20], "violations": violations[:20],
        "env": env,
    }
    result = {
        "correct": not failures and not violations,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    return result, record


def run_all(args) -> int:
    """Every workload, each in its own process (so peak RSS is its own)."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--oracle", str(args.oracle)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            status = status or 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--oracle", type=Path,
                        default=HERE / "oracle.json",
                        help="expected-checksum table (interp reference)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.oracle = args.oracle.resolve()
    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        print(f"perfbench: no program sources at {source.parent}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    # machine_snapshot asks git for the sha; keep it inside the checkout
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    import repro

    if Path(repro.__file__).resolve() != source.resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"this checkout", file=sys.stderr)
        return 2
    adopt_orphans()
    # a SIGTERM unwinds like an error, so the clean-ups below still run;
    # forked pool workers keep the default action
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.register_at_fork(after_in_child=lambda: signal.signal(
        signal.SIGTERM, signal.SIG_DFL))
    if args.workload == "all":
        try:
            return run_all(args)
        finally:
            stop_children()
    result = None
    try:
        result, record = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.oracle)
    except Exception:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
    finally:
        leaks = stop_children()
    if result is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    if leaks:
        record["violations"] += leaks
        result["correct"] = False
    for problem in record["failures"] + record["violations"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if not result["correct"]:
        result["metrics"] = {}  # a failed run reports no numbers
    for metric, entry in result["metrics"].items():
        print(f"{args.workload:<15} {metric:<28} {entry['value']:>14.6g} "
              f"{entry['unit']}")
    if result["metrics"] and not args.trace:
        for metric, value in record["window"].items():
            if metric not in result["metrics"]:
                print(f"{args.workload:<15} {metric:<28} {value:>14.6g} "
                      f"{WINDOW_UNITS[metric]} (no bound)")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
