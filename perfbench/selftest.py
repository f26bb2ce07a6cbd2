#!/usr/bin/env python3
"""Self-test of the benchmark (under a minute):

    python3 perfbench/selftest.py

1. Every workload, run briefly untraced and traced, prints every metric
   that ``BENCHMARK.json`` names, with its unit.
2. The traced runs' spans nest: each child lies inside its parent and
   shares its op id.
3. A corrupted expected checksum fails the run (exit 1, ``correct``
   false, no metrics).
4. Without the program's sources the benchmark exits nonzero and prints
   no result.
5. No run leaves a process behind: this script adopts orphans as their
   subreaper, and after each run it has no child left.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import adopt_orphans, child_pids
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench" / "selftest"
SECONDS = "1"


def run(args, cwd=ROOT) -> tuple[int, list]:
    proc = subprocess.run([sys.executable, *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=300)
    left = child_pids()
    assert not left, f"{args}: processes {left} outlived the run"
    return proc.returncode, proc.stdout.strip().splitlines()


def bench(workload: str, trace: int, *extra) -> tuple[int, list]:
    return run([str(HERE / "run.py"), "--workload", workload, "--seed", "0",
                "--seconds", SECONDS, "--trace", str(trace), *extra])


def check_metrics(workload: str, trace: int, declared: list) -> None:
    code, lines = bench(workload, trace)
    assert code == 0, f"{workload} trace={trace}: exit {code}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}, \
        f"{workload}: metric names differ from BENCHMARK.json"
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"], (workload, metric, entry)
        assert isinstance(entry["value"], (int, float))
        assert math.isfinite(entry["value"])
        if trace == 0:
            assert entry["value"] > 0, (workload, metric, entry)
    print(f"ok   {workload} trace={trace}: {len(declared)} metrics")


def check_nesting(workload: str) -> None:
    events = json.loads((ROOT / ".perfbench" / f"trace-{workload}.json")
                        .read_text())["traceEvents"]
    assert any(e["args"]["parent"] >= 0 for e in events) \
        or workload == "serve-small", f"{workload}: no nested spans"
    by_id = {e["args"]["id"]: e for e in events}
    for event in events:
        parent = event["args"]["parent"]
        if parent < 0:
            continue
        outer = by_id[parent]
        assert outer["ts"] <= event["ts"], (event, outer)
        assert (event["ts"] + event["dur"]
                <= outer["ts"] + outer["dur"] + 1e-3), (event, outer)
        assert event["args"]["op"] == outer["args"]["op"], (event, outer)
    print(f"ok   {workload}: {len(events)} spans nest")


def check_corrupt_oracle() -> None:
    data = json.loads((HERE / "oracle.json").read_text())
    data["entries"]["jacobi:65"] = "0" * 16
    path = SCRATCH / "oracle-corrupt.json"
    path.write_text(json.dumps(data))
    code, lines = bench("serve-small", 0, "--oracle", str(path))
    result = json.loads(lines[-1])
    assert code == 1 and result["correct"] is False, (code, result)
    assert result["metrics"] == {}
    print("ok   corrupted expected checksum fails the run")


def check_without_sources() -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = run([f"{HERE.name}/run.py", "--workload", "native-paper",
                       "--seed", "0", "--seconds", SECONDS, "--trace", "0"],
                      cwd=bare)
    assert code != 0 and not any(line.startswith("{") for line in lines), \
        (code, lines)
    print("ok   no sources: exit", code, "and no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    adopt_orphans()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        # cold-compile too, though BENCHMARK.json does not list it
        for workload in WORKLOADS:
            check_metrics(workload, 0, spec["end_to_end"])
            check_metrics(workload, 1, spec["per_layer"])
            check_nesting(workload)
        check_corrupt_oracle()
        check_without_sources()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
