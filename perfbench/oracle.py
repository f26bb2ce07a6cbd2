"""Expected checksums, computed by the ``interp`` reference backend.

The backends under test are checked against these digests, never against
each other or against themselves.  ``oracle.json`` holds one entry per
(kernel, n) any workload can draw; :meth:`Oracle.ensure` computes a
missing entry with ``interp`` before timing starts.

After a workload gains inputs, add their entries to the file with::

    python3 perfbench/oracle.py

Delete the file first to recompute every entry (about ten minutes:
``interp`` takes one Python step per loop iteration).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: The package's default array seed (``prepare_kernel(seed=7)``), so the
#: checksums equal the ones ``repro exec`` prints.
ARRAY_SEED = 7
REFERENCE_BACKEND = "interp"
ORACLE_PATH = Path(__file__).resolve().with_name("oracle.json")


def entry_key(kernel: str, n: int) -> str:
    return f"{kernel}:{n}"


def reference_checksum(kernel: str, n: int) -> str:
    """Checksum of ``kernel`` at size ``n`` under the ``interp`` backend.

    The checksum does not depend on procs or strip: every legal plan of a
    program computes the same values as the unfused program."""
    from repro.runtime.benchmarking import execute_prepared, prepare_kernel

    prep = prepare_kernel(kernel, n=n, seed=ARRAY_SEED,
                          backend=REFERENCE_BACKEND)
    return execute_prepared(prep, REFERENCE_BACKEND)[2]


class Oracle:
    """The stored table plus any entries computed in this process."""

    def __init__(self, path: Path = ORACLE_PATH) -> None:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if (data.get("reference_backend") != REFERENCE_BACKEND
                or data.get("array_seed") != ARRAY_SEED):
            raise ValueError(f"{path}: not an interp oracle for array seed "
                             f"{ARRAY_SEED}")
        self.entries: dict[str, str] = dict(data["entries"])
        self.computed: list[str] = []

    def ensure(self, pairs) -> None:
        """Compute every missing (kernel, n) entry now."""
        for kernel, n in pairs:
            key = entry_key(kernel, n)
            if key not in self.entries:
                self.entries[key] = reference_checksum(kernel, n)
                self.computed.append(key)

    def expected(self, kernel: str, n: int) -> str:
        return self.entries[entry_key(kernel, n)]


def all_pairs() -> list:
    from workloads import WORKLOADS

    return sorted({pair for cls in WORKLOADS.values()
                   for pair in cls.oracle_pairs()})


def save(entries: dict) -> None:
    ORACLE_PATH.write_text(json.dumps({
        "reference_backend": REFERENCE_BACKEND,
        "array_seed": ARRAY_SEED,
        "entries": dict(sorted(entries.items())),
    }, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    sys.path.insert(0, str(ORACLE_PATH.parent.parent / "src"))
    if not ORACLE_PATH.exists():
        save({})
    oracle = Oracle()
    oracle.ensure(all_pairs())
    save(oracle.entries)
    print(f"{len(oracle.computed)} entries computed: {oracle.computed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
