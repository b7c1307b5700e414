"""Self-test of the benchmark's correctness gates.

    python3 perfbench/selftest.py

For each workload it runs one cold worker clean and one with a single
corrupted answer (a wrong valuation, a wrong ``stirling1`` value, a flipped
report verdict), each both plainly and under ``python -O``.  The clean runs
must count no failure and every corrupted run must count at least one, so
the gates are real checks rather than ``assert`` statements.  Exits 1 and
names the case if any expectation fails.
"""

from __future__ import annotations

import sys

from run import WorkerError, spawn

#: workload -> the faults injected into it (see ``worker.INJECTIONS``)
CASES = {
    "p3-sweep": ("vp_int",),
    "oracle-stream": ("full_valuation_3",),
    "identity-report": ("stirling1", "verdict"),
}


def main() -> int:
    bad = []
    for workload, faults in CASES.items():
        for optimize in (False, True):
            for fault in (None, *faults):
                label = f"{workload} inject={fault} {'-O' if optimize else ''}".strip()
                try:
                    doc = spawn(workload, 1, "cold", tag="selftest", inject=fault,
                                optimize=optimize)
                except WorkerError as exc:
                    bad.append(f"{label}: {exc}")
                    continue
                share = doc["failed"] / doc["attempted"]
                print(f"{label:45s} failed_share={share:.3g} "
                      f"({doc['failed']}/{doc['attempted']})")
                if (share > 0) != (fault is not None):
                    bad.append(f"{label}: failed_share={share}")
    for line in bad:
        print(f"FAIL {line}", file=sys.stderr)
    print("selftest:", "FAIL" if bad else "ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
