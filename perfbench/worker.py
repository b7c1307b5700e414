"""One fresh interpreter: set up a workload, time its passes, check them.

Started by ``run.py``; prints one JSON object as its last stdout line.

Modes:
  setup   set up only (for set-up time samples)
  cold    set up, then one timed pass with every cache empty
  run     cold pass, then an identical warm pass in the same process
  traced  cold pass with layer spans recorded around stirval's public names

``--spawn-ns`` is the parent's ``time.monotonic_ns()`` just before it
started this process; CLOCK_MONOTONIC is shared by all processes, so the
set-up time covers interpreter start-up as well as import and input
generation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import stirval  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _once(fn, corrupt):
    """Wrap ``fn`` so that its first result passes through ``corrupt``."""
    fired = []

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if fired:
            return result
        fired.append(True)
        return corrupt(result)

    return wrapper


def _bump(v):
    return stirval.Valuation(0) if v.is_infinite else v + 1


def _flip_first(report):
    first = report.records[0]
    flipped = dataclasses.replace(first, passed=not first.passed)
    return type(report)(report.suite, [flipped, *report.records[1:]])


#: Self-test faults: each corrupts the first answer of one public name,
#: either everywhere stirval binds it or, for a library lookup, only as
#: ``stirval.<name>`` (inside a suite a wrong s(0, 0) can be multiplied by 0).
INJECTIONS = {
    "vp_int": ("padic", "vp_int", _bump, True),
    "full_valuation_3": ("oracles", "full_valuation_3", _bump, True),
    "stirling1": ("bigmath", "stirling1", lambda v: v + 1, False),
    "verdict": ("verify", "sweep", _flip_first, True),
}


def _inject(fault: str) -> None:
    layer, name, corrupt, everywhere = INJECTIONS[fault]
    if not everywhere:
        setattr(stirval, name, _once(getattr(stirval, name), corrupt))
    elif tracer.rebind(layer, name, lambda fn: _once(fn, corrupt)) is None:
        raise SystemExit(f"cannot inject into missing name stirval.{layer}.{name}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "cold", "run", "traced"])
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    ap.add_argument("--inject", default=None, choices=sorted(INJECTIONS))
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    doc = {"setup_s": setup_s, "version": stirval.__version__, "ops": wl.ops, "grid": wl.grid}
    if args.mode == "setup":
        wl.close()
        print(json.dumps(doc))
        return 0

    if args.inject:
        _inject(args.inject)

    trace = tracer.Tracer(args.workload) if args.mode == "traced" else None
    outputs = []
    try:
        if trace is not None:
            trace.install()
        t0 = time.perf_counter()
        outputs.append(wl.run())
        doc["cold_s"] = time.perf_counter() - t0
        if trace is not None:
            trace.uninstall()
            doc["layers"] = trace.metrics(doc["cold_s"])
            doc["missing"] = trace.missing
            if args.spans:
                trace.write(args.spans)
        if args.mode == "run":
            t0 = time.perf_counter()
            outputs.append(wl.run())
            doc["warm_s"] = time.perf_counter() - t0
        # peak resident memory of the passes, before the gate adds its own
        doc["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        doc["attempted"] = wl.ops * len(outputs)
        doc["failed"] = sum(wl.check(out) for out in outputs)
    finally:
        wl.close()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
