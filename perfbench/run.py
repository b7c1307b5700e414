"""Layered benchmark for stirval's differential verifier.

    python3 perfbench/run.py --workload p3-sweep --seed 1 --seconds 42 --trace 0

Every timed pass runs in a fresh interpreter (``worker.py``), started one at
a time from this process, so caches are cold the way a ``stirval verify``
user sees them.  With ``--trace 0`` it reports the end-to-end metrics: the
medians over the workers it had time for.  With ``--trace 1`` it alternates
an untraced and a traced worker and reports the per-layer metrics of the
traced ones.  The last stdout line is the JSON result; the full document,
with the run manifest and every sample, goes to ``.perfbench_out/``.
``--workload all`` runs every workload in turn and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("p3-sweep", "oracle-stream", "identity-report")

#: Fewest workers whose passes a run reports, however short ``--seconds``.
MIN_WORKERS = 3
#: Fewest set-up samples a run reports.
MIN_SETUPS = 11
#: A worker that takes longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 150


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class WorkerError(RuntimeError):
    """A worker exited abnormally or printed no result."""


class UndeclaredMetric(RuntimeError):
    """BENCHMARK.json declares a metric that the benchmark does not produce."""


def _pick(values: dict[str, float], units: dict[str, str]) -> dict:
    """The declared metrics, with their units, out of the produced ``values``."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise UndeclaredMetric(f"declared but not produced: {', '.join(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def spawn(workload: str, seed: int, mode: str, *, tag: str, inject: str | None = None,
          optimize: bool = False, spans: str | None = None) -> dict:
    """Run one worker to completion and return its result document."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    workdir = os.path.join(OUT, f"work-{workload}-{tag}")
    cmd = [sys.executable, *(["-O"] if optimize else []), os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode, "--workdir", workdir]
    if inject:
        cmd += ["--inject", inject]
    if spans:
        cmd += ["--spans", spans]
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} worker ({mode}) exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _git_commit() -> str:
    """HEAD of the checkout's own .git, read directly; 'unknown' without one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All workers of one run, and the metrics they give."""
    start = time.monotonic()
    tag = f"{os.getpid()}"
    # the first start-up in a checkout compiles bytecode; keep it out of set-up
    began = time.monotonic()
    spawn(workload, seed, "setup", tag=tag)
    boot = time.monotonic() - began
    workers, pairs = [], []
    last = 0.0

    def reserve() -> float:
        """Time still owed to the set-up samples the workers will not give."""
        return 0.0 if trace else boot * max(0, MIN_SETUPS - len(workers) - 1)

    while len(workers) < MIN_WORKERS or time.monotonic() - start + last + reserve() <= seconds:
        began = time.monotonic()
        if trace:
            n = len(pairs)
            spans = os.path.join(OUT, f"spans-{workload}-seed{seed}-{n}.jsonl.gz")
            plain = spawn(workload, seed, "cold", tag=tag)
            traced = spawn(workload, seed, "traced", tag=tag, spans=spans)
            pairs.append((plain, traced))
            workers += [plain, traced]
        else:
            workers.append(spawn(workload, seed, "run", tag=tag))
        last = time.monotonic() - began
    setups = [w["setup_s"] for w in workers]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, "setup", tag=tag)["setup_s"])

    ops = workers[0]["ops"]
    end_to_end, per_layer = declared_metrics()
    if trace:
        layers = {name: statistics.median([t["layers"][name] for _, t in pairs])
                  for name in pairs[0][1]["layers"]}
        layers["trace.overhead_share"] = statistics.median(
            [t["cold_s"] / p["cold_s"] - 1 for p, t in pairs])
        metrics = _pick(layers, per_layer)
    else:
        metrics = _pick({
            "setup_s": statistics.median(setups),
            "cold_ops_per_s": statistics.median([ops / w["cold_s"] for w in workers]),
            "warm_ops_per_s": statistics.median([ops / w["warm_s"] for w in workers]),
            "peak_rss_mib": statistics.median([w["rss_mib"] for w in workers]),
        }, end_to_end)
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    manifest = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "stirval_version": workers[0]["version"],
        "git_commit": _git_commit(),
        "ops_per_pass": ops,
        "grid": workers[0]["grid"],
        "workers": len(workers),
        "setup_samples": len(setups),
        "missing_names": workers[-1].get("missing", []),
        "failed_share": failed / attempted,
    }
    return {
        "manifest": manifest,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "samples": {"setup_s": setups,
                    "workers": [{k: v for k, v in w.items() if k != "grid"} for w in workers]},
    }


def _table(doc: dict) -> str:
    wl = doc["manifest"]["workload"]
    res = doc["result"]
    lines = [f"{wl:16s} {name:24s} {m['value']:>14.6g} {m['unit']}"
             for name, m in res["metrics"].items()]
    lines.append(f"{wl:16s} {'failed_share':24s} {doc['manifest']['failed_share']:>14.6g} "
                 f"ratio ({res['failed']}/{res['attempted']})")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "stirval", "__init__.py")):
        print("error: no stirval package under src/ next to the benchmark", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    docs = []
    try:
        for name in names:
            doc = measure(name, args.seed, args.seconds, bool(args.trace))
            path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=1)
            docs.append(doc)
    except (WorkerError, UndeclaredMetric, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for doc in docs:
        print(json.dumps({"manifest": doc["manifest"]}))
    for doc in docs:
        print(_table(doc))
    if len(docs) == 1:
        result = docs[0]["result"]
    else:
        result = {
            "correct": all(d["result"]["correct"] for d in docs),
            "attempted": sum(d["result"]["attempted"] for d in docs),
            "failed": sum(d["result"]["failed"] for d in docs),
            "metrics": {f"{d['manifest']['workload']}.{name}": m
                        for d in docs for name, m in d["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
