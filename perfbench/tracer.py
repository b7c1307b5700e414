"""Layer spans for the traced run, recorded around stirval's public names.

The tracer replaces each public name a layer exposes to its callers with a
wrapper that records a span (name, start, end, parent) in flat arrays.  It
rebinds every reference to the original object in the loaded ``stirval``
modules, because the modules import each other's names directly.  Nothing
under ``src/`` is edited.  A name that no longer exists is reported as
missing; the rest of the run is unaffected.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import json
import os
import sys
import time

#: (layer, public name, kind).  The kind groups names into the per-layer
#: metrics; ``Class.method`` names are patched on the class.
SPEC = (
    ("bigmath", "stirling1_row", "row"),
    ("bigmath", "stirling1", "row"),
    ("bigmath", "stirling1_shifted_row", "row"),
    ("bigmath", "stirling1_shifted", "row"),
    ("bigmath", "harmonic_sym", "harmonic"),
    ("bigmath", "bernoulli", "bernoulli"),
    ("padic", "vp_int", "vp"),
    ("padic", "vp_rational", "vp"),
    ("padic", "vp_factorial", "vp"),
    ("oracles", "full_valuation_3", "query"),
    ("oracles", "thm1_valuation", "query"),
    ("oracles", "cor1_valuation", "query"),
    ("oracles", "thm2_shift_valuation", "query"),
    ("oracles", "max_valuation_bound", "query"),
    ("oracles", "conjecture13_valuation", "query"),
    ("oracles", "decompose", "query"),
    ("oracles", "decompose_p", "query"),
    ("oracles", "h_valuation", "query"),
    ("verify", "sweep", "sweep"),
    ("verify", "explore_conjecture13", "sweep"),
    ("verify", "VerificationReport.to_json", "report"),
    ("verify", "VerificationReport.csv_rows", "report"),
    ("cli", "main", "main"),
)


def _row_key(name: str, args: tuple):
    """The row a row-API call reads: ("s", n) or ("m", m, n); None if none."""
    if name in ("stirling1_row", "stirling1"):
        n = args[0]
        if name == "stirling1" and args[1] > n:
            return None  # s(n, k) = 0 above the diagonal, no row is read
        return ("s", n)
    return ("m", args[0], args[1])


def _resolve(layer: str, dotted: str):
    """(owner, attribute, object) for ``stirval.<layer>.<dotted>``, or None."""
    try:
        owner = importlib.import_module(f"stirval.{layer}")
    except ImportError:
        return None
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, parts[-1], None)
    if obj is None:
        return None
    return owner, parts[-1], obj


def rebind(layer: str, dotted: str, make_replacement) -> tuple | None:
    """Replace ``stirval.<layer>.<dotted>`` everywhere it is bound.

    ``make_replacement(original)`` builds the new object.  Module-level
    names are rebound in every loaded ``stirval`` module that holds the same
    object; a ``Class.method`` is replaced on its class.  Returns an undo
    list, or None when the name does not exist.
    """
    found = _resolve(layer, dotted)
    if found is None:
        return None
    owner, attr, original = found
    replacement = make_replacement(original)
    undo = []
    if "." in dotted:
        undo.append((owner, attr, original))
        setattr(owner, attr, replacement)
        return undo
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "stirval" or mod_name.startswith("stirval.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, name, original))
                setattr(mod, name, replacement)
    return undo


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Tracer:
    """Records spans in memory while installed; derives per-layer metrics."""

    def __init__(self, workload: str):
        self.workload = workload
        self.span_names: list[str] = []
        self.span_kind: list[str] = []
        self.name_id = array.array("H")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("l")
        self.stack: list[int] = []
        self.missing: list[str] = []
        self.row_calls = 0
        self.row_keys: set = set()
        self.vp_calls = 0
        self.vp_arg_bits = 0
        self.records = 0
        self.failed = 0
        self.bytes_out = 0
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer, dotted, kind in SPEC:
            span_id = len(self.span_names)
            self.span_names.append(f"{layer}.{dotted}")
            self.span_kind.append(kind)
            undo = rebind(
                layer, dotted, lambda fn, s=span_id, d=dotted, k=kind: self._wrap(fn, s, d, k)
            )
            if undo is None:
                self.missing.append(f"stirval.{layer}.{dotted}")
            else:
                self._undo.extend(undo)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def _wrap(self, fn, span_id: int, name: str, kind: str):
        clock = time.perf_counter_ns
        stack, starts, ends = self.stack, self.start, self.end
        name_ids, parents = self.name_id, self.parent
        note = self._note_for(name, kind)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(span_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                note(idx, args, kwargs, result)
            return result

        return traced

    # -- counters recorded at the same boundaries as the spans -------------

    def _note_for(self, name: str, kind: str):
        if kind == "row":
            def note(idx, args, kwargs, result):
                parent = self.parent[idx]
                if parent < 0 or self.span_kind[self.name_id[parent]] != "row":
                    self.row_calls += 1
                    key = _row_key(name, args)
                    if key is not None:
                        self.row_keys.add(key)
            return note
        if kind == "vp":
            def note(idx, args, kwargs, result):
                parent = self.parent[idx]
                if parent < 0 or self.span_kind[self.name_id[parent]] != "vp":
                    self.vp_calls += 1
                if name == "vp_int":
                    value = args[1] if len(args) > 1 else kwargs["n"]
                    self.vp_arg_bits += abs(value).bit_length()
            return note
        if name == "sweep":
            def note(idx, args, kwargs, result):
                self.records += result.total
                self.failed += result.failed
            return note
        if name == "main":
            def note(idx, args, kwargs, result):
                argv = list(args[0]) if args else list(kwargs.get("argv") or [])
                if "--output" in argv:
                    path = argv[argv.index("--output") + 1]
                    if os.path.exists(path):
                        self.bytes_out += os.path.getsize(path)
            return note
        return None

    # -- derived metrics ---------------------------------------------------

    def row_mib(self) -> float:
        """Computed bytes of the distinct rows read, in MiB (untraced reads)."""
        import stirval.bigmath as bigmath

        total = 0
        for key in self.row_keys:
            if key[0] == "s":
                row = bigmath.stirling1_row(key[1])
            else:
                row = bigmath.stirling1_shifted_row(key[1], key[2])
            total += sum((abs(v).bit_length() + 7) // 8 for v in row)
        return total / 2**20

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced pass, with ``wall_s`` its wall time."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_ns: dict[str, int] = {}
        covered = 0
        query_calls = 0
        query_incl = 0
        for i in range(n):
            sid = self.name_id[i]
            kind = self.span_kind[sid]
            self_ns[kind] = self_ns.get(kind, 0) + dur[i] - child[i]
            p = self.parent[i]
            if p < 0:
                covered += dur[i]
            if kind == "query" and (p < 0 or self.span_kind[self.name_id[p]] != "query"):
                query_calls += 1
                query_incl += dur[i]
        def s(kind: str) -> float:
            return self_ns.get(kind, 0) / 1e9

        calls = self.row_calls
        return {
            "bigmath.row_s": s("row"),
            "bigmath.row_calls": calls,
            "bigmath.row_distinct": len(self.row_keys),
            "bigmath.row_hit_ratio": 1 - len(self.row_keys) / calls if calls else 0.0,
            "bigmath.row_mib": self.row_mib(),
            "bigmath.harmonic_s": s("harmonic"),
            "bigmath.bernoulli_s": s("bernoulli"),
            "padic.vp_s": s("vp"),
            "padic.vp_calls": self.vp_calls,
            "padic.vp_arg_mbit": self.vp_arg_bits / 1e6,
            "oracles.query_s": s("query"),
            "oracles.query_calls": query_calls,
            "oracles.ns_per_query": query_incl / query_calls if query_calls else 0.0,
            "verify.self_s": s("sweep"),
            "verify.records": self.records,
            "verify.failed": self.failed,
            "verify.report_s": s("report"),
            "cli.self_s": s("main"),
            "cli.bytes_out": self.bytes_out,
            "trace.uncovered_share": max(0.0, 1 - covered / 1e9 / wall_s) if wall_s else 0.0,
            "trace.missing_names": len(self.missing),
        }

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON lines: a header, then one span a line.

        A span line is ``[name_id, start_ns, end_ns, parent]``; ``name_id``
        indexes the header's ``names``, ``parent`` is a line index (-1 for
        none) and every span belongs to the header's ``workload``.
        """
        with gzip.open(path, "wt", compresslevel=1) as fh:
            header = {"workload": self.workload, "names": self.span_names,
                      "missing": self.missing,
                      "fields": ["name_id", "start_ns", "end_ns", "parent"]}
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{self.name_id[i]},{self.start[i]},{self.end[i]},{self.parent[i]}]\n")
