"""Run one kfull command with span recorders around the functions of every layer.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json -- table --k 2 --format csv

The launcher imports kfull, replaces each layer's functions with recorders,
then calls kfull.cli.main(argv) and exits with its return code.  stdout is
left to the program, so it must match an untraced run byte for byte.  At the
end it writes TRACE.json: the spans, per-function totals, lru-cache
statistics and a few captured arguments.

What is wrapped:
  * every public function of arith, zetas, shapes, density, empirical and
    cli, plus density._engine and the sweep's window workers.  A function is
    wrapped once and rebound under every name kfull modules import it by
    (shapes.zeta, cli.power_sum_euler, empirical.introot, ...), so calls
    through re-imported names are counted too;
  * the arithmetic and elementary methods of bounded.ErrorBoundedReal;
  * the iterator enumerate_kfull returns: each value it yields is one call
    of "arith.enumerate_kfull.next", because the heap merge does its work
    while the caller iterates, not inside enumerate_kfull itself.

The recorders sit outside the lru caches, so a cached call counts as a call,
and hits come from cache_info() at the end of the process, which starts cold.

A span is (id, parent id, name, start, end) on the system-wide monotonic
clock.  The first SPAN_CAP calls of each function are kept as spans; every
call is counted and timed.  Self time is a call's duration minus that of the
wrapped calls it made.

Forked workers (--threads 2): the recorders are inherited through fork.
Each worker writes its own spans and totals to TRACE.json.w<pid> whenever
one of its tasks ends, and the launcher merges those files.  A worker span's
parent is the span that was open in the parent process when it forked
(empirical.empirical_table), and the time the parent spent waiting for its
workers is taken out of that span's self time.
"""

from __future__ import annotations

import glob
import inspect
import json
import os
import sys
import time

pc = time.perf_counter

LAYERS = ("arith", "bounded", "zetas", "shapes", "density", "empirical", "cli")
PRIVATE = {"density": ("_engine",), "empirical": ("_window_counts", "_window_counts_star")}
# the ErrorBoundedReal methods that round; negation and exact() do not
BOUNDED_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "reciprocal", "pow_int", "widened",
    "exp", "expm1", "log", "log1p", "root",
)
CACHED = ("zetas.zeta", "zetas.prime_zeta", "shapes.power_sum_euler", "density._engine")
SPAN_CAP = 2000


def _capture_power_sums(a, r):
    return {"k": a["k"], "m_max": a["m_max"], "digits": a["digits"]}


def _capture_engine(a, r):
    return {"k": a["k"], "digits": a["digits"], "r_max": r[1].r_max, "n_max": r[2].n_max}


def _capture_empirical(a, r):
    return {"k": a["k"], "N": a["N"], "threads": a["threads"]}


CAPTURES = {
    "shapes.power_sums": _capture_power_sums,
    "density._engine": _capture_engine,
    "empirical.empirical_table": _capture_empirical,
}


class Tracer:
    def __init__(self, out: str):
        self.out = out
        self.stack = [[0.0, 0]]  # frames: [time spent in wrapped callees, span id]
        self.spans = []
        self.agg = {}  # name -> [calls, total seconds, self seconds]
        self.captures = {}  # name -> set of sorted item tuples
        self._reset_ids()
        self.fork_depth = None

    def _reset_ids(self):
        self.pid = os.getpid()
        self.ids = iter(range((self.pid << 32) + 1, (self.pid + 1) << 32))

    def after_fork(self):
        """In a forked worker: keep the inherited open frames as parents and
        start empty totals, so the worker reports only its own work."""
        self._reset_ids()
        self.fork_depth = len(self.stack)
        self.spans.clear()
        for v in self.agg.values():
            v[:] = [0, 0.0, 0.0]
        self.captures.clear()

    def wrap(self, fn, name):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack, spans, tr = self.stack, self.spans, self
        capture = CAPTURES.get(name)
        sig = inspect.signature(fn) if capture else None
        is_enum = name == "arith.enumerate_kfull"

        def recorder(*args, **kwargs):
            outer = stack[-1]
            agg[0] += 1
            sid = next(tr.ids) if agg[0] <= SPAN_CAP else 0
            frame = [0.0, sid or outer[1]]
            stack.append(frame)
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = pc()
                stack.pop()
                dt = t1 - t0
                agg[1] += dt
                agg[2] += dt - frame[0]
                outer[0] += dt
                if sid:
                    spans.append((sid, outer[1], name, t0, t1))
                if len(stack) == tr.fork_depth:
                    tr.flush_worker()
            if capture:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                item = tuple(sorted(capture(bound.arguments, result).items()))
                tr.captures.setdefault(name, set()).add(item)
            if is_enum:
                return _Timed(result, self.agg.setdefault(name + ".next", [0, 0.0, 0.0]), stack)
            return result

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(recorder, attr, getattr(fn, attr, None))
        recorder.__wrapped__ = fn
        return recorder

    def report(self) -> dict:
        return {
            "pid": self.pid,
            "spans": self.spans,
            "agg": self.agg,
            "captures": {k: [dict(i) for i in sorted(v)] for k, v in self.captures.items()},
        }

    def flush_worker(self):
        with open(f"{self.out}.w{self.pid}", "w") as fh:
            json.dump(self.report(), fh)


class _Timed:
    """The enumerate_kfull iterator, timed per yielded value."""

    __slots__ = ("it", "agg", "stack")

    def __init__(self, it, agg, stack):
        self.it, self.agg, self.stack = iter(it), agg, stack

    def __iter__(self):
        return self

    def __next__(self):
        stack, agg = self.stack, self.agg
        outer = stack[-1]
        frame = [0.0, outer[1]]
        stack.append(frame)
        t0 = pc()
        try:
            value = next(self.it)
        finally:
            dt = pc() - t0
            stack.pop()
            agg[1] += dt
            agg[2] += dt - frame[0]
            outer[0] += dt
        agg[0] += 1
        return value


def install(tracer: Tracer) -> dict:
    """Wrap every layer; return the original lru-cached functions by name."""
    import kfull.cli  # noqa: F401  (imports every layer)

    mods = {layer: sys.modules[f"kfull.{layer}"] for layer in LAYERS}
    originals = {}
    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if name.startswith("_") and name not in PRIVATE.get(layer, ()):
                continue
            originals[id(obj)] = (obj, tracer.wrap(obj, f"{layer}.{name}"))
    for mod in [sys.modules["kfull"], *mods.values()]:
        for name, obj in list(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])

    cls = mods["bounded"].ErrorBoundedReal
    for name in BOUNDED_OPS:
        setattr(cls, name, tracer.wrap(cls.__dict__[name], f"bounded.{name}"))

    return {name: getattr(mods[name.split(".")[0]], name.split(".")[1]).__wrapped__
            for name in CACHED}


def _merge_workers(tracer: Tracer, doc: dict) -> None:
    """Fold worker files into doc; take parent wait time out of self time."""
    by_id = {s[0]: s for s in doc["spans"]}
    waits = {}  # parent span id -> worker intervals under it
    for path in sorted(glob.glob(tracer.out + ".w*")):
        with open(path) as fh:
            w = json.load(fh)
        os.remove(path)
        doc["workers"].append({"pid": w["pid"], "spans": w["spans"]})
        for name, (calls, total, self_s) in w["agg"].items():
            a = doc["agg"].setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += total
            a[2] += self_s
        for s in w["spans"]:
            if s[1] in by_id:
                waits.setdefault(s[1], []).append((s[3], s[4]))
    for parent, intervals in waits.items():
        covered, end = 0.0, None
        for t0, t1 in sorted(intervals):
            if end is None or t0 > end:
                covered += t1 - t0
                end = t1
            elif t1 > end:
                covered += t1 - end
                end = t1
        doc["agg"][by_id[parent][2]][2] -= covered


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: tracer.py TRACE.json -- KFULL-ARGS...", file=sys.stderr)
        return 2
    out, argv = sys.argv[1], sys.argv[3:]
    for stale in glob.glob(out + ".w*"):
        os.remove(stale)
    tracer = Tracer(out)
    cached = install(tracer)
    os.register_at_fork(after_in_child=tracer.after_fork)
    import kfull.cli

    rc = 1
    try:
        rc = kfull.cli.main(argv)
    finally:
        sys.stdout.flush()
        doc = tracer.report()
        doc["argv"] = argv
        doc["rc"] = rc
        doc["cache"] = {n: list(f.cache_info())[:2] for n, f in cached.items()}
        doc["workers"] = []
        _merge_workers(tracer, doc)
        with open(out, "w") as fh:
            json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
