"""Per-layer metrics of one traced pass, computed from the tracer's files.

Each metric names the layer it reads (the kfull module); README.md says
which end-to-end metric and workload it should move.  Counts sum over the
pass's commands.  A self time is the seconds spent in a function's own code,
with every wrapped call it makes taken out; a function's self_s adds the
helpers in its own module that do its work (the window workers of
empirical_table, interval_hits of members_B, hit_count of lemma_check), and a
layer's self_s adds all of the module's functions.  A layer the workload never
enters reads 0.
"""

from __future__ import annotations

PER_LAYER = {
    "zetas.calls": "count",
    "zetas.cache_hit_ratio": "share",
    "zetas.self_s": "s",
    "shapes.power_sum_euler.calls": "count",
    "shapes.power_sum_euler.self_s": "s",
    "shapes.power_sums.m_max": "terms",
    "shapes.power_sums.digits": "digits",
    "shapes.power_sum_direct.self_s": "s",
    "bounded.ops": "count",
    "bounded.self_s": "s",
    "density.xi.self_s": "s",
    "density.coeffs.self_s": "s",
    "density.r_max": "terms",
    "density.n_max": "terms",
    "density.density_A.calls": "count",
    "density.density_shiu.calls": "count",
    "density.cells.self_s": "s",
    "empirical.empirical_table.self_s": "s",
    "empirical.n_per_s": "1/s",
    "empirical.threads_speedup": "ratio",
    "empirical.members_B.self_s": "s",
    "empirical.lemma_check.calls": "count",
    "empirical.lemma_check.self_s": "s",
    "arith.kfull_values": "count",
    "arith.useful_ratio": "ratio",
    "arith.shape_tuples.calls": "count",
    "arith.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead": "share",
    "trace.stdout_identical": "share",
}

_CELLS = ("density_A", "density_shiu", "density_B", "build_table", "normalization_check")


def layer_metrics(runs: list) -> dict:
    """runs: one dict per command with keys cmd, trace (the tracer's JSON),
    plain_s and traced_s (wall seconds untraced and traced) and identical."""
    agg = {}
    for r in runs:
        for name, (calls, total, self_s) in r["trace"]["agg"].items():
            a = agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += total
            a[2] += self_s

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def self_s(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer_self(layer):
        return sum(a[2] for n, a in agg.items() if n.startswith(layer + "."))

    def captured(name, key):
        return max((c[key] for r in runs for c in r["trace"]["captures"].get(name, ())),
                   default=0)

    hits = misses = 0
    for r in runs:
        for name in ("zetas.zeta", "zetas.prime_zeta"):
            h, m = r["trace"]["cache"][name]
            hits, misses = hits + h, misses + m

    swept = sum(c["N"] for r in runs
                for c in r["trace"]["captures"].get("empirical.empirical_table", ()))
    sweep_s = agg.get("empirical.empirical_table", (0, 0.0, 0.0))[1]
    pair = _thread_pair(runs)

    return {
        "zetas.calls": calls("zetas.zeta") + calls("zetas.prime_zeta"),
        "zetas.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "zetas.self_s": layer_self("zetas"),
        "shapes.power_sum_euler.calls": calls("shapes.power_sum_euler"),
        "shapes.power_sum_euler.self_s": self_s("shapes.power_sum_euler"),
        "shapes.power_sums.m_max": captured("shapes.power_sums", "m_max"),
        "shapes.power_sums.digits": captured("shapes.power_sums", "digits"),
        "shapes.power_sum_direct.self_s": self_s("shapes.power_sum_direct"),
        "bounded.ops": sum(a[0] for n, a in agg.items() if n.startswith("bounded.")),
        "bounded.self_s": layer_self("bounded"),
        "density.xi.self_s": self_s("density.xi_from_power_sums"),
        "density.coeffs.self_s": self_s("density.coeffs_a"),
        "density.r_max": captured("density._engine", "r_max"),
        "density.n_max": captured("density._engine", "n_max"),
        "density.density_A.calls": calls("density.density_A"),
        "density.density_shiu.calls": calls("density.density_shiu"),
        "density.cells.self_s": self_s(*(f"density.{n}" for n in _CELLS)),
        "empirical.empirical_table.self_s": self_s("empirical.empirical_table",
                                                   "empirical._window_counts",
                                                   "empirical._window_counts_star"),
        "empirical.n_per_s": swept / sweep_s if sweep_s else 0.0,
        "empirical.threads_speedup": pair[0]["plain_s"] / pair[1]["plain_s"] if pair else 0.0,
        "empirical.members_B.self_s": self_s("empirical.members_B", "empirical.interval_hits"),
        "empirical.lemma_check.calls": calls("empirical.lemma_check"),
        "empirical.lemma_check.self_s": self_s("empirical.lemma_check", "empirical.hit_count"),
        "arith.kfull_values": calls("arith.enumerate_kfull.next"),
        "arith.useful_ratio": (_values(pair[0]) / _values(pair[1])
                               if pair and _values(pair[1]) else 0.0),
        "arith.shape_tuples.calls": calls("arith.shape_tuples"),
        "arith.self_s": layer_self("arith"),
        "cli.self_s": layer_self("cli"),
        "trace.overhead": (sum(r["traced_s"] for r in runs) / sum(r["plain_s"] for r in runs)
                           - 1.0),
        "trace.stdout_identical": sum(1 for r in runs if r["identical"]) / len(runs),
    }


def _values(run) -> int:
    return run["trace"]["agg"].get("arith.enumerate_kfull.next", (0,))[0]


def _thread_pair(runs):
    """The empirical runs at one and at two workers for the same k and N."""
    by = {}
    for r in runs:
        p = r["cmd"].params
        if r["cmd"].kind == "empirical":
            by[(p["k"], p["N"], p["threads"])] = r
    for (k, N, t), r in by.items():
        if t == 1 and (k, N, 2) in by:
            return r, by[(k, N, 2)]
    return None
