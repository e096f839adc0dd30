"""Command-line surface.

Subcommands: table, constants, verify, enumerate, empirical.  Exit codes:
0 success, 1 verification failure, 2 usage/config error or a computation
that could not finish (uncertifiable bound, out of memory); a --config value
is checked as its flag would be, so a wrong type or choice is a config error.
Every command hands its result to one writer, _write.  Machine formats
(csv, json) are byte-deterministic for a fixed configuration: rows are
sorted, enclosures print as 30-digit decimal strings (a float64 round trip
would exceed the smaller radii), and no timings or timestamps are embedded.
The engine layers (density, shapes, zetas) and mpmath are read only when a
command calls into them, so the exact sweep commands never load them; csv,
json and decimal are imported by the one function that uses each (the
writer's branch, the config-file reader, _fmt6), so a run loads only the
format it prints.
"""

from __future__ import annotations

import argparse
import io
import random
import sys
from math import inf
from typing import NamedTuple

from . import density, empirical, shapes, zetas
from .arith import SubsetSpec, enumerate_kfull

DEFAULT_ENUM_CAP = 1_000_000

_EMPIRICAL_DEFAULTS = {2: (1_000_000, 0.005), 3: (100_000, 0.02)}


class RunConfig(NamedTuple):
    k: int = 2
    max_index: int = 5
    digits: int = 30
    N: int | None = None
    fmt: str = "text"
    out: str | None = None
    threads: int = 1
    quick: bool = False
    tolerance_scale: float = 1.0
    method: str = "direct"
    cap: int = DEFAULT_ENUM_CAP

    def validate(self):
        if self.k < 2:
            raise ValueError("--k must be >= 2")
        if self.digits < 6:
            raise ValueError("--digits must be >= 6")
        if self.max_index < 0:
            raise ValueError("--max-index must be >= 0")
        for name in ("threads", "cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"--{name.replace('_', '-')} must be positive")
        if self.N is not None and self.N < 1:
            raise ValueError("--N must be positive")
        # not (x >= 0) also holds for nan; json.load accepts NaN and Infinity
        if not (0 <= self.tolerance_scale < inf):
            raise ValueError("--tolerance-scale must be finite and >= 0")


def _fmt6(x) -> str:
    from decimal import ROUND_HALF_EVEN, Decimal

    return str(Decimal(repr(float(x))).quantize(Decimal("0.000001"), ROUND_HALF_EVEN))


def _num(x, digits: int = 30) -> str:
    # machine formats carry the working precision; float64 repr would quietly
    # add conversion error beyond the tracked radii
    from mpmath import mp

    return mp.nstr(x, digits)


def _rad(x) -> str:
    from mpmath import mp

    return mp.nstr(x, 8)


def _write(cfg: RunConfig, header, rows, doc, text) -> None:
    """Write one command's result in cfg.fmt to cfg.out, or to stdout.

    csv is header plus rows; json is the object doc() returns and text the
    string text() returns.  Only the chosen form is built, so rows may be a
    lazy iterable when no other form reads it."""
    if cfg.fmt == "csv":
        import csv

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        body = buf.getvalue()
    elif cfg.fmt == "json":
        import json

        body = json.dumps(doc(), indent=2, sort_keys=True) + "\n"
    else:
        body = text()
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


# -- table ------------------------------------------------------------------


def _render_table_text(table) -> str:
    L = table.L
    lines = [f"d(A[l,m]) for k={table.k}, 0 <= l <= m <= {L}  (method: {table.method})"]
    header = " l\\m " + "".join(f"{m:>10}" for m in range(L + 1))
    lines.append(header)
    for l in range(L + 1):
        cells = []
        for m in range(L + 1):
            cells.append(f"{_fmt6(table.entry(l, m).value):>10}" if m >= l else " " * 10)
        lines.append(f"{l:>4} " + "".join(cells))
    return "\n".join(lines) + "\n"


def cmd_table(cfg: RunConfig) -> int:
    table = density.build_table(cfg.k, cfg.max_index, cfg.method, cfg.digits)

    def doc():
        cells = [{"l": l, "m": m, "value": _num(e.value), "radius": _rad(e.radius)}
                 for (l, m), e in table.cells()]
        return {"k": table.k, "L": table.L, "method": table.method, "cells": cells}

    rows = ((table.k, l, m, _num(e.value), _rad(e.radius), table.method)
            for (l, m), e in table.cells())
    _write(cfg, ("k", "l", "m", "value", "radius", "method"), rows, doc,
           lambda: _render_table_text(table))
    return 0


# -- constants ---------------------------------------------------------------


def _constants(cfg: RunConfig) -> list:
    from mpmath import mp

    out = []
    C = density.constant_C(cfg.k, cfg.digits)
    out.append((f"C_{cfg.k}", C))
    if cfg.k == 2:
        with mp.workdps(cfg.digits + 10):
            c2 = zetas.zeta(1.5, cfg.digits) / zetas.zeta(3, cfg.digits)
        out.append(("c_2", c2))
    for l in range(cfg.max_index + 1):
        d = density.density_shiu(cfg.k, l, "xi_alternating", cfg.digits)
        out.append((f"d_{cfg.k},{l}", d))
    # the power sums the densities above were built from
    ps = density._engine(cfg.k, cfg.digits).ps
    out.extend((f"P_{cfg.k}({m})", ps.p(m)) for m in range(1, 9))
    return out


def cmd_constants(cfg: RunConfig) -> int:
    named = _constants(cfg)

    def text():
        width = max(len(name) for name, _ in named)
        return "".join(
            f"{name:<{width}}  {repr(float(e.value))}  (radius {float(e.radius):.2e})\n"
            for name, e in named
        )

    _write(cfg, ("name", "value", "radius"),
           ((n, _num(e.value), _rad(e.radius)) for n, e in named),
           lambda: {n: {"value": _num(e.value), "radius": _rad(e.radius)} for n, e in named},
           text)
    return 0


# -- verify -------------------------------------------------------------------


def _excess(a, b) -> float:
    """How far two enclosures of one quantity lie apart beyond their combined
    radii; at most 0 when they overlap."""
    return abs(float(a.value - b.value)) - float(a.radius + b.radius)


def _cell_route_excess(cfg: RunConfig) -> float:
    """The worst gap between the direct and inversion enclosures of the cells
    up to (5,5) beyond their combined radii; at most 0 when all overlap."""
    worst = 0.0
    for l in range(6):
        for m in range(l, 6):
            d, inv = (density.density_A(cfg.k, l, m, meth, cfg.digits)
                      for meth in ("direct", "inversion"))
            worst = max(worst, _excess(d, inv))
    return worst


def run_verify(cfg: RunConfig) -> dict:
    """All cross-checks for one k; tolerances scale with cfg.tolerance_scale."""
    k = cfg.k
    scale = cfg.tolerance_scale
    checks = []

    def add(name, observed, tolerance, note=""):
        checks.append({
            "name": name,
            "observed": float(observed),
            "tolerance": float(tolerance),
            "passed": bool(float(observed) <= float(tolerance)),
            "note": note,
        })

    # the head/tail split of F_k would be a route independent of xi
    add("cell_route_agreement", _cell_route_excess(cfg), 0.0,
        "direct and inversion enclosures of d(A[l,m]) beyond combined radii, "
        "0<=l<=m<=5; both routes shift the one xi series, so this checks the "
        "shift weights, the truncation bound and the inversion formula")

    norm = density.normalization_check(k, cfg.digits)
    add("normalization_total_mass", abs(float(norm.value) - 1.0),
        max(1e-9, float(norm.radius)) * scale,
        "sum of all cell densities vs 1, radius includes truncation tail")

    worst = 0.0
    for l in range(4):
        a = density.density_shiu(k, l, "xi_alternating", cfg.digits)
        b = density.density_shiu(k, l, "row_sum", cfg.digits)
        worst = max(worst, _excess(a, b))
    add("row_sum_consistency", max(worst, 0.0), 1e-12 * scale,
        "one-sided densities: alternating route vs row sums, beyond combined radii")

    samples = 2_000 if cfg.quick else 10_000
    rng = random.Random(987654321 + k)
    elements = enumerate_lambda_first(k, 50)
    bad = 0
    for _ in range(samples):
        n = rng.randrange(1, 100_001)
        e = rng.choice(elements)
        j = rng.choice((1, 2))
        crit, direct = empirical.lemma_check(n, e, j)
        if crit != direct:
            bad += 1
        elif direct and empirical.hit_count(n, e, j) != 1:
            bad += 1
    add("fractional_part_criterion", bad, 0,
        f"disagreements or non-unique witnesses over {samples} random (n, shape, j)")

    n_emp, tol_emp = _EMPIRICAL_DEFAULTS.get(k, (10_000, 0.05))
    # deviations shrink like 1/sqrt(N); --quick runs N/10 at 3.2 times the
    # tolerance (pre-validated), and an explicit N never tightens it
    q = 3.2 if cfg.quick else 1
    if cfg.N is not None:
        tol_emp *= max(q, (n_emp / cfg.N) ** 0.5)
        n_emp = cfg.N
    else:
        tol_emp *= q
        if cfg.quick:
            n_emp //= 10
    emp = empirical.empirical_table(k, n_emp, cfg.threads)
    max_idx = max(max(l, m) for l, m in emp.counts)
    ana = density.build_table(k, max(cfg.max_index, max_idx), "direct", cfg.digits)
    comp = empirical.compare_tables(emp, ana)
    # a cell off by e deviates from this sample by at least e - observed
    # (triangle inequality), so any error above tolerance + observed fails
    catches = float(tol_emp * scale) + float(comp.max_abs_deviation)
    add("empirical_vs_analytic", comp.max_abs_deviation, tol_emp * scale,
        f"max cell deviation at N={n_emp}; catches any cell error above "
        f"{catches:.3e} (tolerance + observed)")

    # the Euler-route sums the densities above were built from
    euler = density._engine(k, cfg.digits).ps
    L = 2 ** (24 - 2 * k)  # 6,277 / 18,235 / 21,727 shapes at k = 2 / 3 / 4
    worst = 0.0
    for m in range(1, 9):
        worst = max(worst, _excess(shapes.power_sum_direct(k, m, L), euler.p(m)))
    add("power_sum_routes", max(worst, 0.0), 0.0,
        f"direct (shapes lambda <= {L}, no zeta) vs Euler route beyond combined "
        "radii, m=1..8")

    if k == 2:
        worst = 0.0
        for m in range(1, 9):
            cf = zetas.zeta(1.5 * m, cfg.digits) / zetas.zeta(3 * m, cfg.digits) - 1
            worst = max(worst, _excess(euler.p(m), cf))
        add("closed_form_power_sums", max(worst, 0.0), 0.0,
            "zeta(3m/2)/zeta(3m) - 1 vs Euler route beyond combined radii")

    return {"k": k, "passed": all(c["passed"] for c in checks), "checks": checks}


def enumerate_lambda_first(k: int, count: int) -> list:
    bound = 4.0
    while True:
        elems = shapes.enumerate_lambda(k, bound)
        if len(elems) >= count:
            return elems[:count]
        bound *= 2


def cmd_verify(cfg: RunConfig) -> int:
    report = run_verify(cfg)

    def text():
        lines = []
        for c in report["checks"]:
            status = "PASS" if c["passed"] else "FAIL"
            lines.append(
                f"[{status}] {c['name']}: observed {c['observed']:.3e}"
                f" <= tolerance {c['tolerance']:.3e}  ({c['note']})"
            )
        lines.append("all checks passed" if report["passed"] else "FAILURES present")
        return "\n".join(lines) + "\n"

    rows = ((c["name"], repr(c["observed"]), repr(c["tolerance"]), int(c["passed"]),
             c["note"]) for c in report["checks"])
    _write(cfg, ("name", "observed", "tolerance", "passed", "note"), rows,
           lambda: report, text)
    return 0 if report["passed"] else 1


# -- enumerate ----------------------------------------------------------------


def _parse_subset(k: int, specs) -> SubsetSpec:
    elems = []
    for spec in specs or ():
        parts = tuple(int(p) for p in spec.split(","))
        if len(parts) != k - 1:
            raise ValueError(f"subset tuple {spec!r} needs {k - 1} entries for k={k}")
        elems.append(parts)
    return SubsetSpec(k, tuple(elems))


def cmd_enumerate(cfg: RunConfig, what: str, bound: float, limit: int,
                  proper: bool, I_specs, J_specs) -> int:
    if what == "lambda":
        elems = shapes.enumerate_lambda(cfg.k, bound, cfg.cap)
        rows = []
        for i, e in enumerate(elems, start=1):
            lam = shapes.lambda_value(e, 20)
            rows.append((i, " ".join(map(str, e.b)), e.radicand(),
                         repr(float(lam.value))))
        _write(cfg, ("index", "b", "radicand", "lambda"), rows,
               lambda: [{"index": i, "b": list(map(int, b.split())), "radicand": M,
                         "lambda": float(lam)} for i, b, M, lam in rows],
               lambda: "".join(f"{i:>6}  b=({b})  lambda={lam}\n"
                               for i, b, M, lam in rows))
        return 0
    if what == "kfull":
        # a limit below 1 holds no k-full value: empty output, as for a bound
        # below the smallest shape
        stream = enumerate_kfull(cfg.k, limit, proper, cfg.cap) if limit >= 1 else ()
        rows = []
        for count, (v, rep) in enumerate(stream):
            if count >= cfg.cap:
                raise ValueError(f"enumeration exceeds cap {cfg.cap}")
            rows.append((v, rep.a, " ".join(map(str, rep.b))))
        _write(cfg, ("value", "a", "b"), rows,
               lambda: [{"value": v, "a": a, "b": list(map(int, b.split()))}
                        for v, a, b in rows],
               lambda: "".join(f"{v}\n" for v, _, _ in rows))
        return 0
    # members_B
    N = cfg.N if cfg.N is not None else 40
    I = _parse_subset(cfg.k, I_specs)
    J = _parse_subset(cfg.k, J_specs)
    members = empirical.members_B(cfg.k, I, J, N)
    _write(cfg, ("n",), ((n,) for n in members),
           lambda: {"k": cfg.k, "N": N, "members": members},
           lambda: "".join(f"{n}\n" for n in members))
    return 0


# -- empirical ----------------------------------------------------------------


def cmd_empirical(cfg: RunConfig, compare: bool) -> int:
    N = cfg.N if cfg.N is not None else _EMPIRICAL_DEFAULTS.get(cfg.k, (10_000, 0.05))[0]
    if cfg.quick:
        N //= 10
    emp = empirical.empirical_table(cfg.k, max(N, 1), cfg.threads)
    comp = None
    if compare:
        max_idx = max(max(l, m) for l, m in emp.counts)
        ana = density.build_table(cfg.k, max_idx, "direct", cfg.digits)
        comp = empirical.compare_tables(emp, ana)
    rows = []
    for (l, m) in sorted(emp.counts):
        c = emp.counts[(l, m)]
        row = [cfg.k, l, m, c, repr(c / emp.N)]
        if comp is not None:
            freq, val, dev = comp.cells[(l, m)]
            row += ["" if val is None else repr(val), repr(dev)]
        rows.append(tuple(row))
    header = ("k", "l", "m", "count", "frequency")
    if comp is not None:
        header += ("analytic", "deviation")

    def doc():
        cells = [dict(zip(header, r)) for r in rows]
        obj = {"k": cfg.k, "N": emp.N, "bound": emp.bound, "cells": cells}
        if comp is not None:
            obj["max_abs_deviation"] = comp.max_abs_deviation
        return obj

    def text():
        body = [" ".join(str(x) for x in r) for r in rows]
        if comp is not None:
            body.append(f"max_abs_deviation {comp.max_abs_deviation:.6f}")
        return "\n".join(body) + "\n"

    _write(cfg, header, rows, doc, text)
    return 0


# -- parser -------------------------------------------------------------------


# option precedence is flags > config file > built-in defaults; the parser
# suppresses unset attributes so merging can tell "given" from "defaulted".
# RunConfig's fields are the shared options; the rest are command-specific
_DEFAULTS = RunConfig._field_defaults | {
    "bound": 30.0, "limit": 100, "all": False, "I": None, "J": None,
    "compare": False,
}


def build_parser() -> argparse.ArgumentParser:
    S = argparse.SUPPRESS
    p = argparse.ArgumentParser(
        prog="kfull",
        description="densities of integers classified by k-full numbers "
                    "between successive kth powers, with error bounds",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--k", type=int, default=S)
        sp.add_argument("--digits", type=int, default=S)
        sp.add_argument("--max-index", type=int, default=S, dest="max_index")
        sp.add_argument("--N", type=int, default=S)
        sp.add_argument("--format", choices=("csv", "json", "text"),
                        default=S, dest="fmt")
        sp.add_argument("--out", default=S)
        sp.add_argument("--threads", type=int, default=S)
        sp.add_argument("--quick", action="store_true", default=S)
        sp.add_argument("--cap", type=int, default=S)
        sp.add_argument("--config", default=S,
                        help="JSON file with option defaults (flags win)")

    t = sub.add_parser("table", help="cell-density table d(A[l,m])")
    common(t)
    t.add_argument("--method", choices=("direct", "inversion"), default=S)

    c = sub.add_parser("constants", help="named constants with radii")
    common(c)

    v = sub.add_parser("verify", help="run the full cross-check suite")
    common(v)
    v.add_argument("--tolerance-scale", type=float, default=S,
                   dest="tolerance_scale")

    e = sub.add_parser("enumerate", help="stream shapes, k-full integers, or members")
    common(e)
    e.add_argument("what", choices=("lambda", "kfull", "members_B"))
    e.add_argument("--bound", type=float, default=S, help="lambda upper bound")
    e.add_argument("--limit", type=int, default=S, help="k-full value bound")
    e.add_argument("--all", action="store_true", default=S,
                   help="include perfect kth powers in kfull output")
    e.add_argument("--I", action="append", default=S,
                   help="left subset element as comma-separated b tuple (repeatable)")
    e.add_argument("--J", action="append", default=S,
                   help="right subset element as comma-separated b tuple (repeatable)")

    m = sub.add_parser("empirical", help="exact cell counts up to N")
    common(m)
    m.add_argument("--compare", action="store_true", default=S,
                   help="add analytic values and deviations")

    return p


def _option_actions(parser) -> dict:
    """dest -> argparse action over every subcommand (a config file may set
    an option its own command does not take)."""
    actions = {}
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            for sub in a.choices.values():
                actions.update((x.dest, x) for x in sub._actions)
    return actions


def _check_config_value(key: str, val, action) -> None:
    """Reject val unless the flag behind action could have given it: a bool
    for a switch, a list of str for a repeatable option, else an instance of
    the flag's type (int or float for float; never a bool) within its choices."""
    if isinstance(action, argparse._StoreTrueAction):
        ok, want = isinstance(val, bool), "true or false"
    elif isinstance(action, argparse._AppendAction):
        ok = isinstance(val, list) and all(isinstance(x, str) for x in val)
        want = "a list of strings"
    else:
        types = {int: (int,), float: (int, float)}.get(action.type, (str,))
        ok = isinstance(val, types) and not isinstance(val, bool)
        want = " or ".join(t.__name__ for t in types)
        if action.choices is not None:
            ok, want = ok and val in action.choices, "one of " + ", ".join(action.choices)
    if not ok:
        raise ValueError(f"config key {key!r} must be {want}, got {val!r}")


def _merge_options(parser, args) -> dict:
    given = vars(args).copy()
    command = given.pop("command")
    what = given.pop("what", None)
    merged = dict(_DEFAULTS)
    cfg_path = given.pop("config", None)
    if cfg_path:
        import json

        with open(cfg_path) as fh:
            from_file = json.load(fh)
        if not isinstance(from_file, dict):
            raise ValueError("config file must hold a JSON object")
        actions = _option_actions(parser)
        for name, val in from_file.items():
            key = "fmt" if name == "format" else name
            if key not in merged:
                raise ValueError(f"unknown config key {key!r}")
            _check_config_value(name, val, actions[key])
            merged[key] = val
    merged.update(given)
    merged["command"] = command
    merged["what"] = what
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opt = _merge_options(parser, args)
        cfg = RunConfig(**{name: opt[name] for name in RunConfig._fields})
        cfg.validate()
        if opt["command"] == "table":
            return cmd_table(cfg)
        if opt["command"] == "constants":
            return cmd_constants(cfg)
        if opt["command"] == "verify":
            return cmd_verify(cfg)
        if opt["command"] == "enumerate":
            return cmd_enumerate(cfg, opt["what"], opt["bound"], opt["limit"],
                                 not opt["all"], opt["I"], opt["J"])
        if opt["command"] == "empirical":
            return cmd_empirical(cfg, opt["compare"])
    except (OSError, ValueError, ArithmeticError, MemoryError) as exc:
        # ArithmeticError: a bound that could not be certified, or a division
        # by an enclosure of zero; MemoryError: an input too large to hold
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
