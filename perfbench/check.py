"""Output checks for every benchmark command, and their self-test.

A command passes when it exits 0 and its stdout is right:
  * table / constants: every enclosure lies within its radius of an
    independent value, wherever one is known: the 30-digit REFERENCE values
    and the 6-decimal golden tables of tests/conftest.py (read, not
    imported), and mpmath's own zeta for the k = 2 closed forms
    c_2 = zeta(3/2)/zeta(3) and P_2(m) = zeta(3m/2)/zeta(3m) - 1.  The
    comparison allows the printed value's rounding (half a unit in its last
    digit) and the reference's, on top of the printed radius;
  * empirical: the cell counts equal reference.json (make_reference.py) and
    each frequency is c/N correctly rounded to a double;
  * members_B: the list equals the one derived from the stored hit sets;
  * verify: the report passes, every check included.

Each check also returns the fewest digits certified by any value it read:
-log10(radius) for an enclosure, and -log10(half an ulp) for a frequency,
which is exact c/N rounded once.

    python3 perfbench/check.py          # run the self-test
"""

from __future__ import annotations

import ast
import csv
import io
import json
import math
import os
from fractions import Fraction
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_TOL = Fraction(5, 10**6)


class Refs:
    """Reference data: conftest.py of the checkout under test, plus reference.json."""

    def __init__(self, root: str):
        path = os.path.join(root, "tests", "conftest.py")
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found = {}
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                name = getattr(node.targets[0], "id", None)
                if name in ("GOLDEN_TABLE_2", "GOLDEN_TABLE_3", "REFERENCE"):
                    found[name] = ast.literal_eval(node.value)
        missing = {"GOLDEN_TABLE_2", "GOLDEN_TABLE_3", "REFERENCE"} - set(found)
        if missing:
            raise ValueError(f"{path} lacks {', '.join(sorted(missing))}")
        self.golden = {2: found["GOLDEN_TABLE_2"], 3: found["GOLDEN_TABLE_3"]}
        self.reference = found["REFERENCE"]
        with open(os.path.join(HERE, "reference.json")) as fh:
            ref = json.load(fh)
        self.counts = {
            (int(k), int(N)): {(l, m): c for l, m, c in cells}
            for k, grid in ref["empirical"].items() for N, cells in grid.items()
        }
        self.hit_shapes = ref["hit_shapes"]
        self._oracle = {}

    def oracle(self, name: str):
        """(value, slack) from an independent source, or None."""
        if name in self.reference:
            s = self.reference[name]
            return Fraction(s), _half_unit(s)
        if name not in self._oracle:
            self._oracle[name] = _zeta_closed_form(name)
        return self._oracle[name]


def _zeta_closed_form(name: str):
    """c_2 = zeta(3/2)/zeta(3) and P_2(m) = zeta(3m/2)/zeta(3m) - 1, by mpmath."""
    from mpmath import mp, zeta

    if name == "c_2":
        m, shift = 1, 0
    elif name.startswith("P_2(") and name.endswith(")"):
        m, shift = int(name[4:-1]), 1
    else:
        return None
    with mp.workdps(90):
        s = mp.nstr(zeta(mp.mpf(3 * m) / 2) / zeta(3 * m) - shift, 80)
    return Fraction(s), Fraction(1, 10**70)


def _half_unit(s: str) -> Fraction:
    """Half a unit in the last printed digit of a decimal string."""
    mant, _, exp = s.lower().partition("e")
    places = len(mant.partition(".")[2]) - (int(exp) if exp else 0)
    return Fraction(1, 2 * 10**places) if places >= 0 else Fraction(10 ** -places, 2)


def _digits(radius: Fraction) -> float:
    return -math.log10(radius) if radius > 0 else math.inf


def _within(value_s: str, radius: Fraction, expected: Fraction, slack: Fraction) -> bool:
    return abs(Fraction(value_s) - expected) <= radius + _half_unit(value_s) + slack


def _rows(text: str, header: tuple) -> list:
    reader = csv.reader(io.StringIO(text))
    if tuple(next(reader, ())) != header:
        raise ValueError(f"header is not {','.join(header)}")
    return list(reader)


def check(cmd, rc: int, out: str, refs: Refs):
    """(ok, reason, digits) for one command's exit code and stdout."""
    if rc != 0:
        return False, f"exit code {rc}", None
    try:
        digits = _CHECKS[cmd.kind](cmd.params, out, refs)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return False, f"{type(exc).__name__}: {exc}", None
    return True, "", digits


def _check_table(p, out, refs):
    k, L, method = p["k"], p["L"], p["method"]
    rows = _rows(out, ("k", "l", "m", "value", "radius", "method"))
    cells = [(int(r[1]), int(r[2])) for r in rows]
    if cells != [(l, m) for l in range(L + 1) for m in range(l, L + 1)]:
        raise ValueError("cells missing, extra or out of order")
    digits = math.inf
    for kk, l, m, value, radius, meth in rows:
        if int(kk) != k or meth != method:
            raise ValueError(f"row ({l},{m}) has k={kk} method={meth}")
        rad = Fraction(radius)
        gold = refs.golden[k].get((int(l), int(m)))
        if gold is not None and abs(Fraction(value) - Fraction(repr(gold))) > GOLDEN_TOL:
            raise ValueError(f"cell ({l},{m}) = {value} is off the golden {gold}")
        n = int(l) + int(m)
        ref = refs.oracle(f"C_{k}" if n == 0 else f"a_{k},{n}")
        if ref is not None:
            w = comb(n, int(l))
            if not _within(value, rad, w * ref[0], w * ref[1]):
                raise ValueError(f"cell ({l},{m}) = {value} +- {radius} misses the reference")
        digits = min(digits, _digits(rad))
    return digits


def _check_constants(p, out, refs):
    k, L = p["k"], p["L"]
    rows = _rows(out, ("name", "value", "radius"))
    names = [r[0] for r in rows]
    want = ([f"C_{k}"] + (["c_2"] if k == 2 else []) + [f"d_{k},{l}" for l in range(L + 1)]
            + [f"P_{k}({m})" for m in range(1, 9)])
    if names != want:
        raise ValueError(f"names {names} are not {want}")
    digits = math.inf
    for name, value, radius in rows:
        rad = Fraction(radius)
        ref = refs.oracle(name)
        if ref is not None and not _within(value, rad, *ref):
            raise ValueError(f"{name} = {value} +- {radius} misses the reference")
        if not 0 < Fraction(value) < 10:
            raise ValueError(f"{name} = {value} is out of range")
        digits = min(digits, _digits(rad))
    return digits


def _check_empirical(p, out, refs):
    k, N = p["k"], p["N"]
    want = refs.counts[(k, N)]
    rows = _rows(out, ("k", "l", "m", "count", "frequency"))
    got = {(int(r[1]), int(r[2])): int(r[3]) for r in rows}
    if got != want:
        diff = sorted(c for c in set(got) | set(want) if got.get(c) != want.get(c))
        raise ValueError(f"cell counts differ from the reference at {diff[:5]}")
    digits = math.inf
    for kk, l, m, count, freq in rows:
        f = float(freq)
        if int(kk) != k or abs(Fraction(f) - Fraction(int(count), N)) > Fraction(math.ulp(f)) / 2:
            raise ValueError(f"frequency {freq} of cell ({l},{m}) is not {count}/{N} rounded")
        digits = min(digits, _digits(Fraction(math.ulp(f)) / 2))
    return digits


def _check_members(p, out, refs):
    hs = refs.hit_shapes
    if p["k"] != hs["k"] or p["N"] > hs["max_n"]:
        raise ValueError("no stored hit sets for this command")
    I, J = sorted([b] for b in p["I"]), sorted([b] for b in p["J"])
    want = [n for n in range(1, p["N"] + 1)
            if hs["left"][n - 1] == I and hs["right"][n - 1] == J]
    got = [int(r[0]) for r in _rows(out, ("n",))]
    if got != want:
        raise ValueError(f"{len(got)} members listed, {len(want)} expected")
    return math.inf


def _check_verify(p, out, refs):
    doc = json.loads(out)
    if doc["k"] != p["k"] or not doc["checks"]:
        raise ValueError("report is for another k or has no checks")
    failed = [c["name"] for c in doc["checks"] if c["passed"] is not True]
    if failed or doc["passed"] is not True:
        raise ValueError(f"verify reports failures: {failed}")
    return math.inf


_CHECKS = {
    "table": _check_table,
    "constants": _check_constants,
    "empirical": _check_empirical,
    "members": _check_members,
    "verify": _check_verify,
}


def self_test(refs: Refs) -> list:
    """Feed the checks genuine and tampered outputs built from the references.
    Returns the problems found; an empty list means every check is live."""
    from workloads import Command

    problems = []

    def expect(cmd, text, ok, what):
        if check(cmd, 0, text, refs)[0] != ok:
            problems.append(f"{what}: check {'rejected' if ok else 'accepted'} it")

    # a table built from the references, then one enclosure moved off its value
    table = Command("table", (), {"k": 2, "L": 1, "method": "direct"})

    def table_text(moved):
        lines = ["k,l,m,value,radius,method"]
        for l, m, key in ((0, 0, "C_2"), (0, 1, "a_2,1"), (1, 1, "a_2,2")):
            v = Fraction(refs.reference[key]) * comb(l + m, l) + (moved if m == 1 else 0)
            lines.append(f"2,{l},{m},{_fmt(v)},1e-40,direct")
        return "\n".join(lines) + "\n"

    expect(table, table_text(0), True, "genuine table")
    expect(table, table_text(Fraction(1, 10**25)), False, "enclosure moved by 1e-25")

    # empirical counts from reference.json, then one count changed
    k, N = 2, min(n for kk, n in refs.counts if kk == 2)
    emp = Command("empirical", (), {"k": k, "N": N, "threads": 1})
    cells = sorted(refs.counts[(k, N)].items())
    lines = [f"{k},{l},{m},{c},{c / N!r}" for (l, m), c in cells]
    expect(emp, "k,l,m,count,frequency\n" + "\n".join(lines) + "\n", True, "genuine counts")
    (l, m), c = cells[0]
    lines[0] = f"{k},{l},{m},{c + 1},{(c + 1) / N!r}"
    expect(emp, "k,l,m,count,frequency\n" + "\n".join(lines) + "\n", False, "one count changed")

    ver = Command("verify", (), {"k": 2})
    report = {"k": 2, "passed": True, "checks": [{"name": "x", "passed": True}]}
    expect(ver, json.dumps(report), True, "passing report")
    report["checks"][0]["passed"] = False
    expect(ver, json.dumps(report), False, "report with a failed check")
    return problems


def _fmt(x: Fraction) -> str:
    """x to 30 significant digits, as kfull prints values."""
    from decimal import Context

    return str(Context(prec=30).divide(x.numerator, x.denominator))


if __name__ == "__main__":
    import sys

    found = self_test(Refs(os.path.dirname(HERE)))
    for line in found:
        print("FAIL", line)
    print("self-test", "failed" if found else "passed")
    sys.exit(1 if found else 0)
