"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criteria 1 and 2 drive the installed CLI end to end (fresh process,
wall-clock budget included).
"""

import csv
import io
import random
import subprocess
import sys
import time

import pytest
from mpmath import mp, mpf
from fractions import Fraction

from kfull.density import build_table, density_A, density_shiu, normalization_check
from kfull.density import constant_C, xi_from_power_sums, xi_direct
from kfull.empirical import compare_tables, empirical_table, hit_count, lemma_check
from kfull.shapes import enumerate_lambda, power_sum_direct, power_sum_euler, power_sums
from kfull.zetas import zeta

from conftest import GOLDEN_TABLES, MEMBERS_EMPTY_2_40


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def run_cli_subprocess(*args):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "kfull", *args],
        capture_output=True, text=True, timeout=600,
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, elapsed


def table_from_cli(k):
    out, elapsed = run_cli_subprocess("table", "--k", str(k), "--max-index", "5",
                                      "--format", "csv")
    cells = {}
    for row in csv.DictReader(io.StringIO(out)):
        cells[(int(row["l"]), int(row["m"]))] = float(row["value"])
    return cells, elapsed


@pytest.mark.parametrize("k,criterion,budget", [(2, 1, 60.0), (3, 2, 60.0)])
def test_criterion_1_2_golden_tables(k, criterion, budget):
    cells, elapsed = table_from_cli(k)
    golden = GOLDEN_TABLES[k]
    worst = max(abs(cells[cell] - val) for cell, val in golden.items())
    ok = worst <= 5e-6 and len(cells) == 21 and elapsed <= budget
    report(criterion, ok,
           f"Table k={k}: 21 values, worst |dev| {worst:.2e} <= 5e-6, "
           f"runtime {elapsed:.1f}s <= {budget:.0f}s")


def test_criterion_3_constants():
    C2 = float(constant_C(2))
    with mp.workdps(40):
        c2 = float((zeta(1.5, 30) / zeta(3, 30)).value)
    d = [float(density_shiu(2, l)) for l in range(3)]
    checks = [
        abs(C2 - 0.049227) <= 5e-6,
        abs(c2 - 2.173) <= 1e-3,
        abs(d[0] - 0.275) <= 1e-3,
        abs(d[1] - 0.395) <= 1e-3,
        abs(d[2] - 0.231) <= 1e-3,
    ]
    report(3, all(checks),
           f"C_2={C2:.6f} (vs 0.049227), c_2={c2:.4f} (vs 2.173), "
           f"d_0..2={d[0]:.4f}/{d[1]:.4f}/{d[2]:.4f} (vs 0.275/0.395/0.231)")


def test_criterion_4_normalization():
    msgs = []
    ok = True
    for k in (2, 3):
        n = normalization_check(k)
        dev = abs(float(n.value) - 1.0)
        rad = float(n.radius)
        ok = ok and dev <= 1e-9 and rad <= 1e-9 and n.contains(1)
        msgs.append(f"k={k}: |sum-1|={dev:.2e}, radius(incl. tail)={rad:.2e}")
    report(4, ok, "total mass = 1 within 1e-9: " + "; ".join(msgs))


def test_criterion_5_three_routes():
    worst = 0.0
    for k in (2, 3):
        for l in range(6):
            for m in range(6):
                vals = [float(density_A(k, l, m, meth)) for meth in ("direct", "inversion")]
                worst = max(worst, max(vals) - min(vals))
    report(5, worst <= 1e-9,
           f"direct/inversion spread <= {worst:.2e} (tol 1e-9), "
           f"k in {{2,3}}, 0<=l,m<=5")


def test_criterion_6_structural_identities():
    g = GOLDEN_TABLES[2]
    paper_ok = (abs(g[(1, 1)] - 2 * g[(0, 2)]) <= 2e-6
                and abs(g[(1, 2)] - 3 * g[(0, 3)]) <= 2e-6)
    c11 = float(density_A(2, 1, 1))
    c02 = float(density_A(2, 0, 2))
    c12 = float(density_A(2, 1, 2))
    c03 = float(density_A(2, 0, 3))
    computed_ok = abs(c11 - 2 * c02) <= 2e-6 and abs(c12 - 3 * c03) <= 2e-6
    report(6, paper_ok and computed_ok,
           f"d(A[1,1])=2*d(A[0,2]) and d(A[1,2])=3*d(A[0,3]) within 2e-6 "
           f"(published table and computed values)")


def test_criterion_7_membership_list():
    out, _ = run_cli_subprocess("enumerate", "members_B", "--k", "2", "--N", "40")
    got = [int(x) for x in out.split()]
    report(7, got == MEMBERS_EMPTY_2_40,
           f"enumerate members_B --k 2 --N 40 -> {got}")


def test_criterion_8_empirical_convergence():
    msgs = []
    ok = True
    for k, N, tol, budget in ((2, 10**6, 0.005, 300.0), (3, 10**5, 0.02, 300.0)):
        t0 = time.monotonic()
        emp = empirical_table(k, N)
        elapsed = time.monotonic() - t0
        max_idx = max(max(l, m) for l, m in emp.counts)
        ana = build_table(k, max_idx)
        comp = compare_tables(emp, ana)
        cell00 = emp.counts.get((0, 0), 0) / N
        target00 = 0.049227 if k == 2 else float(constant_C(3))
        this_ok = (comp.max_abs_deviation <= tol
                   and abs(cell00 - target00) <= tol
                   and elapsed <= budget)
        ok = ok and this_ok
        msgs.append(f"k={k}, N={N}: max dev {comp.max_abs_deviation:.4f} <= {tol}, "
                    f"cell(0,0) {cell00:.6f} vs {target00:.6f}, {elapsed:.0f}s")
    report(8, ok, "; ".join(msgs))


def test_criterion_9_lemma_equivalence():
    msgs = []
    ok = True
    for k in (2, 3):
        rng = random.Random(555000 + k)
        bound = 8.0
        while True:
            elems = enumerate_lambda(k, bound)
            if len(elems) >= 50:
                elems = elems[:50]
                break
            bound *= 2
        disagreements = 0
        nonunique = 0
        for _ in range(10_000):
            n = rng.randrange(1, 100_001)
            e = rng.choice(elems)
            j = rng.choice((1, 2))
            crit, direct = lemma_check(n, e, j)
            if crit != direct:
                disagreements += 1
            elif direct and hit_count(n, e, j) != 1:
                nonunique += 1
        ok = ok and disagreements == 0 and nonunique == 0
        msgs.append(f"k={k}: {disagreements} disagreements, "
                    f"{nonunique} non-unique witnesses over 10000 triples")
    report(9, ok, "; ".join(msgs))


def test_criterion_10_power_sum_cross_checks():
    worst_gap = 0.0
    closed_ok = True
    # the shapes lam <= ceil(1e4^((k+1)/k)), which at k = 2 is the box b <= 1e4
    for k, L in ((2, 10**6), (3, 215_444)):
        for m in range(1, 9):
            d = power_sum_direct(k, m, L)
            e = power_sum_euler(k, m, 30)
            gap = abs(float(d.value - e.value)) - float(d.radius + e.radius)
            worst_gap = max(worst_gap, gap)
    with mp.workdps(45):
        for m in range(1, 9):
            e = power_sum_euler(2, m, 30)
            cf = zeta(Fraction(3 * m, 2), 35) / zeta(3 * m, 35) - 1
            closed_ok = closed_ok and e.agrees_with(cf)
    report(10, worst_gap <= 0 and closed_ok,
           f"direct(lam <= 1e6 / 2.2e5) vs Euler within combined radii (worst excess "
           f"{worst_gap:.2e}), k=2 closed form within radii: {closed_ok}")


def test_criterion_11_newton_oracle():
    msgs = []
    ok = True
    with mp.workdps(45):
        for k in (2, 3):
            bound = 8.0
            while True:
                elems = enumerate_lambda(k, bound)
                if len(elems) >= 200:
                    elems = elems[:200]
                    break
                bound *= 2
            direct = xi_direct(elems, 10, digits=35)
            ps = power_sums(k, 10, 30)
            xi = xi_from_power_sums(ps, 10)
            finite_p1 = sum(1 / mp.root(mpf(e.radicand()), k) for e in elems)
            T = ps.p(1).hi() - finite_p1 + mpf("1e-25")
            worst_excess = mpf(0)
            for r in range(1, 11):
                gap = xi.xi[r].value - direct[r]
                bound_r = T * xi.xi[r - 1].hi() + xi.xi[r].radius + mpf("1e-25")
                worst_excess = max(worst_excess, gap - bound_r, -gap)
            ok = ok and worst_excess <= 0
            msgs.append(f"k={k}: worst excess over tail bound {float(worst_excess):.2e}")
    report(11, ok, "xi via Newton vs direct symmetric sums over 200 shapes, r<=10: "
           + "; ".join(msgs))
