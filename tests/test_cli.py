import csv
import io
import json
import re
from decimal import Decimal

import pytest
from mpmath import mp

from kfull import cli, density, empirical, shapes
from kfull.cli import build_parser, main

from conftest import GOLDEN_TABLE_2, MEMBERS_EMPTY_2_40


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_table_text_layout(capsys):
    code, out, _ = run_cli(capsys, "table", "--k", "2", "--max-index", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("d(A[l,m]) for k=2")
    assert "0.049227" in lines[2]
    # lower triangle stays blank
    assert lines[3].split() == ["1", "0.158761", "0.091591"]


def test_table_single_cell(capsys):
    code, out, _ = run_cli(capsys, "table", "--k", "2", "--max-index", "0")
    assert code == 0
    assert "0.049227" in out


def test_table_csv_against_golden(capsys):
    code, out, _ = run_cli(capsys, "table", "--k", "2", "--max-index", "5",
                           "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 21
    for row in rows:
        cell = (int(row["l"]), int(row["m"]))
        assert abs(float(row["value"]) - GOLDEN_TABLE_2[cell]) <= 5e-6
        assert float(row["radius"]) < 1e-9


def test_table_json_and_determinism(capsys):
    code1, out1, _ = run_cli(capsys, "table", "--k", "2", "--max-index", "3",
                             "--format", "json")
    code2, out2, _ = run_cli(capsys, "table", "--k", "2", "--max-index", "3",
                             "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical machine output
    doc = json.loads(out1)
    assert doc["k"] == 2 and doc["L"] == 3 and len(doc["cells"]) == 10


def test_table_methods_agree(capsys):
    # every route sums as deep as the engine's guard, so the inversion cells
    # stay tight at k = 4 (g = 75) too, and the two enclosures overlap
    for k in (2, 3, 4):
        tables = {}
        for method in ("direct", "inversion"):
            code, out, _ = run_cli(capsys, "table", "--k", str(k), "--max-index", "2",
                                   "--format", "csv", "--method", method)
            assert code == 0
            tables[method] = {(r["l"], r["m"]): (Decimal(r["value"]), Decimal(r["radius"]))
                              for r in parse_csv(out)}
            if method != "direct":
                assert all(rad <= Decimal("1e-12") for _, rad in tables[method].values()), k
        assert tables["direct"].keys() == tables["inversion"].keys()
        for cell, (va, ra) in tables["direct"].items():
            vb, rb = tables["inversion"][cell]
            assert abs(va - vb) <= ra + rb, (k, cell)


def test_constants_text(capsys):
    code, out, _ = run_cli(capsys, "constants", "--k", "2", "--max-index", "2")
    assert code == 0
    assert "C_2" in out and "c_2" in out and "d_2,0" in out and "P_2(8)" in out


def test_constants_json_values(capsys):
    code, out, _ = run_cli(capsys, "constants", "--k", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert abs(float(doc["C_2"]["value"]) - 0.049227) <= 5e-6
    assert float(doc["C_2"]["radius"]) <= 1e-9
    assert abs(float(doc["c_2"]["value"]) - 2.173) <= 1e-3
    assert abs(float(doc["d_2,0"]["value"]) - 0.275) <= 1e-3
    # enclosure strings carry more precision than a float64 round-trip
    assert len(doc["C_2"]["value"]) > 20


def test_enumerate_members_exact_output(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "members_B", "--k", "2", "--N", "40")
    assert code == 0
    assert out == "".join(f"{n}\n" for n in MEMBERS_EMPTY_2_40)


def test_enumerate_members_with_subsets(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "members_B", "--k", "2",
                           "--N", "60", "--I", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["members"][:3] == [2, 8, 16]


def test_enumerate_lambda_rows(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "lambda", "--k", "2",
                           "--bound", "30", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 5
    assert [int(r["radicand"]) for r in rows] == [8, 27, 125, 216, 343]


def test_enumerate_kfull_modes(capsys):
    code, proper, _ = run_cli(capsys, "enumerate", "kfull", "--k", "2",
                              "--limit", "100")
    assert code == 0
    assert proper.split() == ["8", "27", "32", "72"]
    code, full, _ = run_cli(capsys, "enumerate", "kfull", "--k", "2",
                            "--limit", "100", "--all", "--format", "csv")
    assert code == 0
    assert len(parse_csv(full)) == 14


def test_enumerate_cap_exceeded(capsys):
    code, out, err = run_cli(capsys, "enumerate", "kfull", "--k", "2",
                             "--limit", "10000000", "--cap", "5")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("argv", [
    ("lambda", "--bound", "1e12"),  # about 6e7 shapes
    ("lambda", "--bound", "1e10"),
    ("kfull", "--limit", str(10**24)),
])
def test_enumerate_refuses_a_walk_past_the_cap_up_front(capsys, argv):
    # the squarefree b <= introot(X, 3) alone exceed the default cap, so the
    # refusal comes before any sieve or shape list is built
    code, out, err = run_cli(capsys, "enumerate", argv[0], "--k", "2", *argv[1:])
    assert (code, out) == (2, "")
    assert "exceeds cap 1000000" in err


def test_empirical_csv(capsys):
    code, out, _ = run_cli(capsys, "empirical", "--k", "2", "--N", "100",
                           "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert sum(int(r["count"]) for r in rows) == 100


def test_empirical_large_k_hit_counts(capsys):
    # k = 80 puts about 300 k-full values in one interval; the count must
    # neither crash nor wrap at 255
    code, out, _ = run_cli(capsys, "empirical", "--k", "80", "--N", "6",
                           "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert sum(int(r["count"]) for r in rows) == 6
    assert max(max(int(r["l"]), int(r["m"])) for r in rows) > 255


def test_empirical_compare_columns(capsys):
    code, out, _ = run_cli(capsys, "empirical", "--k", "2", "--N", "500",
                           "--format", "csv", "--compare")
    assert code == 0
    rows = parse_csv(out)
    assert "analytic" in rows[0] and "deviation" in rows[0]
    assert all(float(r["deviation"]) < 0.2 for r in rows)


def test_verify_quick_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "2", "--quick", "--N", "20000")
    assert code == 0
    assert "all checks passed" in out


def test_verify_quick_k3_widened(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "3", "--quick", "--N", "10000")
    assert code == 0
    assert "all checks passed" in out


def test_verify_tampered_tolerance_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "2", "--quick", "--N", "5000",
                           "--tolerance-scale", "0")
    assert code == 1
    assert "FAIL" in out


def test_verify_json_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "2", "--quick", "--N", "20000",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"cell_route_agreement", "normalization_total_mass",
            "row_sum_consistency", "fractional_part_criterion",
            "empirical_vs_analytic", "power_sum_routes"} <= names
    for c in doc["checks"]:
        assert "tolerance" in c and "observed" in c


def test_verify_small_N_widens_tolerance(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "2", "--quick", "--N", "3000",
                           "--format", "json")
    assert code == 0
    check = {c["name"]: c for c in json.loads(out)["checks"]}["empirical_vs_analytic"]
    assert check["passed"] and check["tolerance"] == 0.005 * (1_000_000 / 3000) ** 0.5


@pytest.mark.parametrize("k, N, quick, tolerance", [
    (2, 1_000_000, False, 0.005),
    (2, 100_000, True, 0.005 * 3.2),
    (3, 10_000, True, 0.02 * 3.2),
])
def test_verify_tolerance_at_default_N(capsys, k, N, quick, tolerance):
    # at N_default (N_default / 10 with --quick) the tolerance is the default
    argv = ["verify", "--k", str(k), "--N", str(N), "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, *(["--quick"] if quick else []))
    assert code == 0
    check = {c["name"]: c for c in json.loads(out)["checks"]}["empirical_vs_analytic"]
    assert check["tolerance"] == tolerance


@pytest.mark.parametrize("N, quick, low, high", [
    ("3000", True, 0.1, 1.0),
    ("1000000", False, 0.0, 0.05),
])
def test_verify_note_states_smallest_caught_error(capsys, N, quick, low, high):
    # the note must not promise a resolution the sample cannot give: at
    # N = 3000 a cell wrong by 0.1 on the side the sample leans to can pass
    argv = ["verify", "--k", "2", "--N", N, "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, *(["--quick"] if quick else []))
    assert code == 0
    check = {c["name"]: c for c in json.loads(out)["checks"]}["empirical_vs_analytic"]
    catches = float(re.search(r"catches any cell error above (\S+) ", check["note"]).group(1))
    assert catches == pytest.approx(check["tolerance"] + check["observed"], rel=1e-3)
    assert low < catches < high


def test_verify_small_N_still_catches_a_wrong_cell(capsys, monkeypatch):
    build_table = density.build_table

    def perturbed(*args, **kwargs):
        table = build_table(*args, **kwargs)
        entries = dict(table.entries)
        entries[(0, 3)] = entries[(0, 3)] + 0.1
        return density.DensityTable(table.k, table.L, table.method, entries)

    monkeypatch.setattr(density, "build_table", perturbed)
    code, out, _ = run_cli(capsys, "verify", "--k", "2", "--quick", "--N", "3000")
    assert code == 1
    assert "[FAIL] empirical_vs_analytic" in out


def test_verify_three_routes_see_a_cell_off_by_1e_10(capsys, monkeypatch):
    # the routes' enclosures of a k = 2 cell are ~1e-38 wide, so a shift far
    # below any float spread tolerance still leaves them apart
    density_A = density.density_A

    def shifted(k, l, m, method="direct", *args):
        e = density_A(k, l, m, method, *args)
        return e + 1e-10 if (l, m, method) == (1, 2, "inversion") else e

    monkeypatch.setattr(density, "density_A", shifted)
    code, out, _ = run_cli(capsys, "verify", "--k", "2", "--quick", "--N", "3000",
                           "--format", "json")
    assert code == 1
    check = {c["name"]: c for c in json.loads(out)["checks"]}["cell_route_agreement"]
    assert not check["passed"] and check["tolerance"] == 0.0
    assert check["observed"] == pytest.approx(1e-10, rel=1e-6)


def _move_cell(monkeypatch, k, l, m, route, by):
    """Make density.density_A return route's enclosure of cell (l, m) at k
    moved by by(direct, inversion), its two routes' enclosures."""
    density_A = density.density_A
    direct, inversion = (density_A(k, l, m, meth) for meth in ("direct", "inversion"))
    with mp.workdps(80):
        moved = {"direct": direct, "inversion": inversion}[route] + by(direct, inversion)

    def shifted(kk, ll, mm, method="direct", *args):
        e = density_A(kk, ll, mm, method, *args)
        return moved if (kk, ll, mm, method) == (k, l, m, route) else e

    monkeypatch.setattr(density, "density_A", shifted)


@pytest.mark.parametrize("route", ["direct", "inversion"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_cell_route_agreement_sees_either_route_moved_by_10_radii(monkeypatch, k, route):
    # combined radii: at k = 4 the direct radius (about 1e-17) dwarfs the
    # inversion one (about 1e-36), so 10 inversion radii would hide in it
    cfg = cli.RunConfig(k=k)
    assert cli._cell_route_excess(cfg) <= 0
    _move_cell(monkeypatch, k, 1, 2, route, lambda d, inv: 10 * (d.radius + inv.radius))
    assert cli._cell_route_excess(cfg) > 0


@pytest.mark.parametrize("route", ["direct", "inversion"])
def test_cell_route_agreement_sees_a_k4_cell_off_by_10_percent(monkeypatch, route):
    _move_cell(monkeypatch, 4, 1, 2, route, lambda d, inv: d.value / 10)
    assert cli._cell_route_excess(cli.RunConfig(k=4)) > 0


def test_table_method_xi_is_no_choice(capsys):
    # the xi cells were the direct route's bytes; the choice is gone
    with pytest.raises(SystemExit) as exc:
        main(["table", "--k", "2", "--method", "xi"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--method" in out.err


def test_verify_power_sum_routes_see_a_direct_sum_moved_by_10_radii(capsys, monkeypatch):
    direct = shapes.power_sum_direct

    def moved(k, m, L):
        d = direct(k, m, L)
        return d + 10 * d.radius if m == 3 else d

    monkeypatch.setattr(shapes, "power_sum_direct", moved)
    code, out, _ = run_cli(capsys, "verify", "--k", "2", "--quick", "--N", "3000",
                           "--format", "json")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert not checks["power_sum_routes"]["passed"]
    assert checks["power_sum_routes"]["tolerance"] == 0.0
    assert checks["closed_form_power_sums"]["passed"]


def test_verify_power_sum_routes_see_an_euler_sum_moved_at_k4(capsys, monkeypatch):
    # the engine's P_4(2) moved by 10 combined radii; xi and the coefficients
    # are the engine's own, so only what reads the power sums sees the move
    engine = density._engine
    real = engine(4, 30)
    d = shapes.power_sum_direct(4, 2, 2**16)
    shift = 10 * (d.radius + real.ps.p(2).radius)
    values = [real.ps.p(m) + shift if m == 2 else real.ps.p(m) for m in range(1, 9)]
    moved = real._replace(ps=shapes.PowerSums(4, tuple(values)))
    monkeypatch.setattr(density, "_engine",
                        lambda k, digits: moved if k == 4 else engine(k, digits))
    code, out, _ = run_cli(capsys, "verify", "--k", "4", "--quick", "--format", "json")
    assert code == 1
    check = {c["name"]: c for c in json.loads(out)["checks"]}["power_sum_routes"]
    assert not check["passed"] and check["tolerance"] == 0.0


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "table", "--k", "1")
    assert code == 2 and "error" in err
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["bogus"])
    assert exc.value.code == 2


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "t.csv"
    code, out, _ = run_cli(capsys, "table", "--k", "2", "--max-index", "1",
                           "--format", "csv", "--out", str(path))
    assert code == 0 and out == ""
    rows = parse_csv(path.read_text())
    assert len(rows) == 3


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2, "max_index": 1, "format": "csv"}))
    # file supplies defaults
    code, out, _ = run_cli(capsys, "table", "--config", str(cfg))
    assert code == 0 and len(parse_csv(out)) == 3
    # explicit flags beat the file
    code, out, _ = run_cli(capsys, "table", "--config", str(cfg),
                           "--max-index", "2")
    assert code == 0 and len(parse_csv(out)) == 6


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run_cli(capsys, "table", "--config", str(cfg))
    assert code == 2 and "bogus" in err


def test_empirical_threads_byte_identical(capsys, monkeypatch):
    monkeypatch.setattr(empirical, "_POOL_MIN_N", 0)  # a real pool at a small N
    code1, out1, _ = run_cli(capsys, "empirical", "--k", "2", "--N", "2000",
                             "--format", "csv")
    try:
        code2, out2, _ = run_cli(capsys, "empirical", "--k", "2", "--N", "2000",
                                 "--format", "csv", "--threads", "2")
    except OSError:
        pytest.skip("process pool unavailable in sandbox")
    assert code1 == code2 == 0
    assert out1 == out2


def test_config_file_feeds_every_option(tmp_path, capsys, monkeypatch):
    seen = []

    def record(cfg):
        seen.append(cfg)
        return 0

    monkeypatch.setattr(cli, "cmd_table", record)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "csv", "cap": 7, "digits": 33,
                               "tolerance_scale": 0.5}))
    code, _, _ = run_cli(capsys, "table", "--config", str(cfg), "--digits", "35")
    assert code == 0
    got = seen[0]
    assert (got.fmt, got.cap, got.tolerance_scale) == ("csv", 7, 0.5)
    assert got.digits == 35  # the flag beats the file
    assert (got.k, got.max_index, got.method, got.N) == (2, 5, "direct", None)
    # command-specific options come from the file too
    cfg.write_text(json.dumps({"limit": 30}))
    code, out, _ = run_cli(capsys, "enumerate", "kfull", "--config", str(cfg))
    assert code == 0 and out.split() == ["8", "27"]
    # parser-only names are not config keys
    cfg.write_text(json.dumps({"command": "table"}))
    code, _, err = run_cli(capsys, "table", "--config", str(cfg))
    assert code == 2 and "command" in err


def test_series_depth_is_not_an_option(tmp_path, capsys):
    # the engine picks the series guard; neither a flag nor a config key sets it
    with pytest.raises(SystemExit) as exc:
        main(["table", "--k", "2", "--r-max", "40"])
    assert exc.value.code == 2
    assert "--r-max" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    for key in ("r_max", "guard"):
        cfg.write_text(json.dumps({key: 41}))
        code, out, err = run_cli(capsys, "table", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == f"error: unknown config key {key!r}\n"


def test_prime_cutoff_is_not_an_option(tmp_path, capsys):
    # the Euler route's cutoff is its own parameter; no flag or key moves it
    with pytest.raises(SystemExit) as exc:
        main(["table", "--prime-cutoff", "3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--prime-cutoff" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"prime_cutoff": 3}))
    code, out, err = run_cli(capsys, "table", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: unknown config key 'prime_cutoff'\n"


def test_constants_build_one_engine(capsys):
    # C_k, the d_l and the P_k(m) read one engine
    density._engine.cache_clear()
    code, _, _ = run_cli(capsys, "constants", "--k", "2", "--max-index", "2",
                         "--format", "csv")
    assert code == 0
    assert density._engine.cache_info().misses == 1


def test_table_grows_power_sums_only_as_deep_as_it_reads(capsys, monkeypatch):
    # cells up to l + m = 10 read a_0..a_10, so xi and P_2 up to 10 + g = 50,
    # of the engine's ceiling r_max = 124
    computed = []
    euler = density.power_sum_euler

    def recorded(k, m, digits, *p0):
        computed.append((k, m, digits))
        return euler(k, m, digits, *p0)

    # the guard reads P_2(1) through density, the engine's power sums through shapes
    monkeypatch.setattr(density, "power_sum_euler", recorded)
    monkeypatch.setattr(shapes, "power_sum_euler", recorded)
    density._engine.cache_clear()
    code, _, _ = run_cli(capsys, "table", "--k", "2", "--max-index", "5", "--digits", "30")
    assert code == 0
    assert sorted(m for k, m, d in computed if d == 61) == list(range(1, 51))
    assert {d for _, _, d in computed} == {15, 61}  # 15: the guard's P_2(1)


@pytest.mark.parametrize("argv, message", [
    (("table", "--k", "2", "--max-index", "23"), "l + m = 45 beyond computed range 44"),
    (("constants", "--k", "2", "--max-index", "85"), "l = 85 beyond computed range 84"),
])
def test_reads_past_the_engine_ceilings_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_uncertifiable_bound_exits_2(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ArithmeticError("could not certify P_2(1) to 30 digits")

    monkeypatch.setattr(density, "build_table", fail)
    code, out, err = run_cli(capsys, "table", "--k", "2")
    assert code == 2 and out == ""
    assert err == "error: could not certify P_2(1) to 30 digits\n"


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(empirical, "empirical_table", fail)
    code, out, err = run_cli(capsys, "empirical", "--k", "2", "--N", "100")
    assert code == 2 and out == ""
    assert err == "error: MemoryError\n"


# exact stdout of the integer-valued commands in every format; json is pinned
# as its object in the writer's layout (indent 2, sorted keys, final newline)
EXACT_OUTPUT = {
    "enumerate kfull --k 2 --limit 100": (
        "value,a,b\n"
        "8,1,2\n"
        "27,1,3\n"
        "32,2,2\n"
        "72,3,2\n",
        [{"a": 1, "b": [2], "value": 8}, {"a": 1, "b": [3], "value": 27},
         {"a": 2, "b": [2], "value": 32}, {"a": 3, "b": [2], "value": 72}],
        "8\n"
        "27\n"
        "32\n"
        "72\n",
    ),
    "enumerate kfull --k 2 --limit 100 --all": (
        "value,a,b\n"
        "1,1,1\n"
        "4,2,1\n"
        "8,1,2\n"
        "9,3,1\n"
        "16,4,1\n"
        "25,5,1\n"
        "27,1,3\n"
        "32,2,2\n"
        "36,6,1\n"
        "49,7,1\n"
        "64,8,1\n"
        "72,3,2\n"
        "81,9,1\n"
        "100,10,1\n",
        [{"a": 1, "b": [1], "value": 1}, {"a": 2, "b": [1], "value": 4},
         {"a": 1, "b": [2], "value": 8}, {"a": 3, "b": [1], "value": 9},
         {"a": 4, "b": [1], "value": 16}, {"a": 5, "b": [1], "value": 25},
         {"a": 1, "b": [3], "value": 27}, {"a": 2, "b": [2], "value": 32},
         {"a": 6, "b": [1], "value": 36}, {"a": 7, "b": [1], "value": 49},
         {"a": 8, "b": [1], "value": 64}, {"a": 3, "b": [2], "value": 72},
         {"a": 9, "b": [1], "value": 81}, {"a": 10, "b": [1], "value": 100}],
        "1\n"
        "4\n"
        "8\n"
        "9\n"
        "16\n"
        "25\n"
        "27\n"
        "32\n"
        "36\n"
        "49\n"
        "64\n"
        "72\n"
        "81\n"
        "100\n",
    ),
    "enumerate lambda --k 3 --bound 20": (
        "index,b,radicand,lambda\n"
        "1,2 1,16,2.5198420997897464\n"
        "2,1 2,32,3.174802103936399\n"
        "3,3 1,81,4.326748710922225\n"
        "4,1 3,243,6.240251469155712\n"
        "5,5 1,625,8.549879733383484\n"
        "6,6 1,1296,10.902723556992838\n"
        "7,7 1,2401,13.390518279406724\n"
        "8,3 2,2592,13.736570910639982\n"
        "9,1 5,3125,14.62008869106433\n"
        "10,2 3,3888,15.72444836525338\n"
        "11,1 6,7776,19.81156349336776\n",
        [{"b": [2, 1], "index": 1, "lambda": 2.5198420997897464, "radicand": 16},
         {"b": [1, 2], "index": 2, "lambda": 3.174802103936399, "radicand": 32},
         {"b": [3, 1], "index": 3, "lambda": 4.326748710922225, "radicand": 81},
         {"b": [1, 3], "index": 4, "lambda": 6.240251469155712, "radicand": 243},
         {"b": [5, 1], "index": 5, "lambda": 8.549879733383484, "radicand": 625},
         {"b": [6, 1], "index": 6, "lambda": 10.902723556992838, "radicand": 1296},
         {"b": [7, 1], "index": 7, "lambda": 13.390518279406724, "radicand": 2401},
         {"b": [3, 2], "index": 8, "lambda": 13.736570910639982, "radicand": 2592},
         {"b": [1, 5], "index": 9, "lambda": 14.62008869106433, "radicand": 3125},
         {"b": [2, 3], "index": 10, "lambda": 15.72444836525338, "radicand": 3888},
         {"b": [1, 6], "index": 11, "lambda": 19.81156349336776, "radicand": 7776}],
        "     1  b=(2 1)  lambda=2.5198420997897464\n"
        "     2  b=(1 2)  lambda=3.174802103936399\n"
        "     3  b=(3 1)  lambda=4.326748710922225\n"
        "     4  b=(1 3)  lambda=6.240251469155712\n"
        "     5  b=(5 1)  lambda=8.549879733383484\n"
        "     6  b=(6 1)  lambda=10.902723556992838\n"
        "     7  b=(7 1)  lambda=13.390518279406724\n"
        "     8  b=(3 2)  lambda=13.736570910639982\n"
        "     9  b=(1 5)  lambda=14.62008869106433\n"
        "    10  b=(2 3)  lambda=15.72444836525338\n"
        "    11  b=(1 6)  lambda=19.81156349336776\n",
    ),
    "enumerate members_B --k 2 --N 60 --I 2": (
        "n\n"
        "2\n"
        "8\n"
        "16\n"
        "39\n"
        "42\n"
        "48\n"
        "53\n"
        "59\n",
        {"N": 60, "k": 2, "members": [2, 8, 16, 39, 42, 48, 53, 59]},
        "2\n"
        "8\n"
        "16\n"
        "39\n"
        "42\n"
        "48\n"
        "53\n"
        "59\n",
    ),
    "empirical --k 2 --N 200": (
        "k,l,m,count,frequency\n"
        "2,0,0,18,0.09\n"
        "2,0,1,28,0.14\n"
        "2,0,2,21,0.105\n"
        "2,0,3,7,0.035\n"
        "2,1,0,32,0.16\n"
        "2,1,1,33,0.165\n"
        "2,1,2,10,0.05\n"
        "2,1,3,4,0.02\n"
        "2,2,0,18,0.09\n"
        "2,2,1,13,0.065\n"
        "2,2,2,5,0.025\n"
        "2,3,0,5,0.025\n"
        "2,3,1,6,0.03\n",
        {"N": 200,
         "bound": 40803,
         "cells": [{"count": 18, "frequency": "0.09", "k": 2, "l": 0, "m": 0},
                   {"count": 28, "frequency": "0.14", "k": 2, "l": 0, "m": 1},
                   {"count": 21, "frequency": "0.105", "k": 2, "l": 0, "m": 2},
                   {"count": 7, "frequency": "0.035", "k": 2, "l": 0, "m": 3},
                   {"count": 32, "frequency": "0.16", "k": 2, "l": 1, "m": 0},
                   {"count": 33, "frequency": "0.165", "k": 2, "l": 1, "m": 1},
                   {"count": 10, "frequency": "0.05", "k": 2, "l": 1, "m": 2},
                   {"count": 4, "frequency": "0.02", "k": 2, "l": 1, "m": 3},
                   {"count": 18, "frequency": "0.09", "k": 2, "l": 2, "m": 0},
                   {"count": 13, "frequency": "0.065", "k": 2, "l": 2, "m": 1},
                   {"count": 5, "frequency": "0.025", "k": 2, "l": 2, "m": 2},
                   {"count": 5, "frequency": "0.025", "k": 2, "l": 3, "m": 0},
                   {"count": 6, "frequency": "0.03", "k": 2, "l": 3, "m": 1}],
         "k": 2},
        "2 0 0 18 0.09\n"
        "2 0 1 28 0.14\n"
        "2 0 2 21 0.105\n"
        "2 0 3 7 0.035\n"
        "2 1 0 32 0.16\n"
        "2 1 1 33 0.165\n"
        "2 1 2 10 0.05\n"
        "2 1 3 4 0.02\n"
        "2 2 0 18 0.09\n"
        "2 2 1 13 0.065\n"
        "2 2 2 5 0.025\n"
        "2 3 0 5 0.025\n"
        "2 3 1 6 0.03\n",
    ),
}


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
@pytest.mark.parametrize("command", sorted(EXACT_OUTPUT))
def test_exact_output_bytes(capsys, command, fmt):
    csv_text, doc, text = EXACT_OUTPUT[command]
    want = {"csv": csv_text, "text": text,
            "json": json.dumps(doc, indent=2, sort_keys=True) + "\n"}[fmt]
    assert run_cli(capsys, *command.split(), "--format", fmt) == (0, want, "")


def test_out_file_equals_stdout(tmp_path, capsys):
    argv = ("empirical", "--k", "2", "--N", "200", "--format", "json")
    _, out, _ = run_cli(capsys, *argv)
    path = tmp_path / "e.json"
    assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("doc", [{"k": "2"}, {"max_index": 2.5}, {"format": "xml"},
                                 {"quick": "yes"}])
def test_config_values_checked_like_flags(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "table", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error:") and next(iter(doc)) in err


# exact csv stdout of the engine's table and constants routes: a change in how
# the series are summed may shrink a radius only below its printed 8 digits.
# The k = 3 cells and d_3,l rows are as the engine's guard g = 45 prints
# them (the cells were pinned through the xi method, which printed the
# direct route's value and radius bytes); FIXED_GUARD_ROWS keeps their
# earlier enclosures.  The P rows are the engine's own power sums, as
# the Witt-exponent Euler route prints them; SECOND_SOURCE_OUTPUT and
# LOG1P_CHAIN_P_RADII keep the wider radii of earlier sources and routes
EXACT_SERIES_OUTPUT = {
    "table --k 2 --max-index 5 --method direct": (
        'k,l,m,value,radius,method\n'
        '2,0,0,0.0492272730092412771280194395251,4.8735708e-35,direct\n'
        '2,0,1,0.10792054355786835009171708771,5.717938e-35,direct\n'
        '2,0,2,0.079380653129410064093719006816,3.3542977e-35,direct\n'
        '2,0,3,0.0305304151093236913808207222328,1.3118148e-35,direct\n'
        '2,0,4,0.00744445126903480014001210889401,3.8477308e-36,direct\n'
        '2,0,5,0.00127863716360588716105255726214,9.0287335e-37,direct\n'
        '2,1,1,0.158761306258820128187438013632,6.7085954e-35,direct\n'
        '2,1,2,0.0915912453279710741424621666983,3.9354443e-35,direct\n'
        '2,1,3,0.029777805076139200560048435576,1.5390923e-35,direct\n'
        '2,1,4,0.00639318581802943580526278631069,4.5143667e-36,direct\n'
        '2,1,5,0.000991429441849282653348347300516,1.0593001e-36,direct\n'
        '2,2,2,0.0446667076142088008400726533641,2.3086385e-35,direct\n'
        '2,2,3,0.0127863716360588716105255726214,9.0287335e-36,direct\n'
        '2,2,4,0.00247857360462320663337086825129,2.6482501e-36,direct\n'
        '2,2,5,0.000352959533270738706132161287556,6.2141418e-37,direct\n'
        '2,3,3,0.00330476480616427551116115766839,3.5310002e-36,direct\n'
        '2,3,4,0.000588265888784564510220268812593,1.0356903e-36,direct\n'
        '2,3,5,0.0000778673059710199858399778838746,2.4302562e-37,direct\n'
        '2,4,4,0.0000973341324637749822999723548432,3.0378203e-37,direct\n'
        '2,4,5,0.0000120859130092753250317703470444,7.1282714e-38,direct\n'
        '2,5,5,0.00000141783328625129560532212190082,1.672655e-38,direct\n'
    ),
    "table --k 3 --max-index 5 --method direct": (
        'k,l,m,value,radius,method\n'
        '3,0,0,0.000146352836245950288782280998592,1.2486594e-18,direct\n'
        '3,0,1,0.000898954913393338273097719914563,4.5691772e-18,direct\n'
        '3,0,2,0.00241318469443338347665411581083,8.3599177e-18,direct\n'
        '3,0,3,0.00389944540611754468132190575991,1.0197055e-17,direct\n'
        '3,0,4,0.00436092537010464477580206787672,9.328434e-18,direct\n'
        '3,0,5,0.00365499793953792878025907159873,6.8270445e-18,direct\n'
        '3,1,1,0.00482636938886676695330823162166,1.6719835e-17,direct\n'
        '3,1,2,0.0116983362183526340439657172797,3.0591164e-17,direct\n'
        '3,1,3,0.0174437014804185791032082715069,3.7313736e-17,direct\n'
        '3,1,4,0.0182749896976896439012953579937,3.4135223e-17,direct\n'
        '3,1,5,0.014504446452902380020588711374,2.4981973e-17,direct\n'
        '3,2,2,0.0261655522206278686548124072603,5.5970604e-17,direct\n'
        '3,2,3,0.0365499793953792878025907159873,6.8270445e-17,direct\n'
        '3,2,4,0.0362611161322559500514717784349,6.2454932e-17,direct\n'
        '3,2,5,0.0274727056687557545673204592916,4.5707843e-17,direct\n'
        '3,3,3,0.0483481548430079334019623712465,8.3273243e-17,direct\n'
        '3,3,4,0.0457878427812595909455340988193,7.6179739e-17,direct\n'
        '3,3,5,0.0333183925139008248967551355438,5.5752388e-17,direct\n'
        '3,4,4,0.0416479906423760311209439194298,6.9690484e-17,direct\n'
        '3,4,5,0.0292470001726458473931758688605,5.1003206e-17,direct\n'
        '3,5,5,0.0198968826699103982319308643708,3.7326861e-17,direct\n'
    ),
    "constants --k 3": (
        'name,value,radius\n'
        'C_3,0.000146352836245950288782280998592,1.2486594e-18\n'
        '"d_3,0",0.0200375956179512025504920137545,1.6246345e-32\n'
        '"d_3,1",0.084806202320633468385327993365,5.94497e-32\n'
        '"d_3,2",0.171014563321717356370704572588,1.0877114e-31\n'
        '"d_3,3",0.220239555929766750371172780953,1.3267418e-31\n'
        '"d_3,4",0.204704699050673834630145073229,1.2137253e-31\n'
        '"d_3,5",0.147035502233370916475887419161,8.8826879e-32\n'
        'P_3(1),3.65926612250065694127743110891,8.7212743e-81\n'
        'P_3(2),0.398105028048410820538154908534,9.0847683e-82\n'
        'P_3(3),0.114576315025302288937661068255,1.3941296e-82\n'
        'P_3(4),0.0385373195798538272135107784855,3.1068295e-82\n'
        'P_3(5),0.0137448928486802284206238123813,1.8354861e-83\n'
        'P_3(6),0.00505585022863197085195559916529,1.3646474e-83\n'
        'P_3(7),0.00189612534535890094915782893951,4.3196585e-84\n'
        'P_3(8),0.000720702146129669997140834044113,1.2948359e-84\n'
    ),
    "constants --k 2 --digits 50 --max-index 5": (
        'name,value,radius\n'
        'C_2,0.0492272730092412771280194395251,4.8735708e-35\n'
        'c_2,2.17325431251955413823708984044,5.7025859e-52\n'
        '"d_2,0",0.275965511407718981112319752475,2.1525544e-47\n'
        '"d_2,1",0.395565215396236288211828683112,2.5254937e-47\n'
        '"d_2,2",0.231299167354828379832590791901,1.4815232e-47\n'
        '"d_2,3",0.077074272223364066667341114258,5.7940116e-48\n'
        '"d_2,4",0.0170151788585531099879469019156,1.6994623e-48\n'
        '"d_2,5",0.00271453958205980566931786128645,3.9878029e-49\n'
        'P_2(1),1.17325431251955413823708984044,3.5564395e-96\n'
        'P_2(2),0.18156494901025691256939973416,5.9050592e-96\n'
        'P_2(3),0.0525934895482646848881100326415,1.2489247e-96\n'
        'P_2(4),0.0170927691304992766432721330979,5.6084133e-96\n'
        'P_2(5),0.00579596201196013885802241486261,1.4012432e-96\n'
        'P_2(6),0.00200456788079374398903554270148,1.3016822e-96\n'
        'P_2(7),0.000700365374722017404107574643848,1.0415172e-96\n'
        'P_2(8),0.000246026930453777256968562684541,1.0262901e-96\n'
    ),
}


@pytest.mark.parametrize("command", sorted(EXACT_SERIES_OUTPUT))
def test_series_output_bytes(capsys, command):
    assert run_cli(capsys, *command.split(), "--format", "csv") == (
        0, EXACT_SERIES_OUTPUT[command], "")


# the P-row radii EXACT_SERIES_OUTPUT held while the exact primes of the
# Euler route were accumulated by one interval log1p per prime; the single
# counted product per m may only have shrunk them
LOG1P_CHAIN_P_RADII = {
    "constants --k 3": {
        "P_3(1)": "1.8108629e-38", "P_3(2)": "4.5778787e-40",
        "P_3(3)": "4.1068322e-40", "P_3(4)": "1.8165245e-40",
        "P_3(5)": "1.7633026e-40", "P_3(6)": "2.6022544e-40",
        "P_3(7)": "5.0633862e-42", "P_3(8)": "1.4003547e-42",
    },
    "constants --k 2 --digits 50 --max-index 5": {
        "P_2(1)": "2.1942576e-60", "P_2(2)": "1.6027515e-60",
        "P_2(3)": "3.778771e-63", "P_2(4)": "1.4437276e-60",
        "P_2(5)": "2.6459578e-60", "P_2(6)": "1.4827e-63",
        "P_2(7)": "3.5004523e-63", "P_2(8)": "1.093915e-63",
    },
}


@pytest.mark.parametrize("command", sorted(LOG1P_CHAIN_P_RADII))
def test_series_power_sum_radii_only_shrank(command):
    old = LOG1P_CHAIN_P_RADII[command]
    rows = [line.split(",") for line in EXACT_SERIES_OUTPUT[command].splitlines()
            if line.startswith("P_")]
    new = {name: radius for name, _, radius in rows}
    assert new.keys() == old.keys()
    for name, radius in new.items():
        assert float(radius) <= float(old[name]), name


# the csv constants printed while their P_k(m) rows came from a second
# power-sum build at --digits, beside the engine's own sums at digits + 30
# and more; reading the engine's sums may only have shrunk those radii
SECOND_SOURCE_OUTPUT = {
    "constants --k 3": (
        'name,value,radius\n'
        'C_3,0.000146352836245950288782280998592,1.2486594e-18\n'
        '"d_3,0",0.0200375956179512025504920137545,1.6246345e-32\n'
        '"d_3,1",0.084806202320633468385327993365,5.94497e-32\n'
        '"d_3,2",0.171014563321717356370704572588,1.0877114e-31\n'
        '"d_3,3",0.220239555929766750371172780953,1.3267418e-31\n'
        '"d_3,4",0.204704699050673834630145073229,1.2137253e-31\n'
        '"d_3,5",0.147035502233370916475887419161,8.8826879e-32\n'
        'P_3(1),3.65926612250065694127743110891,5.6868844e-43\n'
        'P_3(2),0.398105028048410820538154908534,1.5626097e-43\n'
        'P_3(3),0.114576315025302288937661068255,1.1204184e-43\n'
        'P_3(4),0.0385373195798538272135107784855,4.0365759e-45\n'
        'P_3(5),0.0137448928486802284206238123813,2.2614239e-45\n'
        'P_3(6),0.00505585022863197085195559916529,3.7825323e-45\n'
        'P_3(7),0.00189612534535890094915782893951,1.9368205e-46\n'
        'P_3(8),0.000720702146129669997140834044113,1.7083491e-46\n'
    ),
    "constants --k 2 --digits 50 --max-index 5": (
        'name,value,radius\n'
        'C_2,0.0492272730092412771280194395251,4.8735708e-35\n'
        'c_2,2.17325431251955413823708984044,5.7025859e-52\n'
        '"d_2,0",0.275965511407718981112319752475,2.1525544e-47\n'
        '"d_2,1",0.395565215396236288211828683112,2.5254937e-47\n'
        '"d_2,2",0.231299167354828379832590791901,1.4815232e-47\n'
        '"d_2,3",0.077074272223364066667341114258,5.7940116e-48\n'
        '"d_2,4",0.0170151788585531099879469019156,1.6994623e-48\n'
        '"d_2,5",0.00271453958205980566931786128645,3.9878029e-49\n'
        'P_2(1),1.17325431251955413823708984044,1.9511734e-64\n'
        'P_2(2),0.18156494901025691256939973416,3.1694448e-65\n'
        'P_2(3),0.0525934895482646848881100326415,6.8822982e-65\n'
        'P_2(4),0.0170927691304992766432721330979,7.8589083e-66\n'
        'P_2(5),0.00579596201196013885802241486261,2.5365731e-65\n'
        'P_2(6),0.00200456788079374398903554270148,6.4974189e-65\n'
        'P_2(7),0.000700365374722017404107574643848,1.5216293e-66\n'
        'P_2(8),0.000246026930453777256968562684541,6.4290123e-65\n'
    ),
}


@pytest.mark.parametrize("command", sorted(SECOND_SOURCE_OUTPUT))
def test_engine_power_sums_moved_only_their_radii(capsys, command):
    code, out, err = run_cli(capsys, *command.split(), "--format", "csv")
    assert (code, err) == (0, "")
    rows, old = parse_csv(out), parse_csv(SECOND_SOURCE_OUTPUT[command])
    assert [(r["name"], r["value"]) for r in rows] == [(r["name"], r["value"]) for r in old]
    for r, o in zip(rows, old):
        assert Decimal(r["radius"]) <= Decimal(o["radius"]), r["name"]
        if not r["name"].startswith("P_"):
            assert r["radius"] == o["radius"], r["name"]


def test_constants_read_every_power_sum_from_the_engine(capsys, monkeypatch):
    # the guard's P_2(1) at 15 digits, then P_2(1..45) at the engine's
    # 50 + 31 digits for d_2,0..d_2,5; the printed P_2(1..8) are among them
    computed = []
    euler = density.power_sum_euler

    def recorded(k, m, digits, *p0):
        computed.append(digits)
        return euler(k, m, digits, *p0)

    monkeypatch.setattr(density, "power_sum_euler", recorded)
    monkeypatch.setattr(shapes, "power_sum_euler", recorded)
    density._engine.cache_clear()
    code, _, _ = run_cli(capsys, "constants", "--k", "2", "--digits", "50",
                         "--max-index", "5", "--format", "csv")
    assert code == 0
    assert len(computed) == 46
    assert sorted(set(computed)) == [15, 81] and computed.count(15) == 1


# (l, m) -> (value, radius) of table --k 2 --method inversion --max-index 3 as
# the per-operation interval chain printed them; values must stay byte for
# byte, a radius may only shrink
INVERSION_2_3 = {
    (0, 0): ('0.0492272730092412771280194395251', '1.3973894e-46'),
    (0, 1): ('0.10792054355786835009171708771', '1.6394375e-46'),
    (0, 2): ('0.079380653129410064093719006816', '9.6126259e-47'),
    (0, 3): ('0.0305304151093236913808207222328', '3.7584967e-47'),
    (1, 1): ('0.158761306258820128187438013632', '1.9225252e-46'),
    (1, 2): ('0.0915912453279710741424621666983', '1.127549e-46'),
    (1, 3): ('0.029777805076139200560048435576', '4.4812361e-47'),
    (2, 2): ('0.0446667076142088008400726533641', '6.7218542e-47'),
    (2, 3): ('0.0127863716360588716105255726214', '3.9534577e-47'),
    (3, 3): ('0.00330476480616427551116115766839', '1.6830404e-46'),
}


# the same for table --k 3 --method inversion --max-index 5 and
# table --k 4 --method inversion --max-index 2, as printed while the inversion
# tail bounded the one-sided d_j by e^P P^j / j! rather than P^j / j!
INVERSION_3_5 = {
    (0, 0): ('0.000146352836245950288782392145288', '1.2617832e-30'),
    (0, 1): ('0.000898954913393338273097954341675', '4.6172007e-30'),
    (0, 2): ('0.0024131846944333834766543616804', '8.447783e-30'),
    (0, 3): ('0.00389944540611754468132207674936', '1.0304229e-29'),
    (0, 4): ('0.00436092537010464477580215659144', '9.4264787e-30'),
    (0, 5): ('0.00365499793953792878025910823006', '6.8987989e-30'),
    (1, 1): ('0.0048263693888667669533087233608', '1.6895566e-29'),
    (1, 2): ('0.0116983362183526340439662302481', '3.0912686e-29'),
    (1, 3): ('0.0174437014804185791032086263657', '3.7705915e-29'),
    (1, 4): ('0.0182749896976896439012955411503', '3.4493994e-29'),
    (1, 5): ('0.0145044464529023800205887866158', '2.5244541e-29'),
    (2, 2): ('0.0261655522206278686548129395486', '5.6558872e-29'),
    (2, 3): ('0.0365499793953792878025910823006', '6.8987989e-29'),
    (2, 4): ('0.0362611161322559500514719665395', '6.3111352e-29'),
    (2, 5): ('0.0274727056687557545673205361786', '4.6188247e-29'),
    (3, 3): ('0.0483481548430079334019626220526', '8.414847e-29'),
    (3, 4): ('0.0457878427812595909455342269644', '7.6980411e-29'),
    (3, 5): ('0.0333183925139008248967551876644', '5.6338362e-29'),
    (4, 4): ('0.0416479906423760311209439845805', '7.0422953e-29'),
    (4, 5): ('0.0292470001726458473931758952308', '5.1539265e-29'),
    (5, 5): ('0.0198968826699103982319308749935', '3.7719177e-29'),
}
INVERSION_4_2 = {
    (0, 0): ('0.00000000250704801450304448106994292989', '1.3490888e-36'),
    (0, 1): ('0.0000000323988607585230906935251050075', '1.1695893e-35'),
    (0, 2): ('0.000000197362540960667768870759988818', '5.0698627e-35'),
    (1, 1): ('0.000000394725081921335537741519977636', '1.0139725e-34'),
    (1, 2): ('0.00000229292959545586490765327683876', '4.3953051e-34'),
    (2, 2): ('0.0000128035690116165662573306394943', '1.9052495e-33'),
}


def test_inversion_values_pinned_and_radii_never_grow(capsys):
    for k, L, pinned in ((2, 3, INVERSION_2_3), (3, 5, INVERSION_3_5), (4, 2, INVERSION_4_2)):
        code, out, err = run_cli(capsys, "table", "--k", str(k), "--method", "inversion",
                                 "--max-index", str(L), "--format", "csv")
        assert (code, err) == (0, "")
        rows = parse_csv(out)
        assert sorted((int(r["l"]), int(r["m"])) for r in rows) == sorted(pinned)
        for r in rows:
            value, radius = pinned[(int(r["l"]), int(r["m"]))]
            assert r["value"] == value, (k, r["l"], r["m"])
            assert Decimal(r["radius"]) <= Decimal(radius), (k, r["l"], r["m"])


# name -> (value, radius) of constants --k 4: the P rows as printed before the
# power-sum layer took its powers from the root table, the d_4,l rows as the
# engine's guard g = 75 prints them; values stay byte for byte, a radius may
# only shrink
CONSTANTS_4 = {
    'C_4': ('0.00000000250704801450303419875844839674', '1.0025562e-17'),
    'd_4,0': ('0.000114835958198348513783370305067', '1.1585244e-40'),
    'd_4,1': ('0.00110111186594176346738904722488', '1.0043799e-39'),
    'd_4,2': ('0.00520125162767387227549740444813', '4.3537235e-39'),
    'd_4,3': ('0.0161533707862574581231104521578', '1.25815e-38'),
    'd_4,4': ('0.037138496989515158804684032508', '2.7268751e-38'),
    'd_4,5': ('0.0674772022453796303734643738102', '4.7281153e-38'),
    'P_4(1)': ('8.6694754843823681065006669432', '9.3495209e-36'),
    'P_4(2)': ('0.640791932632135461169645780226', '5.7939193e-39'),
    'P_4(3)': ('0.180413547819446903713349760499', '3.188374e-39'),
    'P_4(4)': ('0.0614631360930831354044090436602', '2.8602461e-40'),
    'P_4(5)': ('0.0224446522342498317897053075304', '4.2318386e-42'),
    'P_4(6)': ('0.00850200266742027011023279248396', '6.3761452e-42'),
    'P_4(7)': ('0.00329768274723253838930138629971', '1.0811992e-41'),
    'P_4(8)': ('0.00130089897084777318293788788357', '2.599889e-40'),
}


def test_constants_k4_values_pinned_and_radii_never_grow(capsys):
    code, out, err = run_cli(capsys, "constants", "--k", "4", "--format", "csv")
    assert (code, err) == (0, "")
    rows = parse_csv(out)
    assert [r["name"] for r in rows] == list(CONSTANTS_4)
    for r in rows:
        value, radius = CONSTANTS_4[r["name"]]
        assert r["value"] == value
        assert Decimal(r["radius"]) <= Decimal(radius)


# name or "l,m" -> (value, radius) of the rows that moved when the xi,
# inversion and one-sided sums stopped at a fixed guard of 40, whatever depth
# the engine had built (the k = 3 cells as the xi method, whose bytes the
# direct route prints, printed them); each row's value now lies inside that
# enclosure and its radius is no larger
FIXED_GUARD_ROWS = {
    "table --k 3 --max-index 5 --method direct": {
        "0,0": ('0.000146352836245950301214880201959', '1.0002453e-14'),
        "0,1": ('0.000898954913393338300095420554776', '3.6601637e-14'),
        "0,2": ('0.00241318469443338350579042780722', '6.6967565e-14'),
        "0,3": ('0.00389944540611754470216088051182', '8.1684047e-14'),
        "0,4": ('0.00436092537010464478691567032897', '7.4725917e-14'),
        "0,5": ('0.00365499793953792878497369674414', '5.4688403e-14'),
        "1,1": ('0.00482636938886676701158085561445', '1.3393513e-13'),
        "1,2": ('0.0116983362183526341064826415355', '2.4505214e-13'),
        "1,3": ('0.0174437014804185791476626813159', '2.9890367e-13'),
        "1,4": ('0.0182749896976896439248684837207', '2.7344202e-13'),
        "1,5": ('0.0145044464529023800305331399365', '2.0011942e-13'),
        "2,2": ('0.0261655522206278687214940219738', '4.483555e-13'),
        "2,3": ('0.0365499793953792878497369674414', '5.4688403e-13'),
        "2,4": ('0.0362611161322559500763328498412', '5.0029855e-13'),
        "2,5": ('0.0274727056687557545777507803822', '3.6614511e-13'),
        "3,3": ('0.0483481548430079334351104664549', '6.6706474e-13'),
        "3,4": ('0.0457878427812595909629179673036', '6.1024185e-13'),
        "3,5": ('0.0333183925139008249040092208086', '4.4660746e-13'),
        "4,4": ('0.0416479906423760311300115260108', '5.5825933e-13'),
        "4,5": ('0.02924700017264584739693968996', '4.0856389e-13'),
        "5,5": ('0.0198968826699103982334850596484', '2.990088e-13'),
    },
    "constants --k 3": {
        'd_3,0': ('0.0200375956179512025504920137545', '4.1144685e-27'),
        'd_3,1': ('0.084806202320633468385327993365', '1.5055935e-26'),
        'd_3,2': ('0.171014563321717356370704572588', '2.7546837e-26'),
        'd_3,3': ('0.220239555929766750371172780953', '3.3600402e-26'),
        'd_3,4': ('0.204704699050673834630145073229', '3.0738203e-26'),
        'd_3,5': ('0.147035502233370916475887419161', '2.2495853e-26'),
    },
    "constants --k 4": {
        'd_4,0': ('0.000114835958260193578134483769775', '1.0806473e-11'),
        'd_4,1': ('0.00110111186637993397300040760794', '9.3686449e-11'),
        'd_4,2': ('0.00520125162922145363086381745851', '4.0610618e-10'),
        'd_4,3': ('0.0161533707898907106747156509042', '1.1735759e-9'),
        'd_4,4': ('0.0371384969958940039645471935844', '2.5435718e-9'),
        'd_4,5': ('0.067477202254313530755748973085', '4.4102867e-9'),
    },
}


def _pinned_rows(command):
    if command == "constants --k 4":
        return dict(CONSTANTS_4)
    rows = parse_csv(EXACT_SERIES_OUTPUT[command])
    return {r.get("name") or f"{r['l']},{r['m']}": (r["value"], r["radius"]) for r in rows}


@pytest.mark.parametrize("command", sorted(FIXED_GUARD_ROWS))
def test_engine_guard_rows_inside_fixed_guard_enclosures(command):
    new = _pinned_rows(command)
    for name, (old_value, old_radius) in FIXED_GUARD_ROWS[command].items():
        value, radius = new[name]
        assert abs(Decimal(value) - Decimal(old_value)) <= Decimal(old_radius), name
        assert Decimal(radius) <= Decimal(old_radius), name


@pytest.mark.parametrize("argv, k", [
    (("constants", "--k", "6"), 6),
    (("table", "--k", "10", "--max-index", "1"), 10),
    (("constants", "--k", "7"), 7),
])
def test_engine_beyond_float_guard_exits_2(capsys, argv, k):
    # the guard search passes the engine's ceiling; that ends in a message
    # naming k, not in the errno text of a raw OverflowError
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: k = {k} ")
    assert "guard" in err
    assert "34" not in err and "out of range" not in err


def test_constants_past_the_float_root_exits_2_naming_p1(capsys):
    # P_300(1) takes 300th roots of 192 q-bit integers: a failure to certify,
    # not a float overflow in the root's start
    code, out, err = run_cli(capsys, "constants", "--k", "300")
    assert code == 2 and out == ""
    assert err.startswith("error: could not certify P_300(1)")


@pytest.mark.parametrize("bound", ["-5", "0", "2.8"])
def test_enumerate_lambda_below_the_smallest_shape_is_empty(capsys, bound):
    code, out, err = run_cli(capsys, "enumerate", "lambda", "--k", "2", "--bound", bound,
                             "--format", "csv")
    assert (code, out, err) == (0, "index,b,radicand,lambda\n", "")


@pytest.mark.parametrize("limit", ["-5", "0", "1"])
@pytest.mark.parametrize("fmt,empty", [("csv", "value,a,b\n"), ("json", "[]\n"),
                                       ("text", "")])
def test_enumerate_kfull_below_the_first_value_is_empty(capsys, limit, fmt, empty):
    code, out, err = run_cli(capsys, "enumerate", "kfull", "--k", "2", "--limit", limit,
                             "--format", fmt)
    assert (code, out, err) == (0, empty, "")


@pytest.mark.parametrize("bound", ["nan", "inf", "-inf"])
def test_enumerate_lambda_non_finite_bound_exits_2(capsys, bound):
    code, out, err = run_cli(capsys, "enumerate", "lambda", "--k", "2", f"--bound={bound}")
    assert code == 2 and out == ""
    assert err.startswith("error: bound must be finite") and bound in err


@pytest.mark.parametrize("scale", ["nan", "-1", "inf"])
def test_verify_rejects_a_bad_tolerance_scale(capsys, scale):
    code, out, err = run_cli(capsys, "verify", "--k", "2", "--quick", "--N", "2000",
                             f"--tolerance-scale={scale}")
    assert code == 2 and out == ""
    assert err.startswith("error: --tolerance-scale")


@pytest.mark.parametrize("text", ['{"tolerance_scale": NaN}', '{"tolerance_scale": -0.5}'])
def test_config_rejects_a_bad_tolerance_scale(tmp_path, capsys, text):
    # json.load accepts NaN, so the file's value meets the flag's own check
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--k", "2", "--quick", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error: --tolerance-scale")


@pytest.mark.parametrize("k, L", [(2, 2**20), (4, 2**16)])
def test_verify_sums_the_shapes_up_to_L_k(monkeypatch, k, L):
    # one expression of k, L_k = 2^(24 - 2k); the recorded stand-in walks no
    # shape and agrees with the Euler route
    seen = set()

    def recorded(k, m, L):
        seen.add(L)
        return density._engine(k, 30).ps.p(m)

    monkeypatch.setattr(shapes, "power_sum_direct", recorded)
    report = cli.run_verify(cli.RunConfig(k=k, quick=True, N=1000))
    assert seen == {L}
    check = {c["name"]: c for c in report["checks"]}["power_sum_routes"]
    assert check["passed"] and f"(shapes lambda <= {L}, no zeta)" in check["note"]


@pytest.mark.parametrize("B", ["1", "0", "-3"])
def test_verify_rejects_a_box_below_2(capsys, B):
    # --trunc-B is no option, so the parser refuses every box
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--k", "2", "--quick", f"--trunc-B={B}"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--trunc-B" in err


def test_trunc_B_is_not_an_option(tmp_path, capsys):
    # the oracle's shape bound is one expression of k; no flag or key moves it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--k", "4", "--quick", "--trunc-B", "200"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--trunc-B" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trunc_B": 200}))
    code, out, err = run_cli(capsys, "verify", "--k", "2", "--quick", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: unknown config key 'trunc_B'\n"
