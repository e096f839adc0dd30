import csv
import io
import json

import pytest

from kfull import cli, density, empirical
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
    _, direct, _ = run_cli(capsys, "table", "--k", "2", "--max-index", "2",
                           "--format", "csv")
    _, xi, _ = run_cli(capsys, "table", "--k", "2", "--max-index", "2",
                       "--format", "csv", "--method", "xi")
    for a, b in zip(parse_csv(direct), parse_csv(xi)):
        assert abs(float(a["value"]) - float(b["value"])) <= 1e-9


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
    assert {"three_route_agreement", "normalization_total_mass",
            "row_sum_consistency", "fractional_part_criterion",
            "empirical_vs_analytic", "power_sum_routes"} <= names
    for c in doc["checks"]:
        assert "tolerance" in c and "observed" in c


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


def test_empirical_threads_byte_identical(capsys):
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
    cfg.write_text(json.dumps({"r_max": 41, "format": "csv", "prime_cutoff": 500,
                               "cap": 7, "digits": 33, "tolerance_scale": 0.5}))
    code, _, _ = run_cli(capsys, "table", "--config", str(cfg), "--digits", "35")
    assert code == 0
    got = seen[0]
    assert (got.guard, got.fmt, got.prime_cutoff, got.cap, got.tolerance_scale) == (
        41, "csv", 500, 7, 0.5)
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
