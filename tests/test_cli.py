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
