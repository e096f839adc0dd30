"""Byte pins: the stdout of six engine commands, stored as the engine printed
it before its Euler layer moved onto fixed-point integers, except radii that
shrank since: the P_2(m) rows of constants_k2_d50_L5.csv, when +, - and *
moved onto bounded.dot and again when the Euler route moved onto the Witt
exponents, and then also the (1,3), (2,2), (2,3) and (3,3) cells of
table_k2_inversion_L3.csv.  The k = 3 and k = 4 inversion tables were
pinned later, as the engine printed them then.  Any printed digit or radius
that moves fails here."""

from pathlib import Path

import pytest

from kfull.cli import main

PINNED = Path(__file__).parent / "pinned"


@pytest.mark.parametrize("name, argv", [
    ("table_k2_L5_d30.csv", ("table", "--k", "2", "--max-index", "5", "--digits", "30")),
    ("table_k3_L5_d30.csv", ("table", "--k", "3", "--max-index", "5", "--digits", "30")),
    ("constants_k2_d50_L5.csv", ("constants", "--k", "2", "--digits", "50", "--max-index", "5")),
    ("table_k2_inversion_L3.csv", ("table", "--k", "2", "--method", "inversion",
                                   "--max-index", "3")),
    ("table_k3_inversion_L5.csv", ("table", "--k", "3", "--method", "inversion",
                                   "--max-index", "5")),
    ("table_k4_inversion_L2.csv", ("table", "--k", "4", "--method", "inversion",
                                   "--max-index", "2")),
])
def test_stdout_matches_pinned_bytes(capsys, name, argv):
    code = main([*argv, "--format", "csv"])
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    assert out.out == (PINNED / name).read_text()
