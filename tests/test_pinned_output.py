"""Byte pins: the stdout of six engine commands, stored as the engine printed
it before its Euler layer moved onto fixed-point integers, except radii that
shrank since: the P_2(m) rows of constants_k2_d50_L5.csv, when +, - and *
moved onto bounded.dot, again when the Euler route moved onto the Witt
exponents and again when constants read the engine's own power sums, and
then also the (1,3), (2,2), (2,3) and (3,3) cells of
table_k2_inversion_L3.csv.  The k = 3 and k = 4 inversion tables were
pinned later, as the engine printed them then.  Every radius of the three
inversion tables shrank once more when their truncation bound took the
one-sided d_j <= P^j / j! in place of e^P P^j / j!: by 2-34 % at k = 2,
49 % at k = 3 and 50 % at k = 4, with every value unchanged.  Every radius
of table_k2_inversion_L3.csv shrank again when the exact product of the
Euler route stopped moving its smallest prime factors into the radius
((3,3) from 1.6481433e-46 to 6.6008796e-48), with every value unchanged.
Any printed digit or radius that moves fails here."""

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
