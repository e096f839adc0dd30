"""The benchmark's workloads: kfull command lines generated from a seed.

Each workload is a list of commands run one after another, each in a fresh
process.  The seed picks every argument that varies (N, the --I/--J subset
tuples, --max-index) from a fixed band, narrow enough that the cost of a pass
barely depends on the seed.  The program only ever sees the arguments.

engine  the series engine (zetas -> shapes Euler power sums -> density Newton
        and coefficients, with bounded arithmetic throughout); no enumeration.
sweep   the exact enumeration (arith heap merge, shape_tuples, introot) and
        empirical, at one and at two workers for the same N; no engine.
verify  the engine read ~900 times through the inversion route, lemma_check
        precision escalation, power_sum_direct box sums and a small sweep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# the N grids match make_reference.py, whose stored counts cover every point
EMPIRICAL_GRID = {
    2: [980_000 + 2_500 * i for i in range(17)],
    3: [98_000 + 250 * i for i in range(17)],
}
MEMBERS_N = (2_940, 3_060)
# (I, J) hit sets for members_B; every pair has members below N = 2940
MEMBERS_SUBSETS = [
    ((), ()), (("2",), ()), ((), ("2",)), (("3",), ()), (("2",), ("3",)),
    (("3",), ("2",)), (("5",), ()), (("2",), ("5",)),
]

NAMES = ("engine", "sweep", "verify")


@dataclass(frozen=True)
class Command:
    kind: str  # which output check applies: table, constants, empirical, members, verify
    args: tuple  # kfull arguments, without the program name
    params: dict = field(default_factory=dict)  # what the check needs to know


def commands(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}-{seed}")
    if workload == "engine":
        L2, L3, Lc = rng.choice((4, 5)), rng.choice((4, 5)), rng.randint(3, 5)
        return [
            _table(2, L2, "direct", 30),
            _table(3, L3, "direct", 30),
            Command("constants",
                    ("constants", "--k", "2", "--digits", "50", "--max-index", str(Lc),
                     "--format", "csv"),
                    {"k": 2, "L": Lc}),
        ]
    if workload == "sweep":
        n2, n3 = rng.choice(EMPIRICAL_GRID[2]), rng.choice(EMPIRICAL_GRID[3])
        nm = rng.randint(*MEMBERS_N)
        I, J = rng.choice(MEMBERS_SUBSETS)
        subset_args = tuple(a for b in I for a in ("--I", b)) + tuple(
            a for b in J for a in ("--J", b))
        return [
            _empirical(2, n2, 1),
            _empirical(2, n2, 2),
            _empirical(3, n3, 1),
            Command("members",
                    ("enumerate", "members_B", "--k", "2", "--N", str(nm), *subset_args,
                     "--format", "csv"),
                    {"k": 2, "N": nm, "I": [int(b) for b in I], "J": [int(b) for b in J]}),
        ]
    if workload == "verify":
        n2 = rng.randint(98_000, 102_000)
        n3 = rng.randint(9_800, 10_200)
        return [
            Command("verify", ("verify", "--k", "2", "--quick", "--N", str(n2),
                               "--format", "json"), {"k": 2}),
            Command("verify", ("verify", "--k", "3", "--quick", "--N", str(n3),
                               "--format", "json"), {"k": 3}),
            # the inversion route's reads, with radii for digits_certified
            _table(2, 3, "inversion", 30),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")


def _table(k: int, L: int, method: str, digits: int) -> Command:
    return Command("table",
                   ("table", "--k", str(k), "--max-index", str(L), "--method", method,
                    "--digits", str(digits), "--format", "csv"),
                   {"k": k, "L": L, "method": method})


def _empirical(k: int, N: int, threads: int) -> Command:
    return Command("empirical",
                   ("empirical", "--k", str(k), "--N", str(N), "--threads", str(threads),
                    "--format", "csv"),
                   {"k": k, "N": N, "threads": threads})
