"""What a fresh process loads: numpy and the process pool only where used.

Each test runs its script in a new interpreter, because this test process
has long since imported numpy and the pool."""

import os
import subprocess
import sys

import kfull

from test_empirical import oracle_counts

SRC = os.path.dirname(os.path.dirname(os.path.abspath(kfull.__file__)))
HEAVY = ("numpy", "multiprocessing", "concurrent.futures.process")
LAYERS = ("arith", "bounded", "zetas", "shapes", "density", "empirical", "cli")


def run_fresh(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_engine_commands_load_neither_numpy_nor_the_pool():
    out = run_fresh(f"""
import contextlib, io, sys
from kfull.cli import main
for argv in (["table", "--k", "2", "--max-index", "4", "--digits", "30"],
             ["constants", "--k", "2", "--digits", "50", "--max-index", "3"],
             ["table", "--k", "2", "--method", "inversion", "--max-index", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print([m for m in {HEAVY!r} if m in sys.modules])
""")
    assert out == ["[]"]


def test_importing_the_cli_loads_every_layer():
    # perfbench/tracer.py reads all seven layers from sys.modules after this
    out = run_fresh(f"""
import sys
import kfull.cli
print([m for m in {LAYERS!r} if "kfull." + m not in sys.modules])
""")
    assert out == ["[]"]


def test_pool_starts_after_numpy_is_loaded():
    # forked workers inherit numpy from the parent instead of each importing it
    out = run_fresh("""
import concurrent.futures, sys
from kfull import empirical

seen = []

class RecordingPool:
    def __init__(self, max_workers):
        seen.append(("numpy" in sys.modules, max_workers))
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return False
    def map(self, fn, jobs):
        return map(fn, list(jobs))

assert "numpy" not in sys.modules
concurrent.futures.ProcessPoolExecutor = RecordingPool
empirical.os.cpu_count = lambda: 2
counts = empirical.empirical_table(2, 3000, threads=2).counts
print(seen)
print(sorted(counts.items()))
""")
    assert out == ["[(True, 2)]", str(sorted(oracle_counts(2, 3000).items()))]
