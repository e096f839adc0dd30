"""What a fresh process loads: mpmath only where the series engine runs,
numpy and the process pool only where used: a sweep window past the
integer route's pair threshold, and the pool.

Each test runs its script in a new interpreter, because this test process
has long since imported mpmath, numpy and the pool."""

import os
import subprocess
import sys

import pytest

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
    # perfbench/tracer.py reads all seven layers from sys.modules after this;
    # they are registered there, but no layer's body has run yet
    out = run_fresh(f"""
import sys
import kfull.cli
print([m for m in {LAYERS!r} if "kfull." + m not in sys.modules])
print([m for m in ("mpmath", "numpy") if m in sys.modules])
""")
    assert out == ["[]", "[]"]


ENGINE = ("bounded", "zetas", "shapes", "density")


@pytest.mark.parametrize("argv,engine", [
    (["empirical", "--k", "2", "--N", "3000"], False),
    (["enumerate", "kfull", "--k", "2", "--limit", "500"], False),
    (["enumerate", "members_B", "--k", "2", "--N", "3000", "--I", "2"], False),
    (["empirical", "--k", "2", "--N", "3000", "--compare"], True),
    (["table", "--k", "2", "--max-index", "3"], True),
])
def test_only_the_series_engine_loads_mpmath(argv, engine):
    # a registered layer whose body has not run is still a lazy module, not
    # a plain types.ModuleType; type() reads it without loading it
    out = run_fresh(f"""
import contextlib, io, sys, types
from kfull.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
print("mpmath" in sys.modules)
print([m for m in {ENGINE!r} if type(sys.modules["kfull." + m]) is types.ModuleType])
""")
    assert out == [str(engine), str(list(ENGINE) if engine else [])]


@pytest.mark.parametrize("argv,numpy", [
    (["verify", "--k", "2", "--quick", "--N", "3000"], False),
    (["verify", "--k", "3", "--quick", "--N", "3000"], False),
    (["enumerate", "members_B", "--k", "2", "--N", "3000", "--I", "2"], False),
    (["empirical", "--k", "2", "--N", "3000"], False),
    (["empirical", "--k", "2", "--N", "1000000"], True),
    (["verify", "--k", "4", "--quick", "--N", "3000"], False),
])
def test_only_large_sweeps_load_numpy(argv, numpy):
    # a window below the pair threshold and the oracle power sums run on
    # Python integers and floats; the numpy route keeps the large windows
    out = run_fresh(f"""
import contextlib, io, sys
from kfull.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
print("numpy" in sys.modules)
""")
    assert out == [str(numpy)]


def test_package_names_resolve_to_their_home_layers():
    out = run_fresh("""
import importlib
import kfull
from kfull import *
from kfull import arith, density, shapes
homes = {n: importlib.import_module(getattr(kfull, n).__module__) for n in kfull.__all__}
print([n for n in kfull.__all__ if getattr(homes[n], n) is not getattr(kfull, n)
       or globals()[n] is not getattr(kfull, n)])
print(shapes.LambdaElement is arith.LambdaElement, density.SubsetSpec is arith.SubsetSpec)
print(set(kfull.__all__) <= set(dir(kfull)))
""")
    assert out == ["[]", "True True", "True"]


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
empirical._POOL_MIN_N = 0  # a pool at N = 3000
counts = empirical.empirical_table(2, 3000, threads=2).counts
print(seen)
print(sorted(counts.items()))
""")
    assert out == ["[(True, 2)]", str(sorted(oracle_counts(2, 3000).items()))]


MACHINERY = ("dataclasses", "inspect")
FORMATS = ("json", "csv", "decimal")


def test_importing_the_cli_loads_no_record_machinery_and_no_format():
    # the records are NamedTuples and the writer imports the one format it
    # prints, so neither dataclasses (with inspect, ast, dis and tokenize)
    # nor json, csv or decimal is paid for up front
    out = run_fresh(f"""
import sys
import kfull.cli
print([m for m in {MACHINERY + FORMATS!r} if m in sys.modules])
""")
    assert out == ["[]"]


@pytest.mark.parametrize("argv", [
    ["table", "--k", "2", "--max-index", "3"],
    ["verify", "--k", "3", "--quick", "--N", "3000"],
    ["empirical", "--k", "3", "--N", "3000"],
])
def test_commands_load_neither_dataclasses_nor_inspect(argv):
    out = run_fresh(f"""
import contextlib, io, sys
from kfull.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
print([m for m in {MACHINERY!r} if m in sys.modules])
""")
    assert out == ["[]"]


@pytest.mark.parametrize("fmt,loaded,absent", [("csv", "csv", "json"), ("json", "json", "csv")])
def test_a_format_loads_only_its_own_module(fmt, loaded, absent):
    out = run_fresh(f"""
import contextlib, io, sys
from kfull.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["empirical", "--k", "2", "--N", "3000", "--format", {fmt!r}]) == 0
print({loaded!r} in sys.modules, {absent!r} in sys.modules)
""")
    assert out == ["True False"]
