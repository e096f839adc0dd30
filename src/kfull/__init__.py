"""Densities of integers classified by how many proper k-full numbers land
between successive kth powers, verified by exact enumeration.

Each command loads only the layers it runs.  The six numeric layers (arith,
bounded, zetas, shapes, density, empirical) are registered in sys.modules
through importlib.util.LazyLoader when the package is imported, so a
layer's body, and with it mpmath or anything else it imports, runs on the
first read of one of its attributes.  The exact sweep (empirical without
--compare, enumerate kfull, enumerate members_B) reads only arith and
empirical and never loads mpmath; the series engine (zetas, shapes, density)
loads it.  The names in __all__ resolve through the module __getattr__ to
their home layer on each read, so a package-level name is always the layer's
current object.
"""

import importlib.util
import sys

_EXPORTS = {
    "arith": ("KFullRepr", "LambdaElement", "SubsetSpec", "canonical_repr",
              "enumerate_kfull", "factorize", "introot", "is_kfull", "is_prime",
              "is_squarefree", "moebius"),
    "bounded": ("ErrorBoundedReal",),
    "density": ("DensityTable", "SeriesCoeffs", "XiSequence", "build_table", "coeffs_a",
                "constant_C", "density_A", "density_B", "density_shiu", "eval_F",
                "normalization_check", "xi_direct", "xi_from_power_sums"),
    "empirical": ("EmpiricalCounts", "IntervalHit", "classify_pair", "compare_tables",
                  "empirical_table", "hit_count", "interval_hits", "lemma_check",
                  "members_B"),
    "shapes": ("PowerSums", "enumerate_lambda", "lambda_value", "power_sum_direct",
               "power_sum_euler", "power_sums", "tail_bound"),
    "zetas": ("prime_zeta", "prime_zeta_tail", "zeta"),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def _register(layer: str):
    """Put kfull.<layer> in sys.modules as a module whose body runs on the
    first read of one of its attributes."""
    name = f"{__name__}.{layer}"
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


for _layer in _EXPORTS:
    globals()[_layer] = _register(_layer)
del _layer


def __getattr__(name: str):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
