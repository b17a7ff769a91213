"""lslab: exact and high-precision asymptotic laboratory for Jacobi-,
Legendre- and Chebyshev-Stirling numbers of the second kind.

Exact big-integer/rational kernels live in `triangles` and `genpoly`,
root certification in `sturm`, closed-form integral and lattice-sum
numerics in `laplace`/`eisenstein`, the Bernoulli-array expansion engine
in `edgeworth`, the normal-limit checks in `clt`, and the verification
suites plus CLI in `verify`/`cli`.
"""

import importlib.util
import sys

from .triangles import (
    CHEBYSHEV,
    GAMMA_ZERO,
    LEGENDRE,
    jacobi_stirling,
    jacobi_stirling_explicit,
    legendre_stirling_binsum,
    triangle_row,
)

__version__ = "0.1.0"


def _lazy(name: str):
    """Module `name`, put in sys.modules now but run only when one of its
    attributes is first read (importlib.util.LazyLoader).  `cli` loads
    every module but `triangles` this way, and `verify` mpmath, so a
    command runs only the modules it reads (the `cli` docstring lists
    them): `compute` loads neither mpmath nor hashlib, no command loads
    `cache` but `table`, and `verify identities` runs no mpmath.  Every
    lslab module is still in sys.modules once `cli` is imported, as with
    plain imports, so code that wraps lslab functions after `import
    lslab.cli` (the benchmark's tracer, perfbench/tracer.py) still finds
    all of them."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module

__all__ = [
    "CHEBYSHEV",
    "GAMMA_ZERO",
    "LEGENDRE",
    "jacobi_stirling",
    "jacobi_stirling_explicit",
    "legendre_stirling_binsum",
    "triangle_row",
    "__version__",
]
