"""lslab: exact and high-precision asymptotic laboratory for Jacobi-,
Legendre- and Chebyshev-Stirling numbers of the second kind.

Exact big-integer/rational kernels live in `triangles` and `genpoly`,
root certification in `sturm`, closed-form integral and lattice-sum
numerics in `laplace`/`eisenstein`, the Bernoulli-array expansion engine
in `edgeworth`, the normal-limit checks in `clt`, and the verification
suites plus CLI in `verify`/`cli`.
"""

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
