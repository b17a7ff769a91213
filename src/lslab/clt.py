"""Centering/scaling constants and normal-limit checks for the scaled
Legendre rows.

The exponential scale of the rows is governed by the constant

    w = 2 log((sqrt 5 + 1)/2),

the unique positive solution of 2 (cosh w - 1) = 1 (twice the log of the
golden ratio, about 0.9624).  With

    center(n) = (2n+1)/(sqrt 5 w) - 1/2,
    spread(n) = (1/2 - w/sqrt 5) (2/w)^2 n/5,

the exact row mean approaches center(n) at rate 1/n and the exact row
variance stays within O(1) of spread(n).  On row n's frame, center(n),
sigma = sqrt(spread(n)) and scale = w^(2n+1)/(2n)! (`centering_scaling`),
the pointwise normal estimate A(n, j) = phi(x) / (sigma (2j)! scale), phi
the standard normal density at x = (j - center)/sigma, tracks the exact
numbers near the center, and the scaled partial row sums converge to the
normal distribution function.  The moment, residual and ratio checks
run on exact integer rows and entries scaled at working precision.  The
mass ratio needs no row, and the distribution function only the top of
one: both round an enclosure of the row mass M_n(1) exactly as the row
sum would round, and fall back to the exact mass when the enclosure
cannot tell.  mpf exponents are arbitrary-precision integers, so there
is no overflow at any n.

The density residual r_j = |a_j - b_j|, a_j = sigma scale c(n, j) and
b_j = phi(x_j), is evaluated only where it can be the maximum.  Working
from the column nearest the centre outward with the running maximum
`worst`, column j is skipped when the float bounds

    log a_j ~ log(sigma scale) + log c(n, j)   (-inf when c(n, j) = 0),
    log b_j ~ -x_j^2/2 - log sqrt(2 pi)

both fall below log(worst) - 10^-6; every other column is evaluated by
the same mpmath operations as a scan of the whole row, so the maximum
is the same mpf.  Proof that a skipped column is not the maximum: a_j
and b_j are both >= 0, so |a_j - b_j| <= max(a_j, b_j).  The computed
r_j exceeds max(a_j, b_j), taken at the frame's mpf values, by at most
a relative 2^-precision_bits: a few roundings of 2^-(precision_bits+16)
each, and the one of x^2 inside e^(-x^2/2), which the exponential
multiplies by x^2/2 < 2^14, as |x| <= center/sigma < 170 below
`MAX_ROWS`.  Each float log is a few roundings of numbers below 3 10^4
in size, whose unit is 2^-38 (about 4 10^-12), so it is within 10^-10
of the true log below `MAX_ROWS`.  So a skipped column's computed
residual is below worst e^(-10^-6 + 2 10^-10) (1 + 2^-precision_bits)
< worst, and worst only grows.  At n = 400 this evaluates 26 of the
401 columns.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial, inf, log, pi

import mpmath as mp

from .edgeworth import exact_cumulants
from .errors import DegenerateVarianceError, KernelInvariantError
from .precision import to_mpf
from .triangles import (
    LEGENDRE, check_row_cap, jacobi_stirling, legendre_row_mass_bounds, legendre_stirling_binsum,
    modified_legendre_row, scale_row, triangle_band,
)


def saddle_constant(precision_bits: int = 256) -> mp.mpf:
    """2 log((sqrt 5 + 1)/2), checked against its defining equation
    2 (cosh w - 1) = 1.  Near the root f(x) = 2 (cosh x - 1) - 1 has
    f'(x) = 2 sinh x > 2, so a residual of at most 2^-(bits-3) puts the
    closed form within 2^-(bits-4) of the root.  The value depends only
    on precision_bits, and an mpf is immutable, so the last 16 are
    memoized: centering_scaling asks again at every n."""
    return _saddle_constant(precision_bits)


@lru_cache(maxsize=16)
def _saddle_constant(precision_bits: int) -> mp.mpf:
    if precision_bits < 64:
        raise ValueError("precision_bits must be at least 64")
    with mp.workprec(precision_bits + 16):
        closed = 2 * mp.log((mp.sqrt(5) + 1) / 2)
        if abs(2 * (mp.cosh(closed) - 1) - 1) > mp.mpf(2) ** (-precision_bits + 3):
            raise KernelInvariantError("closed form misses 2 (cosh w - 1) = 1")
    with mp.workprec(precision_bits):
        return +closed


class CenteringScaling(namedtuple("CenteringScaling", "center spread sigma scale")):
    """Row n's normal frame, four mpf fields; scale takes row n's
    coefficient sum to a mass near 1."""

    __slots__ = ()


def _center(n: int, w: mp.mpf, s5: mp.mpf) -> mp.mpf:
    return (2 * n + 1) / (s5 * w) - mp.mpf(1) / 2


def center(n: int, precision_bits: int = 256) -> mp.mpf:
    """center(n) at precision_bits: the centre of row n's frame, without
    the rest of it."""
    if n < 0:
        raise ValueError("requires n >= 0")
    with mp.workprec(precision_bits):
        return _center(n, saddle_constant(precision_bits), mp.sqrt(5))


def centering_scaling(n: int, precision_bits: int = 256) -> CenteringScaling:
    """The frame of row n, every field computed at precision_bits."""
    if n < 0:
        raise ValueError("requires n >= 0")
    with mp.workprec(precision_bits):
        w = saddle_constant(precision_bits)
        s5 = mp.sqrt(5)
        spread = (mp.mpf(1) / 2 - w / s5) * (2 / w) ** 2 * mp.mpf(n) / 5
        return CenteringScaling(
            center=_center(n, w, s5),
            spread=spread,
            sigma=mp.sqrt(spread),
            scale=w ** (2 * n + 1) / mp.mpf(factorial(2 * n)),
        )


def mean_variance_exact(n: int) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of the scaled-row distribution."""
    if n < 2:
        raise DegenerateVarianceError("the n = 1 row is a single atom")
    mean, variance = exact_cumulants(modified_legendre_row(n), 2)
    if variance == 0:
        raise DegenerateVarianceError(f"zero variance at n={n}")
    return mean, variance


def mean_variance_residuals(n_list, precision_bits: int = 256) -> list[tuple]:
    """Rows (n, mean - center(n), variance - spread(n)) with the exact
    row moments."""
    ns = list(n_list)
    if ns != sorted(ns):
        raise ValueError("n_list must be ascending")
    check_row_cap(max(ns, default=0))
    rows = []
    with mp.workprec(precision_bits):
        for n in ns:
            mean, var = mean_variance_exact(n)
            cs = centering_scaling(n, precision_bits)
            rows.append((n, +(to_mpf(mean) - cs.center), +(to_mpf(var) - cs.spread)))
    return rows


def normal_approximation(n: int, j: int, precision_bits: int = 256) -> mp.mpf:
    """The pointwise estimate A(n, j) on row n's frame.  Factorials enter
    as exact integers converted at working precision; mpf exponents are
    unbounded, so the scale cannot underflow."""
    if not 1 <= j <= n:
        raise ValueError("requires 1 <= j <= n")
    with mp.workprec(precision_bits + 16):
        cs = centering_scaling(n, precision_bits + 16)
        x = (j - cs.center) / cs.sigma
        value = mp.npdf(x) / (cs.sigma * cs.scale * mp.mpf(factorial(2 * j)))
    with mp.workprec(precision_bits):
        return +value


def ratio_check(n: int, j: int, precision_bits: int = 256) -> tuple[mp.mpf, int]:
    """(exact triangle entry over A(n, j), the exact entry).

    The entry is computed twice: by the folded alternating big-integer
    sum of j + 1 powers and by the banded recurrence; the two must agree
    exactly before any floating point happens.
    """
    if not 1 <= j <= n:
        raise ValueError("requires 1 <= j <= n")
    direct = legendre_stirling_binsum(n, j)
    if jacobi_stirling(n, j, LEGENDRE) != direct:
        raise KernelInvariantError(f"direct sum and recurrence disagree at ({n}, {j})")
    with mp.workprec(precision_bits + 16):
        ratio = mp.mpf(direct) / normal_approximation(n, j, precision_bits + 16)
    with mp.workprec(precision_bits):
        return +ratio, direct


_LOG_SQRT_2PI = log(2 * pi) / 2
# `max_density_residual`'s skip margin in the log domain, far above its float errors
_SKIP_MARGIN = 1e-6


def max_density_residual(n: int, precision_bits: int = 256) -> mp.mpf:
    """max over 0 <= j <= n of |sigma scale (2j)! T(n,j) - phi(x)| with
    the exact scaled row, taken only at the columns that can hold the
    maximum (the skip rule of the module docstring), from the centre
    outward."""
    if n < 2:
        raise ValueError("requires n >= 2")
    row = modified_legendre_row(n)
    with mp.workprec(precision_bits + 16):
        cs = centering_scaling(n, precision_bits + 16)
        sigma_scale = cs.sigma * cs.scale
        log_sigma_scale = float(mp.log(sigma_scale))
        mu, sigma = float(cs.center), float(cs.sigma)
        worst, cut = mp.mpf(0), -inf
        for j in sorted(range(n + 1), key=lambda j: abs(j - mu)):
            c, x = row[j], (j - mu) / sigma
            log_a = log_sigma_scale + log(c) if c else -inf
            if max(log_a, -x * x / 2 - _LOG_SQRT_2PI) < cut:
                continue
            residual = abs(sigma_scale * mp.mpf(c) - mp.npdf((j - cs.center) / cs.sigma))
            if residual > worst:
                worst, cut = residual, float(mp.log(residual)) - _SKIP_MARGIN
    with mp.workprec(precision_bits):
        return +worst


# `scaled_cdf` asks the mass kernel for _CDF_GUARD bits more than the
# precision_bits + 16 it rounds at: the kernel's width is then below 2^-36
# of a unit of any sum of at least 2^-_CDF_GUARD M_n(1).  For n = 100 to
# 1999 the grid's sums (y >= -4) are at least 2^-15 M_n(1), y = -8's 2^-45.
_CDF_GUARD = 64


def scaled_cdf(n: int, ys, precision_bits: int = 256) -> list:
    """scale * sum_{j <= J} c(n, j), c(n, j) = (2j)! T(n, j), J =
    min(floor(center + y sigma), n), for each y in ys (0 when J < 0), the
    sum rounded at precision_bits + 16 before the product.

    No whole row is built: each sum is M_n(1) - sum_{j > J} c(n, j), the
    columns above the smallest J from `triangle_band` and M_n(1) from one
    kernel enclosure for every y, rounded by `_mass_less` to the mpf the
    whole row's prefix sum rounds to, with its exact fallback (taken for
    a sum far below 2^-_CDF_GUARD M_n(1), such as c(n, 0) = 0)."""
    if n < 2:
        raise ValueError("requires n >= 2")
    check_row_cap(n)
    bits = precision_bits + 16
    with mp.workprec(bits):
        cs = centering_scaling(n, bits)
        js = [min(int(mp.floor(cs.center + mp.mpf(y) * cs.sigma)), n) for y in ys]
        inside = [j for j in js if j >= 0]
        if inside:
            j_lo = min(inside) + 1
            # above[k]: the sum of the top k columns c(n, n-k+1..n)
            above = [0, *accumulate(reversed(scale_row(triangle_band(LEGENDRE, n, j_lo), j_lo)))]
            sums = iter(_mass_less(n, [above[n - j] for j in inside], bits, bits + _CDF_GUARD))
        values = [next(sums) * cs.scale if j >= 0 else mp.mpf(0) for j in js]
    with mp.workprec(precision_bits):
        return [+v for v in values]


def cdf_grid(n: int, precision_bits: int = 256) -> list[tuple]:
    """(y, scaled cdf, normal cdf) at y = -4.0, -3.9, ..., 4.0: the table
    `lslab clt --report cdf` prints and the grid of the clt suite's KS
    distance."""
    normal = _normal_grid(precision_bits)
    scaled = scaled_cdf(n, [y for y, _ in normal], precision_bits)
    return [(y, s, p) for (y, p), s in zip(normal, scaled)]


@lru_cache(maxsize=4)
def _normal_grid(precision_bits: int) -> tuple:
    """(y, normal_cdf(y)) on the grid of `cdf_grid`; it depends only on
    precision_bits, so the clt suite's two grids share one."""
    with mp.workprec(precision_bits):
        ys = [mp.mpf(i) / 10 for i in range(-40, 41)]
    return tuple((y, normal_cdf(y, precision_bits)) for y in ys)


def _mass_less(n: int, ts, bits: int, kernel_bits: int) -> list:
    """M_n(1) - t rounded at bits for each integer t in ts, from the ends
    of one `legendre_row_mass_bounds` enclosure at kernel_bits: rounding
    to nearest is monotone, so when both ends of M_n(1) - t round to one
    mpf, M_n(1) - t rounds to it too.  If any pair rounds apart, one more
    call at bitlen((2n)!) bits, where the kernel is exact, decides them
    all: a tie on a rounding midpoint (M_n(1) is on one at n = 160, 2048
    bits) is not settled by any narrower enclosure."""
    lo, hi, e = legendre_row_mass_bounds(n, kernel_bits)
    with mp.workprec(bits):
        # mpf((m, 0)) rounds m at once; mpf(m) would first strip the
        # trailing zeros of the whole integer, such as the e of lo << e
        values = [mp.mpf(((lo << e) - t, 0)) for t in ts]
        if any(v != mp.mpf(((hi << e) - t, 0)) for v, t in zip(values, ts)):
            mass, _, _ = legendre_row_mass_bounds(n, factorial(2 * n).bit_length())
            values = [mp.mpf((mass - t, 0)) for t in ts]
    return values


def total_mass_ratio(n: int, precision_bits: int = 256) -> mp.mpf:
    """M_n(1) times row n's scale; approaches 1 at rate 1/n.  No triangle
    row is built: M_n(1) is rounded at precision_bits + 16 by `_mass_less`
    from a kernel call at those bits."""
    bits = precision_bits + 16
    (mass,) = _mass_less(n, [0], bits, bits)
    with mp.workprec(bits):
        value = mass * centering_scaling(n, bits).scale
    with mp.workprec(precision_bits):
        return +value


def normal_cdf(y, precision_bits: int = 256) -> mp.mpf:
    """Standard normal distribution function, `mpmath.ncdf` at 32 guard
    bits."""
    with mp.workprec(precision_bits + 32):
        result = mp.ncdf(mp.mpf(y))
    with mp.workprec(precision_bits):
        return +result
