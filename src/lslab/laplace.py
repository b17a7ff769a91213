"""Closed forms and two-term asymptotics for the exponential moment integrals

    J(r, n; z) = integral_0^oo exp(-xi z) xi^r ((xi+1)^n + (xi-1)^n) dxi.

The polynomial factor keeps only even binomial terms, and termwise
integration gives the exact finite form

    J(r, n; z) = sum_{k even, 0<=k<=n} 2 C(n, k) (r+n-k)! / z^(r+n-k+1)

for Re z > 0.  Quadrature never enters: the term list is exact, so the
only numerical step is evaluating inverse powers of z at working
precision.  For r = n + nu and large n,

    J(n+nu, n; z) ~ n!(n+nu)!/sqrt(pi n) * (2/z)^(2n+nu+1)
                    * (b(z) + b_nu(z)/n + O(1/n^2)),

with b(z) = cosh(z/2) and

    b_nu(z) = -( z^2/2 cosh(z/2) + 2 z nu sinh(z/2)
                 + (2 nu^2 + 2 nu + 1) cosh(z/2) ) / 8,

and this module verifies that expansion numerically for concrete n.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb, factorial

import mpmath as mp


def laplace_closed_form(r: int, n: int) -> tuple[tuple[int, int], ...]:
    """Exact term list of J(r, n; z): (coefficient, inverse power) pairs,
    powers strictly decreasing with uniform stride 2."""
    if r < 0 or n < 0:
        raise ValueError("indices must be non-negative")
    return tuple(
        (2 * comb(n, k) * factorial(r + n - k), r + n - k + 1)
        for k in range(0, n + 1, 2)
    )


def eval_terms(terms, z):
    """sum_k c_k z^-e_k for a term list from laplace_closed_form at an
    mpf/mpc z with Re z > 0: Horner in 1/z^2, each int coefficient added
    exactly (mpmath converts an int without rounding)."""
    inv2 = 1 / (z * z)
    acc = 0
    for c, _ in terms:
        acc = acc * inv2 + c
    return acc / z ** terms[-1][1]


def derivative_identity_holds(r: int, n: int, order: int) -> bool:
    """Differentiate the closed form termwise `order` times and compare,
    as exact term lists, with (-1)^order * J(r+order, n; .)."""
    terms = laplace_closed_form(r, n)
    for _ in range(order):
        terms = tuple((c * e, e + 1) for c, e in terms)
    return terms == laplace_closed_form(r + order, n)


# Largest z: the saddle table's values grow like exp(z/2), and above
# about 2^64 printing their decimal exponents alone takes seconds.
Z_MAX = 2**64


# leading = cosh(z/2); correction = the first 1/n coefficient, always negative
SaddleCoefficients = namedtuple("SaddleCoefficients", "leading correction")


def saddle_coefficients(nu: int, z, precision_bits: int = 256) -> SaddleCoefficients:
    if nu < 0:
        raise ValueError("nu must be non-negative")
    with mp.workprec(precision_bits):
        zz = mp.mpf(z)
        if not 0 < zz <= Z_MAX:  # refuses nan too
            raise ValueError(f"z must be positive and at most 2^64, got {mp.nstr(zz, 8)}")
        ch, sh = mp.cosh(zz / 2), mp.sinh(zz / 2)
        corr = -(zz * zz / 2 * ch + 2 * zz * nu * sh + (2 * nu * nu + 2 * nu + 1) * ch) / 8
        return SaddleCoefficients(leading=ch, correction=corr)


def normalized_value(nu: int, z, n: int, precision_bits: int = 256) -> mp.mpf:
    """Q(n) = J(n+nu, n; z) * sqrt(pi n) * (z/2)^(2n+nu+1) / (n! (n+nu)!),
    evaluated once with 48 guard bits.  For real z > 0 every term of
    J(n+nu, n; z) is positive, so nothing cancels and the guard bits cover
    the rounding; every caller passes such a z, because
    saddle_coefficients rejects any other."""
    with mp.workprec(precision_bits + 48):
        zz = mp.mpf(z)
        val = eval_terms(laplace_closed_form(n + nu, n), zz)
        return (
            val
            * mp.sqrt(mp.pi * n)
            * (zz / 2) ** (2 * n + nu + 1)
            / (mp.mpf(factorial(n)) * factorial(n + nu))
        )


def saddle_expansion_check(nu: int, z, n_list, precision_bits: int = 256) -> list[tuple]:
    """Rows (n, Q, Q - b, n (Q - b), residual) along n_list: Q(n), its
    distance from the two-term expansion, and the residual
    n (Q - b) - b_nu, which must shrink along the list."""
    ns = list(n_list)
    if ns != sorted(ns):
        raise ValueError("n_list must be ascending")
    coeffs = saddle_coefficients(nu, z, precision_bits)
    rows = []
    with mp.workprec(precision_bits):
        for n in ns:
            q = normalized_value(nu, z, n, precision_bits)
            diff = q - coeffs.leading
            scaled = n * diff
            rows.append((n, q, diff, scaled, scaled - coeffs.correction))
    return rows
