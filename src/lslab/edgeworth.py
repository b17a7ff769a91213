"""Bernoulli-array machinery for pointwise normal approximation of the
coefficient distributions.

A generating polynomial with only real non-positive zeros factors as a
product of (p s + 1 - p) terms with p = 1/(1 + x) for each zero -x, so
its normalized coefficients are the distribution of a sum S of
independent Bernoulli variables.  This module turns zeros into
probabilities, convolves exactly, accumulates cumulants two independent
ways, and evaluates the Hermite-corrected density expansion

    sigma * P(S = j)  ~  phi(x) + sum_{nu=1..k-2} q_nu(x) / n^(nu/2),

at x = (j - mean)/sigma, where q_nu pairs Hermite values with
normalized-cumulant powers (Petrov, Sums of Independent Random
Variables, 1975, ch. VI); the order cap k <= 4 leaves q_1 and q_2.
One evaluation serves one profile: it checks and converts once, then
gives every order up to k at each lattice point asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import mpmath as mp

from .errors import DegenerateVarianceError, ExpansionConditionError
from .precision import to_mpf
from .triangles import modified_legendre_row

DEFAULT_CUMULANT_ORDER = 6
VARIANCE_FLOOR = 0.01  # lower bound on variance/n for the expansion
MAX_EXPANSION_ORDER = 4


def probabilities_from_roots(roots, precision_bits: int = 256) -> tuple:
    """Map zeros (all <= 0) to success probabilities p = 1/(1 - zero),
    one row of the triangular array.  A zero at the origin maps to p = 1
    (a deterministic success).  All probabilities are Fractions when all
    zeros are exact, else all mpf."""
    probs = []
    exact = all(isinstance(r, (int, Fraction)) for r in roots)
    with mp.workprec(precision_bits):
        for r in roots:
            if r > 0:
                raise ValueError(f"positive zero {r}: not a valid array source")
            if exact:
                probs.append(Fraction(1, 1) / (1 - Fraction(r)))
            else:
                probs.append(+(1 / (1 - mp.mpf(r))))
    return tuple(probs)


def distribution(probs, precision_bits: int = 256) -> list:
    """P(S = j) for j = 0..n by convolution of the factors; exact rationals
    in, exact rationals out (precision_bits only matters on the mpf path)."""
    with mp.workprec(precision_bits):
        poly = [1]
        for p in probs:
            q = 1 - p
            new = [0 * p] * (len(poly) + 1)
            for i, c in enumerate(poly):
                new[i] += c * q
                new[i + 1] += c * p
            poly = new
    return poly


def _cumulants_from_raw(moments: list) -> list:
    """kappa_1..kappa_K from raw moments m_1..m_K via
    kappa_r = m_r - sum_{i<r} C(r-1, i-1) kappa_i m_{r-i}."""
    kappas = []
    for r in range(1, len(moments) + 1):
        acc = moments[r - 1]
        for i in range(1, r):
            acc -= comb(r - 1, i - 1) * kappas[i - 1] * moments[r - i - 1]
        kappas.append(acc)
    return kappas


@dataclass(frozen=True)
class CumulantProfile:
    """Mean, variance and normalized cumulants of one row sum.

    normalized[k] holds lambda_{k+2} = n^(k/2) kappa_{k+2} / sigma^(k+2),
    so normalized[0] is identically 1.
    """

    n: int
    mean: object
    variance: object
    normalized: tuple

    @property
    def order(self) -> int:
        return len(self.normalized) + 1

    def normalized_cumulant(self, nu: int):
        if nu < 2 or nu > self.order:
            raise ValueError(f"cumulant order {nu} not in profile (max {self.order})")
        return self.normalized[nu - 2]


def _normalize_cumulants(n, kappas, precision_bits) -> CumulantProfile:
    mean, variance = kappas[0], kappas[1]
    if variance == 0:
        raise DegenerateVarianceError("row-sum variance is zero")
    with mp.workprec(precision_bits):
        sigma = mp.sqrt(to_mpf(variance))
        normalized = []
        for nu in range(2, len(kappas) + 1):
            k = kappas[nu - 1]
            normalized.append(+(mp.mpf(n) ** (mp.mpf(nu - 2) / 2) * to_mpf(k) / sigma**nu))
    return CumulantProfile(n=n, mean=mean, variance=variance, normalized=tuple(normalized))


def cumulants_from_probabilities(
    probs, order: int = DEFAULT_CUMULANT_ORDER, precision_bits: int = 256
) -> CumulantProfile:
    """Per-factor moment-to-cumulant recursion (every raw moment of a
    Bernoulli variable equals p), summed across the row by independence."""
    if order < 2:
        raise ValueError("order must be at least 2")
    with mp.workprec(precision_bits):
        totals = [0] * order
        for p in probs:
            kappas = _cumulants_from_raw([p] * order)
            for i in range(order):
                totals[i] += kappas[i]
    return _normalize_cumulants(len(probs), totals, precision_bits)


def exact_cumulants(coeffs, order: int) -> list[Fraction]:
    """kappa_1..kappa_order, as exact Fractions, of the distribution with
    weights coeffs[j] at j: the raw moments sum j^r c_j / sum c_j run
    through the moment-to-cumulant recursion."""
    total = sum(coeffs)
    sums = [0] * order
    for j, c in enumerate(coeffs):
        for r in range(order):
            c *= j
            sums[r] += c
    return _cumulants_from_raw([Fraction(s, total) for s in sums])


def cumulants_from_genpoly(
    coeffs: tuple[int, ...], order: int = DEFAULT_CUMULANT_ORDER, precision_bits: int = 256
) -> CumulantProfile:
    """Independent route: the exact cumulants of the polynomial with these
    coefficients (ascending, no trailing zeros), normalized."""
    if any(c < 0 for c in coeffs):
        raise ValueError("coefficients must be non-negative")
    if sum(coeffs) <= 0:
        raise ValueError("polynomial must be positive at 1")
    return _normalize_cumulants(len(coeffs) - 1, exact_cumulants(coeffs, order), precision_bits)


def hermite_value(m: int, x):
    """Probabilists' Hermite value by the three-term recurrence
    H_{m+1} = x H_m - m H_{m-1}, H_0 = 1, H_1 = x."""
    if m < 0:
        raise ValueError("m must be non-negative")
    if m == 0:
        return 1 + 0 * x
    prev, cur = 1 + 0 * x, x
    for i in range(1, m):
        prev, cur = cur, x * cur - i * prev
    return cur


def density_expansion(
    profile: CumulantProfile, js, k: int = 2, precision_bits: int = 256
) -> list[tuple]:
    """One tuple (x, e_2, ..., e_k) for each lattice point j in js, at
    x = (j - mean)/sigma; the caller compares e_k with sigma * P(S = j).
    e_2 = phi(x) is the normal density, and each further order adds one
    correction q_nu(x)/n^(nu/2), of the two that MAX_EXPANSION_ORDER
    reaches:

        q_1 = phi H_3 lambda_3/3!,
        q_2 = phi (H_4 lambda_4/4! + H_6 (lambda_3/3!)^2/2!).

    The checks (k, the profile's cumulant order, the variance floor) and
    every factor that does not depend on j are made once per call."""
    if k < 2 or k > MAX_EXPANSION_ORDER:
        raise ValueError(f"k must be between 2 and {MAX_EXPANSION_ORDER}")
    if profile.order < k:
        raise ValueError(f"profile holds cumulants to order {profile.order}, need {k}")
    n = profile.n
    with mp.workprec(precision_bits):
        var = to_mpf(profile.variance)
        if var / n < VARIANCE_FLOOR:
            raise ExpansionConditionError(
                f"variance/n = {mp.nstr(var / n, 8)} below floor {VARIANCE_FLOOR}"
            )
        mean = to_mpf(profile.mean)
        sigma = mp.sqrt(var)
        root_2pi = mp.sqrt(2 * mp.pi)
        scale = [mp.mpf(n) ** (mp.mpf(nu) / 2) for nu in range(1, k - 1)]
        if k > 2:
            lam3 = profile.normalized_cumulant(3) / factorial(3)
        if k > 3:
            lam4 = profile.normalized_cumulant(4) / factorial(4)
            half_lam3_sq = lam3**2 / factorial(2)
        rows = []
        for j in js:
            x = (j - mean) / sigma
            phi = mp.e ** (-x * x / 2) / root_2pi
            row = [x, phi]
            if k > 2:
                q1 = hermite_value(3, x) * lam3
                row.append(row[-1] + phi * q1 / scale[0])
            if k > 3:
                q2 = hermite_value(4, x) * lam4 + hermite_value(6, x) * half_lam3_sq
                row.append(row[-1] + phi * q2 / scale[1])
            rows.append(tuple(row))
    return rows


def comparison_table(n: int, precision_bits: int = 256) -> list[tuple]:
    """Rows (j, x, sigma p_j, order-2 value, order-3 value and the two
    absolute errors) for the scaled Legendre row n, where p_j is its
    normalized coefficient and x = (j - mean)/sigma with the row's exact
    mean and variance, all from one density_expansion call."""
    row = modified_legendre_row(n)
    prof = cumulants_from_genpoly(row, DEFAULT_CUMULANT_ORDER, precision_bits)
    expansion = density_expansion(prof, range(n + 1), 3, precision_bits)
    total = sum(row)
    rows = []
    with mp.workprec(precision_bits):
        sigma = mp.sqrt(to_mpf(prof.variance))
        for (j, c), (x, v2, v3) in zip(enumerate(row), expansion):
            target = sigma * mp.mpf(c) / total
            rows.append((j, x, target, v2, v3, abs(target - v2), abs(target - v3)))
    return rows
