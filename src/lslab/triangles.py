"""Exact triangles of Jacobi-Stirling numbers and their direct summations.

The numbers are defined by the two-parent recurrence

    T(n, j) = T(n-1, j-1) + j*(j + 2*gamma - 1) * T(n-1, j)

with boundary T(n, 0) = [n == 0] and T(0, j) = [j == 0], for a fixed
rational parameter gamma >= 0, a plain Fraction that every entry point
converts and checks with `_as_gamma`.  gamma = 1 gives the Legendre-Stirling
numbers (factor j*(j+1)), gamma = 1/2 the Chebyshev-Stirling numbers
(factor j^2).  Entries are exact rationals, and integers whenever
2*gamma is an integer.  One banded loop, `_sweep`, computes every row
and entry, on integers only: with 2*gamma = P/Q it runs on the
Q^(n-j)-scaled entries, which are integers, and divides once at the
end.  Rows are memoized up to ROW_MEMO_SIZE, and every kernel refuses
row MAX_ROWS and beyond before doing any work.  `triangle_band` reads
the same memo for the top columns j_lo..n of a row: a memoized row is
sliced, a missing one is swept as a band, and no band is stored.  The
mass M_n(1) of a (2j)!-scaled Legendre row needs no row: `legendre_row_mass_bounds`
encloses it on truncated powers, exactly from bitlen((2n)!) bits on.
Its weights and both central binomial sums read `_central_binomials`.
The whole rows `iter_triangle` exports for an integer 2*gamma are
exact base-10 `decimal.Decimal` integers, so printing them is a linear
copy instead of the quadratic binary-to-decimal conversion of str(int).

Everything in this module is exact: Python integers, fractions, and
those trapped Decimals.  The alternating direct sums below pit terms of
size (j^2)^n against results that can be hundreds of digits smaller, so
floating point would lose essentially every digit; exactness is not an
optimisation here, it is the correctness contract.  The one float, a
log2 in `legendre_row_mass_bounds`, only picks a working precision.

`legendre_row_mass_bounds(n, bits)` sums M_n(1) = sum_k a_k x_k^n, with
a_k = (-1)^k S_k and x_k = k(k+1) as in `_mass_weights`.  Let L_k =
bitlen(a_k) + floor(n log2 x_k) + 2, top the largest L_k, F =
bitlen((2n)!), p = top - F + bits + 64 and e = max(0, top - p).  Power
k is `_truncated_power` at p_k = max(p - top + L_k, bitlen(n) + 2) bits,
so every term is carried to the same absolute precision; it returns y
2^f and the truncation count c.
- Cutting an integer v of b > p_k bits to its top p_k bits loses less
  than 2^(b-p_k) <= 2^(1-p_k) v.  A square squares the factor an
  approximation is low by, so by induction x^n (1-d)^c <= y 2^f <= x^n,
  d = 2^(1-p_k).  After the first i bits of n, c <= 2^(i-1) - 1, so c < n
  and c d <= 1/2.  Hence x^n - y 2^f <= c d x^n <= 2 c d y 2^f < 4c 2^f,
  since y < 2^p_k once c > 0 (and c = 0 means y 2^f = x^n).
- Term k, a_k y 2^f, goes to the scale 2^e by an exact left shift or a
  floor shift (less than 1 off), and its bound 4c |a_k| 2^(f-e) is
  rounded up, so total - err <= M_n(1) 2^-e <= total + err.
So the enclosure holds whatever the L_k are.  Its width uses them:
bitlen(x^n) = floor(n log2 x) + 1, and the float n log2 x, below 2^16,
is within 2^-30 of its true value (log2 is good to an ulp or two), so
|a_k| x_k^n < 2^L_k.  When c > 0, y >= 2^(p_k-1), so term k's bound is
at most 8c 2^(L_k-p_k) <= 8n 2^(top-p), and a floor shift (only when e
= top - p) adds at most 2 units of 2^(top-p).  Over the n terms, (hi -
lo) 2^e < 20 n^2 2^(top-p) = 20 n^2 2^(F-bits-64).  c(n, n) = (2n)! and
every c(n, j) >= 0, so 2^F <= 2 (2n)! <= 2 M_n(1), and n < 2000 gives
(hi - lo) 2^e < 2^-(bits+36) M_n(1).  The 64 guard bits are fixed: they
put the width 36 bits below one unit at `bits` on every row under the
cap.  At bits >= F, p >= top + 64, so e = 0 and every p_k >= L_k + 64
exceeds bitlen(x_k^n): no power is cut, and lo = hi = M_n(1).
"""

from __future__ import annotations

import re
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
    localcontext,
)
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, gcd, log2, prod

from .errors import KernelInvariantError, ResourceLimitError

MAX_ROWS = 2000
ROW_MEMO_SIZE = 16
_MASS_GUARD = 64  # the fixed guard bits of `legendre_row_mass_bounds`


LEGENDRE = Fraction(1)
CHEBYSHEV = Fraction(1, 2)
GAMMA_ZERO = Fraction(0)

# The named families, the one place their names are written: the cache
# tags its files with them, and `lslab --family` offers those with
# gamma > 0 (gamma = 0 is `--family jacobi --gamma 0`).
FAMILIES = {"legendre": LEGENDRE, "chebyshev": CHEBYSHEV, "gamma-zero": GAMMA_ZERO}

# gamma as text (`_as_gamma` on a str, `lslab --gamma`): an integer or p/q
# with q > 0, each part of at most 19 digits (below 2^64), matched before
# Fraction parses it: Fraction('1e-9999999') alone takes seconds
GAMMA_TEXT = re.compile(r"[0-9]{1,19}(?:/(?!0+\Z)[0-9]{1,19})?")


def _as_gamma(gamma) -> Fraction:
    """gamma as a Fraction, for a str that GAMMA_TEXT matches or any other
    value Fraction() takes, that is >= 0 and has at most 64 bits in each
    part; ValueError otherwise."""
    if isinstance(gamma, str) and GAMMA_TEXT.fullmatch(gamma) is None:
        raise ValueError("gamma text must be an integer or p/q (q > 0), 19 digits at most each")
    g = Fraction(gamma)
    if g < 0:
        raise ValueError(f"gamma must be non-negative, got {g}")
    if max(g.numerator.bit_length(), g.denominator.bit_length()) > 64:
        raise ValueError("gamma must have at most 64 bits in its numerator and denominator")
    return g


def check_row_cap(n: int) -> None:
    """The one row cap of every exact kernel, checked before any work;
    a negative row is a usage error."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n >= MAX_ROWS:
        raise ResourceLimitError(f"row {n} exceeds the cap of {MAX_ROWS} rows")


def _sweep(gamma: Fraction, n: int, j_lo: int, j_hi: int, start=None) -> list:
    """Columns j_lo..j_hi of row n, rolled forward from `start`, a whole
    row given as (r, row r) with r <= n, or else from row 0; at r = n
    the start row is only sliced.

    Row r keeps only the columns max(0, j_lo-(n-r))..min(r, j_hi) that
    row n still depends on: a whole row is the band 0..n and a single
    entry the band j..j.  This is the only loop that runs the recurrence,
    and it adds and multiplies by small integers only.  With 2*gamma =
    P/Q it runs on U(r, j) = Q^(r-j) T(r, j), an integer, for

        U(r, j) = U(r-1, j-1) + j*(Q*j + P - Q) * U(r-1, j),

    so a start row is scaled up on entry and the result divided by
    Q^(n-j) once, as a Fraction, on exit.  When Q = 1 the entries keep
    the type of the start row: ints by default, Decimals from
    `iter_triangle`, which runs this loop in an exact decimal context.
    """
    check_row_cap(n)
    two_gamma = 2 * gamma
    p, q = two_gamma.numerator, two_gamma.denominator
    r0, band = start or (0, [1])
    lo = max(0, j_lo - (n - r0))
    band = list(band[lo : j_hi + 1])
    if q > 1:
        band = [v.numerator * (q ** (r0 - j) // v.denominator) for j, v in enumerate(band, lo)]
    factors = [c * (q * c + p - q) for c in range(n + 1)]
    for r in range(r0 + 1, n + 1):
        new_lo, hi = max(0, j_lo - (n - r)), min(r, j_hi)
        # the parents of columns new_lo..hi are columns new_lo-1..hi of row r-1
        par = [0] * (lo - new_lo + 1) + band + [0] * (hi - lo - len(band) + 1)
        band = [a + f * b for f, a, b in zip(factors[new_lo : hi + 1], par, par[1:])]
        lo = new_lo
    if q > 1:
        band = [Fraction(u, q ** (n - j)) for j, u in enumerate(band, lo)]
    return band


# keyed by (numerator, denominator) of gamma and n: ints hash and compare
# faster than Fractions
_ROWS: dict[tuple[int, int, int], tuple] = {}


def _from_memo(g: Fraction, n: int, j_lo: int) -> tuple:
    """Columns j_lo..n of row n: the memoized row sliced, or else swept
    from the nearest lower memoized row of the same gamma."""
    p, q = g.numerator, g.denominator
    below = [k for a, b, k in _ROWS if a == p and b == q and k <= n]
    start = (max(below), _ROWS[p, q, max(below)]) if below else None
    return tuple(_sweep(g, n, j_lo, n, start))


def triangle_row(gamma, n: int) -> tuple:
    """Row n of the triangle, memoized up to ROW_MEMO_SIZE rows (the
    oldest goes first); a missing row comes from `_from_memo`."""
    g = _as_gamma(gamma)
    key = (g.numerator, g.denominator, n)
    row = _ROWS.get(key)
    if row is None:
        row = _ROWS[key] = _from_memo(g, n, 0)
        if len(_ROWS) > ROW_MEMO_SIZE:
            del _ROWS[next(iter(_ROWS))]
    return row


def triangle_band(gamma, n: int, j_lo: int) -> tuple:
    """Columns j_lo..n of row n, 0 <= j_lo <= n + 1, from `_from_memo`;
    a band is never memoized."""
    if not 0 <= j_lo <= n + 1:
        raise ValueError("requires 0 <= j_lo <= n + 1")
    return _from_memo(_as_gamma(gamma), n, j_lo)


def jacobi_stirling(n: int, j: int, gamma):
    """Single triangle entry by the banded recurrence (any gamma >= 0);
    zero outside the triangle support."""
    g = _as_gamma(gamma)
    if n < 0 or j < 0:
        raise ValueError("indices must be non-negative")
    check_row_cap(n)
    if j > n:
        return 0
    return _sweep(g, n, j, j)[0]


def jacobi_stirling_explicit(n: int, j: int, gamma):
    """Direct alternating-sum evaluation of the triangle entry.

    The Gamma-function ratio appearing in the classical closed form is
    expanded as the exact rising-factorial product

        1 / prod_{t=0..j} (r + 2*gamma - 1 + t),

    so the whole sum stays rational.  At gamma = 1/2 the r = 0 summand
    pairs a vanishing numerator factor with a vanishing product factor;
    it is taken to be 0 (its (r*(r+2*gamma-1))^n factor vanishes for
    n >= 1 anyway), and the n = 0 row falls back to the boundary values.
    Requires gamma > 0; at gamma = 0 the recurrence is the authority.
    """
    if n < 0 or j < 0:
        raise ValueError("indices must be non-negative")
    check_row_cap(n)
    g = _as_gamma(gamma)
    if g <= 0:
        raise ValueError("explicit summation requires gamma > 0")
    if n == 0:
        return 1 if j == 0 else 0
    # With 2*gamma = P/Q and base = r + 2*gamma - 1 = B/Q, the summand is
    # Q^(j-n) (B + Qr) (rB)^n / (r! (j-r)! prod_t (B + Qt)): integer
    # numerators summed over a running common denominator.
    two_g = 2 * g
    big_p, big_q = two_g.numerator, two_g.denominator
    total, den, rising = 0, 1, None
    for r in range(j + 1):
        base = big_q * (r - 1) + big_p
        if base == 0:
            continue  # regularized r = 0 summand at gamma = 1/2
        if rising is None:
            rising = prod(base + big_q * t for t in range(j + 1))
        else:
            # the product at r-1 ran over base-Q..base+(j-1)Q
            rising = rising * (base + big_q * j) // (base - big_q)
        if rising == 0:
            raise ArithmeticError(
                f"zero product factor at r={r} for gamma={g}; outside the regularized case"
            )
        num = (base + big_q * r) * (r * base) ** n
        d = factorial(r) * factorial(j - r) * rising
        if (d < 0) != ((r + j) % 2 == 1):
            num = -num
        d = abs(d)
        common = den // gcd(den, d) * d
        total = total * (common // den) + num * (common // d)
        den = common
    value = Fraction(total * big_q**j, den * big_q**n)
    return int(value) if value.denominator == 1 else value


def _central_binomials(m: int):
    """Yield C(2m, i) for i = 0..m, by exact ratio updates along the row."""
    binom = 1
    for i in range(m + 1):
        yield binom
        binom = binom * (2 * m - i) // (i + 1)


def _over_central_factorial(total: int, n: int, j: int) -> int:
    """total / (2j)!, which must be a nonnegative integer."""
    if total < 0:
        raise KernelInvariantError(f"negative binomial sum at ({n}, {j})")
    q, rem = divmod(total, factorial(2 * j))
    if rem:
        raise KernelInvariantError(f"binomial sum not divisible by (2j)! at ({n}, {j})")
    return q


def legendre_stirling_binsum(n: int, j: int) -> int:
    """gamma = 1 entry via the central binomial sum, all-integer arithmetic,
    sum_nu (-1)^nu C(2j, nu) ((j-nu)(j+1-nu))^n / (2j)!.  With k = j - nu,
    k and -1-k give the same k(k+1), so it folds onto k = 0..j: j + 1 big
    powers, sign (-1)^(j-k), weights the ballot numbers B(j, k) =
    C(2j, j-k) - C(2j, j-k-1), the first differences of C(2j, 0..j).
    The k = 0 term keeps 0^0 = 1 at n = 0."""
    check_row_cap(n)
    total, below = 0, 0  # C(2j, i-1), 0 at i = 0
    for i, binom in enumerate(_central_binomials(j)):
        k = j - i
        t = (binom - below) * (k * (k + 1)) ** n
        total += -t if i & 1 else t
        below = binom
    return _over_central_factorial(total, n, j)


def chebyshev_stirling_binsum(n: int, j: int) -> int:
    """gamma = 1/2 entry via the central binomial sum over (j-r)^(2n).
    r and 2j - r give the same binomial, sign and power, so it is twice
    the r < j half plus the r = j term, 0^(2n), nonzero only at n = 0."""
    check_row_cap(n)
    total = 0
    for r, binom in enumerate(_central_binomials(j)):
        t = (1 if r == j else 2) * binom * (j - r) ** (2 * n)
        total += -t if r & 1 else t
    return _over_central_factorial(total, n, j)


# --- modified (2j)!-scaled Legendre numbers ------------------------------


def scale_row(row, j_lo: int = 0) -> tuple:
    """(2j)! * row[j - j_lo] for the columns j = j_lo, j_lo + 1, ... of a
    row or of the band `triangle_band` returns."""
    facts = accumulate(range(j_lo + 1, j_lo + len(row)), lambda f, j: f * (2 * j - 1) * (2 * j),
                       initial=factorial(2 * j_lo))
    return tuple(f * v for f, v in zip(facts, row))


def modified_legendre_row(n: int) -> tuple[int, ...]:
    """Row n of c(n, j) = (2j)! * T_1(n, j), the coefficients of the
    Legendre generating polynomial, scaled afresh on every call."""
    return scale_row(triangle_row(LEGENDRE, n))


def _mass_weights(n: int):
    """Yield (k, (-1)^k S_k) for k = n, n-1, ..., 1, n >= 1: the weights
    of the powers (k(k+1))^n in the mass of the scaled row.

    Swapping the sums over j and k in the folded
    `legendre_stirling_binsum` gives, for n >= 1,

        M_n(1) = sum_j (2j)! T_1(n, j) = sum_{k=1..n} (-1)^k S_k (k(k+1))^n,
        S_k = sum_{j=k..n} (-1)^j B(j, k),

    with the ballot numbers B(j, k) = C(2j, j-k) - C(2j, j-k-1).  From
    C(2j, i) = C(2j-2, i-2) + 2 C(2j-2, i-1) + C(2j-2, i), B(j, k) =
    B(j-1, k-1) + 2 B(j-1, k) + B(j-1, k+1), and summing over j gives

        S_{k-1} = -3 S_k - S_{k+1} + (-1)^n B(n+1, k),

    run down from S_{n+1} = 0 and S_n = (-1)^n, with B(n+1, .) the first
    differences of C(2n+2, 0..n+1).
    """
    binom = list(_central_binomials(n + 1))
    sign = -1 if n & 1 else 1
    s_k, s_next = sign, 0
    for k in range(n, 0, -1):
        yield k, -s_k if k & 1 else s_k
        # S_{k-1}, with B(n+1, k) = C(2n+2, n+1-k) - C(2n+2, n-k)
        s_k, s_next = -3 * s_k - s_next + sign * (binom[n + 1 - k] - binom[n - k]), s_k


def _truncated_power(x: int, n: int, p: int) -> tuple[int, int, int]:
    """(y, f, c) with x^n (1 - 2^(1-p))^c <= y 2^f <= x^n: x^n by
    left-to-right binary powering, each square (times x at a one bit)
    truncated toward zero to its top p bits, c counting the truncations;
    a square doubles the count it inherits."""
    y, f, c = x, 0, 0
    for bit in bin(n)[3:]:
        y, f, c = y * y, 2 * f, 2 * c
        if bit == "1":
            y *= x
        s = y.bit_length() - p
        if s > 0:
            y, f, c = y >> s, f + s, c + 1
    return y, f, c


def legendre_row_mass_bounds(n: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo 2^e <= M_n(1) <= hi 2^e, and (hi - lo) 2^e
    below 2^-(bits+36) M_n(1), and lo = hi = M_n(1) at bits >=
    bitlen((2n)!): the sum of `_mass_weights` on truncated powers, with
    the error bound summed beside it.  The module docstring proves it."""
    check_row_cap(n)
    if n == 0:
        return 1, 1, 0
    weights = list(_mass_weights(n))
    sizes = [a.bit_length() + int(n * log2(k * (k + 1))) + 2 for k, a in weights]
    top = max(sizes)
    p = top - factorial(2 * n).bit_length() + bits + _MASS_GUARD
    e, p_min = max(0, top - p), n.bit_length() + 2
    total = err = 0
    for (k, a), size in zip(weights, sizes):
        y, f, c = _truncated_power(k * (k + 1), n, max(p - top + size, p_min))
        d = f - e
        if d >= 0:
            total += a * y << d
            err += 4 * c * abs(a) << d
        else:
            total += a * y >> -d
            err += (4 * c * abs(a) >> -d) + 2
    return total - err, total + err, e


def odd_power_cancellation(j: int, ell: int) -> int:
    """The signed binomial sum over (j - nu)^(2*ell + 1); identically zero."""
    total = 0
    for nu in range(2 * j + 1):
        t = comb(2 * j, nu) * (j - nu) ** (2 * ell + 1)
        total += -t if nu & 1 else t
    return total


def legendre_from_chebyshev(n: int) -> tuple[int, ...]:
    """Legendre row n as a binomial mix of the Chebyshev rows whose index
    has the parity of n:

        T_1(n, j) = sum_{i = n mod 2, step 2, i <= n} C(n, i) T_{1/2}((n+i)/2, j),

    that is sum_mu C(2k+1, 2mu+1) T_{1/2}(k+mu+1, j) for n = 2k+1 and
    sum_mu C(2k, 2mu) T_{1/2}(k+mu, j) for n = 2k."""
    out = [0] * (n + 1)
    for i in range(n % 2, n + 1, 2):
        weight = comb(n, i)
        for j, value in enumerate(triangle_row(CHEBYSHEV, (n + i) // 2)):
            out[j] += weight * value
    return tuple(out)


# --- exported rows and the decimal form of an entry -----------------------


def _decimal(i: int) -> str:
    """str(i), or str(Decimal(i)) past the interpreter's str(int) digit
    limit (sys.get_int_max_str_digits(), 4300 by default), which Decimal
    does not have.  Trying str first keeps the common case fast."""
    try:
        return str(i)
    except ValueError:
        return str(Decimal(i))


def format_entry(value) -> str:
    """Serialize an entry as a decimal string ('p/q' for non-integers).
    A Decimal from `iter_triangle` is an exact integer already in base
    10, so str copies its digits in linear time."""
    if isinstance(value, Decimal):
        return str(value)
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"
    return _decimal(int(value))


# Exact decimal arithmetic: no operation may round.  Only additions and
# multiplications of integers run under it, so prec and Emax are never
# reached in practice; if they were, a trap would raise.
_EXACT = Context(
    prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded, Overflow, InvalidOperation]
)


def iter_triangle(gamma, n_max: int):
    """Yield (n, row n) for n = 0..n_max, each row a tuple of its n + 1
    entries; the rows are rolled forward one by one and not memoized.

    When 2*gamma is an integer the values are Decimals with exponent 0,
    computed in base 10 under the trapped exact context `_EXACT`, so
    printing them costs linear time instead of the quadratic str(int).
    The context is entered around each `_sweep` call only, never held
    across a yield, so the caller's context is in force between rows.
    Otherwise the values are Fractions."""
    check_row_cap(n_max)
    g = _as_gamma(gamma)
    start = (0, [Decimal(1)]) if (2 * g).denominator == 1 else None
    for n in range(n_max + 1):
        with localcontext(_EXACT):
            row = tuple(_sweep(g, n, 0, n, start))
        start = (n, row)
        yield start

