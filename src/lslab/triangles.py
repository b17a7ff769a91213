"""Exact triangles of Jacobi-Stirling numbers and their direct summations.

The numbers are defined by the two-parent recurrence

    T(n, j) = T(n-1, j-1) + j*(j + 2*gamma - 1) * T(n-1, j)

with boundary T(n, 0) = [n == 0] and T(0, j) = [j == 0], for a fixed
rational parameter gamma >= 0.  gamma = 1 gives the Legendre-Stirling
numbers (factor j*(j+1)), gamma = 1/2 the Chebyshev-Stirling numbers
(factor j^2).  Entries are exact rationals, and integers whenever
2*gamma is an integer.  One banded loop, `_sweep`, computes every row
and entry, on integers only: with 2*gamma = P/Q it runs on the
Q^(n-j)-scaled entries, which are integers, and divides once at the
end.  Rows are memoized up to ROW_MEMO_SIZE, and every kernel refuses
row MAX_ROWS and beyond before doing any work.  The mass of a
(2j)!-scaled Legendre row, `legendre_row_mass`, needs no row: a
regrouped binomial sum gives it in O(n) big-integer steps.  The whole
rows `iter_triangle` exports for an integer 2*gamma are exact base-10
`decimal.Decimal` integers, so printing them is a linear copy instead of
the quadratic binary-to-decimal conversion of str(int).

Everything in this module is exact: Python integers, fractions, and
those trapped Decimals.  The alternating direct sums below pit terms of
size (j^2)^n against results that can be hundreds of digits smaller, so
floating point would lose essentially every digit; exactness is not an
optimisation here, it is the correctness contract.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from math import comb, factorial, gcd, prod

from .errors import KernelInvariantError, ResourceLimitError

MAX_ROWS = 2000
ROW_MEMO_SIZE = 16


@dataclass(frozen=True)
class GammaParam:
    """Non-negative rational family parameter of the triangle."""

    value: Fraction

    def __post_init__(self):
        value = Fraction(self.value)
        if value < 0:
            raise ValueError(f"gamma must be non-negative, got {value}")
        object.__setattr__(self, "value", value)

    @classmethod
    def parse(cls, text: str) -> "GammaParam":
        """Parse 'p/q' or an integer literal."""
        return cls(Fraction(text))

    @property
    def family(self) -> str | None:
        if self.value == 1:
            return "legendre"
        if self.value == Fraction(1, 2):
            return "chebyshev"
        if self.value == 0:
            return "gamma-zero"
        return None

    def __str__(self) -> str:
        return str(self.value)


LEGENDRE = GammaParam(Fraction(1))
CHEBYSHEV = GammaParam(Fraction(1, 2))
GAMMA_ZERO = GammaParam(Fraction(0))

FAMILY_GAMMAS = {"legendre": LEGENDRE, "chebyshev": CHEBYSHEV}


def _as_gamma(gamma) -> GammaParam:
    if isinstance(gamma, GammaParam):
        return gamma
    return GammaParam(Fraction(gamma))


def check_row_cap(n: int) -> None:
    """The one row cap of every exact kernel, checked before any work;
    a negative row is a usage error."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n >= MAX_ROWS:
        raise ResourceLimitError(f"row {n} exceeds the cap of {MAX_ROWS} rows")


def _sweep(gamma: GammaParam, n: int, j_lo: int, j_hi: int, start=None) -> list:
    """Columns j_lo..j_hi of row n, rolled forward from `start`, a whole
    row given as (r, row r) with r <= n, or else from row 0.

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
    two_gamma = 2 * gamma.value
    p, q = two_gamma.numerator, two_gamma.denominator
    r0, band = start or (0, [1])
    if q > 1:
        band = [v.numerator * (q ** (r0 - j) // v.denominator) for j, v in enumerate(band)]
    factors = [c * (q * c + p - q) for c in range(n + 1)]
    band, lo = list(band), 0
    for r in range(r0 + 1, n + 1):
        new_lo, hi = max(0, j_lo - (n - r)), min(r, j_hi)
        # the parents of columns new_lo..hi are columns new_lo-1..hi of row r-1
        par = [0] * (lo - new_lo + 1) + band + [0] * (hi - lo - len(band) + 1)
        band = [a + f * b for f, a, b in zip(factors[new_lo : hi + 1], par, par[1:])]
        lo = new_lo
    if q > 1:
        band = [Fraction(u, q ** (n - j)) for j, u in enumerate(band, lo)]
    return band


_ROWS: dict[tuple[Fraction, int], tuple] = {}


def triangle_row(gamma, n: int) -> tuple:
    """Row n of the triangle, memoized up to ROW_MEMO_SIZE rows (the
    oldest goes first); a missing row is rolled forward from the nearest
    lower memoized row of the same gamma."""
    g = _as_gamma(gamma)
    row = _ROWS.get((g.value, n))
    if row is None:
        below = [k for gv, k in _ROWS if gv == g.value and k < n]
        start = (max(below), _ROWS[g.value, max(below)]) if below else None
        row = _ROWS[g.value, n] = tuple(_sweep(g, n, 0, n, start))
        if len(_ROWS) > ROW_MEMO_SIZE:
            del _ROWS[next(iter(_ROWS))]
    return row


def jacobi_stirling(n: int, j: int, gamma):
    """Single triangle entry by the banded recurrence (any gamma >= 0);
    zero outside the triangle support."""
    if n < 0 or j < 0:
        raise ValueError("indices must be non-negative")
    check_row_cap(n)
    if j > n:
        return 0
    return _sweep(_as_gamma(gamma), n, j, j)[0]


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
    g = _as_gamma(gamma).value
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


def legendre_stirling_altsum(n: int, j: int) -> int:
    """gamma = 1 entry as the (2r+1)-weighted alternating sum over r <= j."""
    check_row_cap(n)
    total = Fraction(0)
    for r in range(j + 1):
        term = Fraction(
            (2 * r + 1) * (r * (r + 1)) ** n,
            factorial(j - r) * factorial(j + r + 1),
        )
        total += term if (r + j) % 2 == 0 else -term
    if total.denominator != 1 or total < 0:
        raise KernelInvariantError(f"alternating sum not a non-negative integer at ({n}, {j})")
    return int(total)


def legendre_stirling_binsum(n: int, j: int) -> int:
    """gamma = 1 entry via the central binomial sum, all-integer arithmetic."""
    check_row_cap(n)
    total = 0
    for nu in range(2 * j + 1):
        t = comb(2 * j, nu) * ((j - nu) * (j + 1 - nu)) ** n
        total += -t if nu & 1 else t
    if total < 0:
        raise KernelInvariantError(f"negative binomial sum at ({n}, {j})")
    q, rem = divmod(total, factorial(2 * j))
    if rem:
        raise KernelInvariantError(f"binomial sum not divisible by (2j)! at ({n}, {j})")
    return q


def chebyshev_stirling_binsum(n: int, j: int) -> int:
    """gamma = 1/2 entry via the central binomial sum over (j-r)^(2n)."""
    check_row_cap(n)
    total = 0
    for r in range(2 * j + 1):
        t = comb(2 * j, r) * (j - r) ** (2 * n)
        total += -t if r & 1 else t
    if total < 0:
        raise KernelInvariantError(f"negative binomial sum at ({n}, {j})")
    q, rem = divmod(total, factorial(2 * j))
    if rem:
        raise KernelInvariantError(f"binomial sum not divisible by (2j)! at ({n}, {j})")
    return q


# --- modified (2j)!-scaled Legendre numbers ------------------------------


def scale_row(row) -> tuple:
    """(2j)! * row[j] for every column j."""
    facts = accumulate(range(1, len(row)), lambda f, j: f * (2 * j - 1) * (2 * j), initial=1)
    return tuple(f * v for f, v in zip(facts, row))


def modified_legendre_row(n: int) -> tuple[int, ...]:
    """Row n of c(n, j) = (2j)! * T_1(n, j), the coefficients of the
    Legendre generating polynomial, scaled afresh on every call."""
    return scale_row(triangle_row(LEGENDRE, n))


def legendre_row_mass(n: int) -> int:
    """M_n(1) = sum_j (2j)! T_1(n, j), the mass of the scaled row, in O(n)
    big-integer steps and without building the row.

    Put k = j - nu in `legendre_stirling_binsum` and pair k with -1-k,
    which give the same k(k+1); swapping the sums gives, for n >= 1,

        M_n(1) = sum_{k=1..n} (-1)^k S_k (k(k+1))^n,
        S_k = sum_{j=k..n} (-1)^j B(j, k),

    with the ballot numbers B(j, k) = C(2j, j-k) - C(2j, j-k-1).  From
    C(2j, i) = C(2j-2, i-2) + 2 C(2j-2, i-1) + C(2j-2, i), B(j, k) =
    B(j-1, k-1) + 2 B(j-1, k) + B(j-1, k+1), and summing over j gives

        S_{k-1} = -3 S_k - S_{k+1} + (-1)^n B(n+1, k),

    run down from S_{n+1} = 0 and S_n = (-1)^n.  B(n+1, .) comes from one
    pass of exact ratio updates along C(2n+2, .).
    """
    check_row_cap(n)
    if n == 0:
        return 1
    binom = [1]  # C(2n+2, i) for i = 0..n+1
    for i in range(n + 1):
        binom.append(binom[-1] * (2 * n + 2 - i) // (i + 1))
    sign = -1 if n & 1 else 1
    s_k, s_next, total = sign, 0, 0
    for k in range(n, 0, -1):
        term = s_k * (k * (k + 1)) ** n
        total += -term if k & 1 else term
        # S_{k-1}, with B(n+1, k) = C(2n+2, n+1-k) - C(2n+2, n-k)
        s_k, s_next = -3 * s_k - s_next + sign * (binom[n + 1 - k] - binom[n - k]), s_k
    return total


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


def gamma_zero_identity(n: int, j: int) -> int:
    """Check T_0(n, j) == T_1(n-1, j-1) and return the common value."""
    if n < 1 or j < 1:
        raise ValueError("requires n, j >= 1")
    if j > n:
        return 0
    lhs = triangle_row(GAMMA_ZERO, n)[j]
    rhs = triangle_row(LEGENDRE, n - 1)[j - 1]
    if lhs != rhs:
        raise KernelInvariantError(f"gamma-zero shift failed at ({n}, {j}): {lhs} != {rhs}")
    return int(lhs)


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
    start = (0, [Decimal(1)]) if (2 * g.value).denominator == 1 else None
    for n in range(n_max + 1):
        with localcontext(_EXACT):
            row = tuple(_sweep(g, n, 0, n, start))
        start = (n, row)
        yield start

