"""Exact triangles of Jacobi-Stirling numbers and their direct summations.

The numbers are defined by the two-parent recurrence

    T(n, j) = T(n-1, j-1) + j*(j + 2*gamma - 1) * T(n-1, j)

with boundary T(n, 0) = [n == 0] and T(0, j) = [j == 0], for a fixed
rational parameter gamma >= 0.  gamma = 1 gives the Legendre-Stirling
numbers (factor j*(j+1)), gamma = 1/2 the Chebyshev-Stirling numbers
(factor j^2).  Entries are exact rationals, and integers whenever
2*gamma is an integer.

Everything in this module runs on Python integers and fractions.  The
alternating direct sums below pit terms of size (j^2)^n against results
that can be hundreds of digits smaller, so floating point would lose
essentially every digit; exactness is not an optimisation here, it is
the correctness contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import KernelInvariantError, ResourceLimitError

DEFAULT_MAX_ROWS = 2000


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


class StirlingTriangle:
    """Row-memoized table of triangle entries for a fixed gamma.

    Rows are appended in order and never mutated afterwards, so a built
    triangle can be read concurrently.  When 2*gamma is an integer the
    table holds plain ints; otherwise Fractions.
    """

    def __init__(self, gamma, max_rows: int = DEFAULT_MAX_ROWS):
        self.gamma = _as_gamma(gamma)
        self.max_rows = max_rows
        two_gamma = 2 * self.gamma.value
        self._int_entries = two_gamma.denominator == 1
        self._shift = two_gamma - 1 if not self._int_entries else int(two_gamma) - 1
        one = 1 if self._int_entries else Fraction(1)
        self._rows: list[list] = [[one]]

    @property
    def max_n(self) -> int:
        """Largest row built so far."""
        return len(self._rows) - 1

    def _extend_to(self, n: int) -> None:
        if n >= self.max_rows:
            raise ResourceLimitError(
                f"row {n} exceeds the configured cap of {self.max_rows} rows"
            )
        zero = 0 if self._int_entries else Fraction(0)
        while self.max_n < n:
            r = self.max_n + 1
            prev = self._rows[-1]
            row = [zero] * (r + 1)
            for j in range(1, r + 1):
                above = prev[j] if j < len(prev) else zero
                row[j] = prev[j - 1] + j * (j + self._shift) * above
            self._rows.append(row)

    def row(self, n: int) -> list:
        self._extend_to(n)
        return self._rows[n]

    def value(self, n: int, j: int):
        """Entry at (n, j); zero outside the triangle support."""
        if n < 0 or j < 0:
            raise ValueError("indices must be non-negative")
        if j > n:
            return 0
        return self.row(n)[j]


_REGISTRY: dict[Fraction, StirlingTriangle] = {}


def triangle_for(gamma) -> StirlingTriangle:
    """Process-wide memoized triangle for the given gamma."""
    g = _as_gamma(gamma)
    tri = _REGISTRY.get(g.value)
    if tri is None:
        tri = _REGISTRY.setdefault(g.value, StirlingTriangle(g))
    return tri


def _normalize(x: Fraction):
    return int(x) if x.denominator == 1 else x


def jacobi_stirling(n: int, j: int, gamma):
    """Triangle entry via the memoized recurrence (works for any gamma >= 0)."""
    return triangle_for(gamma).value(n, j)


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
    g = _as_gamma(gamma).value
    if g <= 0:
        raise ValueError("explicit summation requires gamma > 0")
    if n == 0:
        return 1 if j == 0 else 0
    two_g = 2 * g
    total = Fraction(0)
    for r in range(j + 1):
        base = r + two_g - 1
        if base == 0:
            continue  # regularized r = 0 summand at gamma = 1/2
        prod = Fraction(1)
        for t in range(j + 1):
            prod *= base + t
        if prod == 0:
            raise ArithmeticError(
                f"zero product factor at r={r} for gamma={g}; outside the regularized case"
            )
        term = (
            (2 * r + two_g - 1)
            * (r * base) ** n
            / (factorial(r) * factorial(j - r) * prod)
        )
        total += term if (r + j) % 2 == 0 else -term
    return _normalize(total)


def legendre_stirling_altsum(n: int, j: int) -> int:
    """gamma = 1 entry as the (2r+1)-weighted alternating sum over r <= j."""
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
#
# c(n, j) = (2j)! * T_1(n, j) satisfies its own all-integer recurrence
#
#     c(n, j) = 2j(2j-1) c(n-1, j-1) + j(j+1) c(n-1, j),
#
# which is the cheap route to whole rows (generating-polynomial
# coefficients) and, via a banded sweep, to single far-out entries.

_MODIFIED_ROWS: dict[int, tuple[int, ...]] = {0: (1,)}


def modified_legendre_row(n: int) -> tuple[int, ...]:
    """Row n of the scaled numbers; O(n) memory, rolls forward from the
    nearest previously requested row."""
    if n < 0:
        raise ValueError("n must be non-negative")
    cached = _MODIFIED_ROWS.get(n)
    if cached is not None:
        return cached
    start = max(k for k in _MODIFIED_ROWS if k <= n)
    row = list(_MODIFIED_ROWS[start])
    for r in range(start + 1, n + 1):
        new = [0] * (r + 1)
        for j in range(1, r + 1):
            a = row[j - 1]
            b = row[j] if j < len(row) else 0
            new[j] = 2 * j * (2 * j - 1) * a + j * (j + 1) * b
        row = new
    out = tuple(row)
    _MODIFIED_ROWS[n] = out
    return out


def modified_legendre(n: int, j: int) -> int:
    """Single scaled entry c(n, j) = (2j)! * T_1(n, j).

    Only the parent band of columns [j - (n - r), j] is carried through
    row r, so an entry like (1000, 930) needs a 71-wide band instead of
    the full triangle.
    """
    if n < 0 or j < 0:
        raise ValueError("indices must be non-negative")
    if j > n:
        return 0
    if n == 0:
        return 1
    band = {0: 1}
    for r in range(1, n + 1):
        lo = max(0, j - (n - r))
        hi = min(r, j)
        new = {}
        for jj in range(lo, hi + 1):
            if jj == 0:
                new[0] = 0
                continue
            a = band.get(jj - 1, 0)
            b = band.get(jj, 0)
            new[jj] = 2 * jj * (2 * jj - 1) * a + jj * (jj + 1) * b
        band = new
    return band[j]


def odd_power_cancellation(j: int, ell: int) -> int:
    """The signed binomial sum over (j - nu)^(2*ell + 1); identically zero."""
    total = 0
    for nu in range(2 * j + 1):
        t = comb(2 * j, nu) * (j - nu) ** (2 * ell + 1)
        total += -t if nu & 1 else t
    return total


def legendre_from_chebyshev_odd(k: int, j: int) -> int:
    """Odd-index Legendre entry as a binomial mix of Chebyshev entries:
    T_1(2k+1, j) = sum_mu C(2k+1, 2mu+1) T_{1/2}(k+mu+1, j)."""
    tri = triangle_for(CHEBYSHEV)
    return sum(
        comb(2 * k + 1, 2 * mu + 1) * tri.value(k + mu + 1, j) for mu in range(k + 1)
    )


def legendre_from_chebyshev_even(k: int, j: int) -> int:
    """Even-index analogue: T_1(2k, j) = sum_mu C(2k, 2mu) T_{1/2}(k+mu, j)."""
    tri = triangle_for(CHEBYSHEV)
    return sum(comb(2 * k, 2 * mu) * tri.value(k + mu, j) for mu in range(k + 1))


def gamma_zero_identity(n: int, j: int) -> int:
    """Check T_0(n, j) == T_1(n-1, j-1) and return the common value."""
    if n < 1 or j < 1:
        raise ValueError("requires n, j >= 1")
    lhs = jacobi_stirling(n, j, GAMMA_ZERO)
    rhs = jacobi_stirling(n - 1, j - 1, LEGENDRE)
    if lhs != rhs:
        raise KernelInvariantError(
            f"gamma-zero shift failed at ({n}, {j}): {lhs} != {rhs}"
        )
    return int(lhs)


# --- row format: (n, j, value) entries as JSON-lines records or CSV --------


def format_entry(value) -> str:
    """Serialize an entry as a decimal string ('p/q' for non-integers)."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))


def iter_triangle(gamma, n_max: int):
    """Yield (n, j, value) in row-major order up to row n_max."""
    tri = triangle_for(gamma)
    for n in range(n_max + 1):
        row = tri.row(n)
        for j in range(n + 1):
            yield n, j, row[j]


def triangle_record(n: int, j: int, value) -> str:
    """One JSON-lines record of an entry."""
    return json.dumps({"n": n, "j": j, "value": format_entry(value)})


def parse_record(line: str) -> tuple:
    """Inverse of triangle_record: (n, j, value) with an exact value."""
    obj = json.loads(line)
    text = obj["value"]
    value = Fraction(text) if "/" in text else int(text)
    return obj["n"], obj["j"], value


def write_triangle_csv(fp, entries) -> None:
    """Write (n, j, value) entries as CSV under an `n,j,value` header."""
    fp.write("n,j,value\n")
    for n, j, v in entries:
        fp.write(f"{n},{j},{format_entry(v)}\n")
