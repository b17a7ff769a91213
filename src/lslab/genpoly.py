"""Row generating polynomials of the scaled triangles.

For each n the coefficients (2j)! * T(n, j), 0 <= j <= n, are collected
into a dense integer polynomial.  The production Legendre polynomial is
the scaled triangle row `triangles.modified_legendre_row`.  The pure
differential recurrence is kept as a cross-check only:

    M_n(s) = s * (2 M_{n-1}(s) + (10 s + 2) M_{n-1}'(s) + s (4 s + 1) M_{n-1}''(s)),

starting from M_0 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnimodalityError
from .triangles import CHEBYSHEV, modified_legendre_row, scale_row, triangle_row


class IntPolynomial:
    """Dense polynomial with arbitrary-precision integer coefficients,
    ascending order.  Immutable once constructed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0 * x if self.coeffs else 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"


def legendre_genpoly_fast(n: int) -> IntPolynomial:
    """Legendre generating polynomial, coefficients (2j)! * T_1(n, j)."""
    return IntPolynomial(modified_legendre_row(n))


def chebyshev_genpoly(n: int) -> IntPolynomial:
    """Generating polynomial of the scaled gamma = 1/2 row."""
    return IntPolynomial(scale_row(triangle_row(CHEBYSHEV, n)))


def legendre_genpoly_recurrence(n: int) -> IntPolynomial:
    """Legendre generating polynomial via the differential recurrence; a
    cross-check of legendre_genpoly_fast."""
    if n < 0:
        raise ValueError("n must be non-negative")
    coeffs = [1]
    for _ in range(n):
        d1 = [i * c for i, c in enumerate(coeffs)][1:]
        d2 = [i * c for i, c in enumerate(d1)][1:]
        deg = len(coeffs) - 1
        new = [0] * (deg + 2)
        # s * 2 M
        for i, c in enumerate(coeffs):
            new[i + 1] += 2 * c
        # s * (10 s + 2) M'
        for i, c in enumerate(d1):
            new[i + 2] += 10 * c
            new[i + 1] += 2 * c
        # s^2 (4 s + 1) M''
        for i, c in enumerate(d2):
            new[i + 3] += 4 * c
            new[i + 2] += c
        coeffs = new
    return IntPolynomial(coeffs)


def derivatives_at_one(p: IntPolynomial) -> tuple[int, int, int]:
    """Exact (p(1), p'(1), p''(1))."""
    c = p.coeffs
    return (
        sum(c),
        sum(j * cj for j, cj in enumerate(c)),
        sum(j * (j - 1) * cj for j, cj in enumerate(c)),
    )


@dataclass(frozen=True)
class UnimodalityReport:
    n: int
    peak_index: int | None
    plateau_pair: tuple[int, int] | None

    @property
    def mode(self) -> int:
        return self.peak_index if self.peak_index is not None else self.plateau_pair[0]


def unimodality_report(n: int) -> UnimodalityReport:
    """Exact peak-or-plateau scan of the scaled row: strictly increasing,
    then strictly decreasing, with at most one adjacent equal pair at the
    top.  Raises UnimodalityError on any other shape."""
    if n < 3:
        raise ValueError("requires n >= 3")
    row = modified_legendre_row(n)
    i = 0
    while i < n and row[i] < row[i + 1]:
        i += 1
    if i == n:
        return UnimodalityReport(n, peak_index=n, plateau_pair=None)
    if row[i] == row[i + 1]:
        plateau = (i, i + 1)
        start = i + 1
    else:
        plateau = None
        start = i
    for k in range(start, n):
        if not row[k] > row[k + 1]:
            raise UnimodalityError(
                f"row {n} is not unimodal: rise or tie at j={k} after the mode"
            )
    if plateau is not None:
        return UnimodalityReport(n, peak_index=None, plateau_pair=plateau)
    return UnimodalityReport(n, peak_index=i, plateau_pair=None)
