"""Row generating polynomials of the scaled triangles.

A polynomial is a tuple of integer coefficients in ascending order.  For
each n the coefficients (2j)! * T(n, j), 0 <= j <= n, form the Legendre
generating polynomial M_n; the production M_n is the scaled triangle row
`triangles.modified_legendre_row`.  The pure differential recurrence is
kept as a cross-check only:

    M_n(s) = s * (2 M_{n-1}(s) + (10 s + 2) M_{n-1}'(s) + s (4 s + 1) M_{n-1}''(s)),

starting from M_0 = 1.
"""

from __future__ import annotations

from .errors import UnimodalityError
from .triangles import modified_legendre_row


def legendre_genpoly_recurrence(n: int):
    """Yield the Legendre generating polynomials M_0..M_n from one pass of
    the differential recurrence; a cross-check of modified_legendre_row.
    One row is held at a time; the 201 rows up to n = 200 take about 4 MB
    together."""
    if n < 0:
        raise ValueError("n must be non-negative")
    coeffs = [1]
    yield (1,)
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
        yield tuple(coeffs)


def unimodality_report(n: int) -> int:
    """Mode of the scaled row by an exact peak-or-plateau scan: strictly
    increasing, then strictly decreasing, with at most one adjacent equal
    pair at the top, whose left index is the mode.  Raises
    UnimodalityError on any other shape."""
    if n < 3:
        raise ValueError("requires n >= 3")
    row = modified_legendre_row(n)
    mode = 0
    while mode < n and row[mode] < row[mode + 1]:
        mode += 1
    start = mode + 1 if mode < n and row[mode] == row[mode + 1] else mode
    for k in range(start, n):
        if not row[k] > row[k + 1]:
            raise UnimodalityError(
                f"row {n} is not unimodal: rise or tie at j={k} after the mode"
            )
    return mode
