"""Row generating polynomials of the scaled triangles.

A polynomial is a tuple of integer coefficients in ascending order.  For
each n the coefficients (2j)! * T(n, j), 0 <= j <= n, form the Legendre
generating polynomial M_n; the production M_n is the scaled triangle row
`triangles.modified_legendre_row`.  The differential recurrence, in the
factored form the real-root proof of `sturm` uses, is kept as a
cross-check only: with D = d/ds,

    M_n = s ((4s + 1) D + 2) D s M_{n-1},    M_0 = 1,

where D s is f -> (s f)'.
"""

from __future__ import annotations

from .errors import UnimodalityError
from .triangles import modified_legendre_row


def legendre_genpoly_recurrence(n: int):
    """Yield the Legendre generating polynomials M_0..M_n from one pass of
    the factored recurrence, one first-order step after the other; a
    cross-check of modified_legendre_row.  One row is held at a time; the
    201 rows up to n = 200 take about 4 MB together."""
    if n < 0:
        raise ValueError("n must be non-negative")
    coeffs = (1,)
    yield coeffs
    for _ in range(n):
        g = [(i + 1) * c for i, c in enumerate(coeffs)] + [0]  # D s
        # (4s + 1) D + 2 sends g_i s^i to (4i + 2) g_i s^i + i g_i s^(i-1)
        h = [(4 * i + 2) * g[i] + (i + 1) * g[i + 1] for i in range(len(coeffs))]
        coeffs = (0, *h)  # s
        yield coeffs


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
