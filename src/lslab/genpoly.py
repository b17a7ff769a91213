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
from .triangles import LEGENDRE, triangle_row


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
    """Mode of the scaled row c_j = (2j)! T(n, j) by an exact
    peak-or-plateau scan: strictly increasing, then strictly decreasing,
    with at most one adjacent equal pair at the top, whose left index is
    the mode.  Raises UnimodalityError on any other shape.

    The scan reads the unscaled row T = triangle_row(LEGENDRE, n) and
    forms no factorial: c_(j+1) - c_j = (2j)! ((2j+1)(2j+2) T(n, j+1) -
    T(n, j)), and (2j)! > 0, so each step compares the two terms of the
    bracket."""
    if n < 3:
        raise ValueError("requires n >= 3")
    row = triangle_row(LEGENDRE, n)
    # up[j] = c_(j+1)/(2j)!, to compare with row[j] = c_j/(2j)!
    up = [(2 * j + 1) * (2 * j + 2) * row[j + 1] for j in range(n)]
    mode = 0
    while mode < n and row[mode] < up[mode]:
        mode += 1
    start = mode + 1 if mode < n and row[mode] == up[mode] else mode
    for k in range(start, n):
        if not row[k] > up[k]:
            raise UnimodalityError(
                f"row {n} is not unimodal: rise or tie at j={k} after the mode"
            )
    return mode
