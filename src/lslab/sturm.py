"""Exact real-root certification for the Legendre generating polynomials.

M_n has a simple zero at s = 0; the interesting factor is q_n = M_n / s,
an integer polynomial of degree d = n - 1 whose zeros are real, simple,
and inside (-1/4, 0).  The recurrence of `genpoly` is the product of
first-order steps M_n = s((4s+1)D + 2) D s M_{n-1}, with D = d/ds, and
(4s+1)g' + 2g = (4s+1)^(1/2) d/ds[(4s+1)^(1/2) g].  Let q_{n-1} have
n - 2 simple roots in (-1/4, 0).  By Rolle, g = (s^2 q_{n-1})' has a
root at 0 and n - 2 roots between those of s^2 q_{n-1}; (4s+1)^(1/2) g
vanishes at -1/4, at those n - 2 roots and at 0, so its derivative, and
with it q_n, has n - 1 roots in (-1/4, 0), as many as its degree.  From
q_1 = 2 this holds for every n (the first-order factor argument of Liu
and Wang, Adv. Appl. Math. 2007); in particular no row has a repeated
root, so no row reaches the depth cap of `descartes_intervals`.

`certify_roots` proves the claim for each concrete n by Descartes
bisection (Vincent-Collins-Akritas): the interval is mapped onto (0, 1),
every node of the split tree is an integer polynomial, and the sign
variations of its reversed polynomial shifted by 1 bound the roots in
the node's interval from above.  So d leaves, each with an exact sign
change, leave no room for another root: every root is real and simple,
and every count was exact.  Bisection reads only whether a count is 0,
1 or at least 2, so the count stops there (`_capped_count`, the early
termination of Collins and Akritas, SYMSAC 1976).  Deleting terms from a
sequence never adds a sign change, and the shift of a(x) to a(x + 1)
has nonnegative binomial weights: a list of one sign shifts to a list
of that sign, count 0, and once pass i of the in-place shift has fixed
the low coefficients 0..i, those and the leading coefficient, which no
pass changes, are a subsequence of the shifted list; two sign changes
among them mean at least two in the whole.  Every other node runs the
whole shift and counts exactly, so each node decides as the full count
would.

`refine_roots` narrows each interval to the bracket that exact
bisection ends in; a Newton iteration in fixed-point integers at p =
precision_bits + 64 bits only proposes that bracket, and the signs of q
at its two ends accept it or hand the interval back to bisection.  An
end is a dyadic X/2^p unless the certified interval is narrower than
2^-p, and there the floored Horner value F of 2^p q is off by less than
4/3 (every root lies in (-1/4, 0); see refine_roots).  So F >= 2 or
F <= -2 gives the exact sign, and `sign_at` runs only when |F| < 2,
where |2^p q| < 10/3, next to a root, or at an end X/2^p cannot hold.

`separators` and `tree_intervals` are the independent cross-check that
`verify roots` runs for n <= 30: q_n alternates in sign, tested exactly,
across Newton points at the roots of q_{n-1}, and the bisection tree is
rebuilt on those gaps.  No floating point enters a certificate.  A
polynomial is a tuple of integer coefficients, ascending, with no
trailing zeros.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from math import gcd

import mpmath as mp

from .errors import CertificationError, ResourceLimitError
from .precision import to_mpf
from .triangles import MAX_BITS, modified_legendre_row

# Largest n whose roots are certified.  On a 2-vCPU Xeon VM with CPython
# 3.11.7 the certificate takes 0.026 s at n = 55 and 5.7 s at n = 200,
# and refinement to 256 bits 0.028 s and 1.0 s; the cost grows steeply,
# as the interval next to 0 is about 2^-(n+1) wide.
ROOTS_MAX_N = 200


def sign_at(p: tuple[int, ...], x: Fraction) -> int:
    """Exact sign of p at a rational point (homogeneous Horner).  At a
    dyadic point, den = 2^e, the powers of den are shifts."""
    num, den = x.numerator, x.denominator
    acc = 0
    if den & (den - 1) == 0:
        e, s = den.bit_length() - 1, 0
        for c in reversed(p):
            acc = acc * num + (c << s)
            s += e
    else:
        dpow = 1
        for c in reversed(p):
            acc = acc * num + c * dpow
            dpow *= den
    return (acc > 0) - (acc < 0)


class RootCertificate(namedtuple("RootCertificate", "n intervals sign_at_quarter")):
    """Isolating intervals (a tuple of (Fraction, Fraction) pairs:
    ascending, open, pairwise disjoint) for the nonzero roots of M_n, plus
    the parity sign at -1/4."""

    __slots__ = ()


Intervals = list[tuple[Fraction, Fraction]]


def _shift_one(a: list[int]) -> list[int]:
    """a(x + 1), in place."""
    d = len(a) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _capped_count(a: list[int]) -> int:
    """min(2, sign variations of a(x + 1)), zeros skipped; a is shifted
    in place only as far as that value needs (see the module docstring).
    A list of one sign gives 0 with no shift.  Otherwise pass i of the
    shift fixes a[i], and a[d] never changes, so the shift stops once
    a[0..i] and a[d] show two variations."""
    if len({c > 0 for c in a if c}) < 2:
        return 0
    d = len(a) - 1
    top = (a[d] > 0) - (a[d] < 0)
    count = last = 0
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] += a[j + 1]
        if a[i]:
            s = 1 if a[i] > 0 else -1
            count += last == -s
            last = s
            if count + (top == -s) >= 2:
                return 2
    return count + (top == -last)


def descartes_intervals(q: tuple[int, ...], lo: Fraction, hi: Fraction) -> Intervals:
    """Isolating intervals, ascending, for the roots of q in (lo, hi), by
    Descartes bisection at midpoints; q must not vanish at lo or hi.

    The interval maps onto (0, 1) by p(x) = D^d q(lo + (hi - lo) x), with
    D the least common denominator.  A node (c, k) stands for
    (c/2^k, (c+1)/2^k) and holds P, a positive multiple of
    p((x + c)/2^k); its count is the number of sign variations of
    x^d P(1/x) shifted by 1, capped at 2 (`_capped_count`, exact by the
    module docstring).  Count 0 drops the node, count 1 makes it a leaf,
    and 2 splits it into the children 2^d P(x/2) and its shift by 1.
    Raises CertificationError("midpoint-root") when q vanishes at a split
    midpoint, and CertificationError("depth-cap") when a node of depth
    2 + B still splits, where B bounds log2 of 1/(root separation of p)
    by Mahler and Mignotte: a node that narrow splits only when p has a
    repeated root.  The cap bounds the cost of any input.
    """
    d = len(q) - 1
    scale = lo.denominator * hi.denominator // gcd(lo.denominator, hi.denominator)
    a, b = int(lo * scale), int((hi - lo) * scale)
    p = [q[-1]]
    for k in range(d - 1, -1, -1):  # p <- p * (a + b x) + q_k D^(d-k)
        p = [a * u + b * v for u, v in zip(p + [0], [0] + p)]
        p[0] += q[k] * scale ** (d - k)
    norm_bits = sum(c * c for c in p).bit_length()  # of |p|_2^2
    depth_cap = 2 + ((d + 2) * d.bit_length() + (d - 1) * norm_bits + 1) // 2

    leaves = []
    stack = [(p, 0, 0)]
    while stack:
        poly, c, k = stack.pop()
        count = _capped_count(poly[::-1])
        if count == 0:
            continue
        if count == 1:
            leaves.append((c, k))
            continue
        if k == depth_cap:
            raise CertificationError("depth-cap", f"a node at depth {k} of ({lo}, {hi}) splits")
        left = [u << (d - i) for i, u in enumerate(poly)]
        right = _shift_one(left[:])
        if right[0] == 0:
            mid = lo + (hi - lo) * Fraction(2 * c + 1, 2 << k)
            raise CertificationError("midpoint-root", f"q vanishes at the split point {mid}")
        stack.append((left, 2 * c, k + 1))
        stack.append((right, 2 * c + 1, k + 1))
    width = hi - lo
    return sorted(
        (lo + width * Fraction(c, 1 << k), lo + width * Fraction(c + 1, 1 << k)) for c, k in leaves
    )


def isolate_roots(q: tuple[int, ...], lo: Fraction, hi: Fraction) -> Intervals:
    """Certify that q has deg q real, simple roots in (lo, hi) and return
    one isolating interval per root, ascending: Descartes bisection, then
    an exact sign change across every interval, one sign test per distinct
    end.  Raises CertificationError naming the failed clause."""
    signs = {x: sign_at(q, x) for x in (lo, hi)}
    if 0 in signs.values():
        raise CertificationError("endpoint", "cofactor vanishes at an endpoint")
    intervals = descartes_intervals(q, lo, hi)
    if len(intervals) != len(q) - 1:
        raise CertificationError(
            "root-count", f"found {len(intervals)} roots in ({lo}, {hi}), expected {len(q) - 1}"
        )
    for x in {x for pair in intervals for x in pair} - signs.keys():
        signs[x] = sign_at(q, x)
    for a, b in intervals:
        if signs[a] * signs[b] >= 0:
            raise CertificationError("isolation", f"no sign change across ({a}, {b})")
    return intervals


def check_roots_cap(n: int, refine_bits: int = 0) -> None:
    """The caps on root work, checked before any work."""
    if n > ROOTS_MAX_N:
        raise ResourceLimitError(f"roots of row {n} exceed the cap of n <= {ROOTS_MAX_N}")
    if refine_bits > MAX_BITS:
        raise ResourceLimitError(
            f"refinement to {refine_bits} bits exceeds the cap of {MAX_BITS}"
        )


def certify_roots(n: int) -> RootCertificate:
    """Certify the zero set of M_n: a zero constant term, sign(M_n(-1/4))
    = (-1)^n, and n - 1 real, simple roots of q = M_n/s in (-1/4, 0), each
    isolated in its own interval (see isolate_roots).

    A failed clause raises CertificationError naming it; that would mean
    a kernel bug, not a property of the numbers.
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    check_roots_cap(n)
    m = modified_legendre_row(n)
    if m[0] != 0:
        raise CertificationError("zero-root", f"M_{n} has nonzero constant term")
    quarter = Fraction(-1, 4)
    sign_m_quarter = sign_at(m, quarter)
    if sign_m_quarter != (-1) ** n:
        raise CertificationError(
            "parity-sign", f"sign at -1/4 is {sign_m_quarter}, expected {(-1) ** n}"
        )
    intervals = isolate_roots(m[1:], quarter, Fraction(0))
    return RootCertificate(n=n, intervals=tuple(intervals), sign_at_quarter=sign_m_quarter)


def _bisect(q: tuple[int, ...], lo: Fraction, hi: Fraction, eps: Fraction) -> Fraction:
    """Midpoint of the bracket that exact bisection of (lo, hi) ends in
    once it is narrower than eps, or the root itself if a midpoint hits
    it."""
    s_lo = sign_at(q, lo)
    while hi - lo >= eps:
        mid = (lo + hi) / 2
        s_mid = sign_at(q, mid)
        if s_mid == 0:
            return mid
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _newton(coeffs: list[int], p: int, a: int, b: int, s_lo: int, tol: int) -> int:
    """A root, as the integer X of X/2^p, of the polynomial with
    descending coefficients `coeffs` (each shifted left by p) in (a, b),
    where its sign at a is s_lo: Newton steps inside a shrinking bracket,
    a bisection step wherever Newton leaves it.  Horner in fixed point
    floors each product.  It only proposes a bracket, so it need not be
    right."""
    x = (a + b) >> 1
    for _ in range(p):
        f = df = 0
        for c in coeffs:
            df = (df * x >> p) + f
            f = (f * x >> p) + c
        if not f:
            return x
        if (f > 0) - (f < 0) == s_lo:
            a = x
        else:
            b = x
        if df:
            step = (f << p) // df
            if abs(step) <= tol:  # before the bracket test, which a converged step may just miss
                return x - step
            if a <= x - step <= b:
                x -= step
                continue
        x = (a + b) >> 1
    return x


def _certified_sign(q: tuple[int, ...], coeffs: list[int], p: int, x: Fraction) -> int:
    """Exact sign of q at x in [-1/4, 0]: the sign of the floored
    fixed-point Horner value F of `_newton` when x = X/2^p and |F| >= 2,
    else sign_at.  |F - 2^p q(x)| < 4/3 there, so F >= 2 puts 2^p q(x)
    above 2/3 and F <= -2 below -2/3."""
    den = x.denominator
    e = den.bit_length() - 1
    if den & (den - 1) == 0 and e <= p:
        fixed, f = x.numerator << (p - e), 0
        for c in coeffs:
            f = (f * fixed >> p) + c
        if abs(f) >= 2:
            return 1 if f > 0 else -1
    return sign_at(q, x)


def refine_roots(cert: RootCertificate, precision_bits: int) -> list[mp.mpf]:
    """Midpoints, ascending, of the brackets that exact bisection of each
    certified interval ends in once narrower than 2^-precision_bits, as
    mpf values at precision_bits + 16.

    An interval (lo, hi) of width W is bisected m times, m the least with
    W/2^m < 2^-precision_bits, and ends in [lo + kW/2^m, lo + (k+1)W/2^m]
    for one k.  A Newton iterate x = X/2^p in fixed-point integers, p =
    precision_bits + 64, gives k = floor((x - lo) 2^m/W).  Every root
    lies in (-1/4, 0), so each floored Horner product is scaled by less
    than 1/4 at the next step and q(x) is off by under 4/3 ulp, whatever
    the size of the coefficients: the error e of one Horner step becomes
    e x - delta, 0 <= delta < 1, with |x| <= 1/4.  The bracket is taken
    only if q has two nonzero, different exact signs at its ends; each is
    the sign of that fixed-point value F at the end when |F| >= 2, and
    sign_at's otherwise (`_certified_sign`).  If the signs do not qualify
    the interval is bisected.  Either way the output is that of
    bisection, and fully deterministic.  More than MAX_BITS
    raises ResourceLimitError before any work.

    Newton's sign at lo needs no sign test: q = M_n/s has the sign
    -sign_at_quarter at -1/4, each interval holds one simple root, no
    root lies between intervals or at an end, so the sign at the lower
    end of interval i is -sign_at_quarter * (-1)^i.
    """
    check_roots_cap(cert.n, precision_bits)
    q = modified_legendre_row(cert.n)[1:]
    eps = Fraction(1, 2**precision_bits)
    p = precision_bits + 64
    coeffs = [c << p for c in reversed(q)]
    out, s_lo = [], -cert.sign_at_quarter
    for lo, hi in cert.intervals:
        m = int((hi - lo) / eps).bit_length()
        cell = (hi - lo) / 2**m
        k = 0
        if m:
            lo_x = (lo.numerator << p) // lo.denominator
            hi_x = (hi.numerator << p) // hi.denominator
            tol = (cell.numerator << (p - 32)) // cell.denominator
            x = _newton(coeffs, p, lo_x, hi_x, s_lo, tol)
            k = min(max((Fraction(x, 1 << p) - lo) // cell, 0), 2**m - 1)
        a, b = lo + k * cell, lo + (k + 1) * cell
        s_a, s_b = _certified_sign(q, coeffs, p, a), _certified_sign(q, coeffs, p, b)
        center = a + cell / 2 if s_a and s_b and s_a != s_b else _bisect(q, lo, hi, eps)
        with mp.workprec(precision_bits + 16):
            out.append(to_mpf(center))
        s_lo = -s_lo
    return out


def separators(n_max: int):
    """Yield (n, points, signs) for n = 2..n_max: the points are -1/4, a
    root of q_{n-1} in each gap between the separators of n - 1, and 0,
    ascending; the signs are q_n's exact signs at them.  Each root is a
    `_newton` point at 2n + 64 bits, so the chain is independent of
    Descartes; it only proposes points, and signs that alternate put one
    root of q_n in each of the n - 1 gaps.  Raises
    CertificationError("interlacing") when they do not."""
    points, signs, q = [], [], ()
    for n in range(2, n_max + 1):
        p = 2 * n + 64
        coeffs = [c << p for c in reversed(q)]
        fixed = [(x.numerator << p) // x.denominator for x in points]
        # a step under 2^-(2n+32) stops Newton, far inside the ~2^-(n+1) gap next to 0
        inner = [
            Fraction(_newton(coeffs, p, a, b, s, 1 << 32), 1 << p)
            for a, b, s in zip(fixed, fixed[1:], signs)
        ]
        points, q = [Fraction(-1, 4), *inner, Fraction(0)], modified_legendre_row(n)[1:]
        signs = [sign_at(q, x) for x in points]
        if any(x >= y or s * t >= 0 for x, y, s, t in zip(points, points[1:], signs, signs[1:])):
            raise CertificationError("interlacing", f"q_{n} does not alternate across separators")
        yield n, points, signs


def tree_intervals(q: tuple[int, ...], points: list[Fraction], signs: list[int]) -> Intervals:
    """Leaves, ascending, of the midpoint bisection tree of (points[0],
    points[-1]) that splits every node holding two or more roots of q,
    given one root of q in each gap between `points` and q's `signs` at
    them.  The roots below a midpoint are the gaps below the one that
    holds it, found by bisecting the points, plus one if q's exact sign
    there differs from its sign at that gap's lower end."""
    leaves = []
    stack = [(points[0], points[-1], 0, len(points) - 1)]
    while stack:
        lo, hi, below_lo, below_hi = stack.pop()
        if below_hi - below_lo == 1:
            leaves.append((lo, hi))
        elif below_hi - below_lo > 1:
            mid = (lo + hi) / 2
            i = bisect_right(points, mid) - 1
            below_mid = i + (sign_at(q, mid) != signs[i])
            stack += [(lo, mid, below_lo, below_mid), (mid, hi, below_mid, below_hi)]
    return sorted(leaves)
