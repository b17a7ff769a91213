"""Exact real-root certification for the Legendre generating polynomials.

M_n has a simple zero at s = 0; the interesting factor is q = M_n / s,
an integer polynomial of degree d = n - 1 whose zeros are claimed to be
real, simple, and inside (-1/4, 0).  `certify_roots` proves that claim
for each concrete n by Descartes bisection (Vincent-Collins-Akritas):
the interval is mapped onto (0, 1), every node of the split tree is an
integer polynomial, and the sign variations of its reversed polynomial
shifted by 1 bound the roots in the node's interval from above.  So d
leaves, each with an exact sign change, leave no room for another root:
every root is real and simple, every count was exact, and the split tree
and its intervals are the ones a Sturm chain gives.  `refine_roots`
narrows each interval to the bracket that exact bisection ends in; a
Newton iteration in fixed-point integers at precision_bits + 64 bits only
proposes that bracket (every root lies in (-1/4, 0), so its Horner value
is off by under 4/3 ulp whatever the size of the coefficients), and two
exact sign tests accept it or hand the interval back to bisection.

The Sturm chain, a primitive pseudo-remainder sequence whose every
rescaling is by a positive integer, stays as the cross-check that
`verify roots` runs for n <= 30 and as the fallback when a split
midpoint is an exact root.  No floating point enters a certificate.  A
polynomial is a tuple of integer coefficients, ascending, with no
trailing zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import mpmath as mp

from .errors import CertificationError, ResourceLimitError
from .precision import to_mpf
from .triangles import modified_legendre_row

# Largest n whose roots are certified.  On a 2-vCPU Xeon VM with CPython
# 3.11 the certificate takes 0.08 s at n = 55 and 14 s at n = 200, and
# refinement to 256 bits 0.06 s and 3.0 s; the cost grows steeply, as the
# interval next to 0 is about 2^-(n+1) wide.
ROOTS_MAX_N = 200

# Largest refinement precision.  On the same VM refinement at n =
# ROOTS_MAX_N takes 3.0 s to 256 bits, 19 s to 1024 and 68 s to 2048.
REFINE_MAX_BITS = 2048


def _primitive(p: tuple[int, ...]) -> tuple[int, ...]:
    g = gcd(*p) or 1
    return tuple(c // g for c in p)


def _pseudo_rem_pos(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Pseudo-remainder of a by b where every intermediate rescaling is by
    the positive constant |lc(b)|, so signs are preserved up to a positive
    factor."""
    scale = abs(b[-1])
    db = len(b) - 1
    r = list(a)
    while True:
        while r and r[-1] == 0:
            r.pop()
        dr = len(r) - 1
        if dr < db:
            return tuple(r)
        lead = r[-1]
        r = [scale * c for c in r]
        shift = dr - db
        for i, bc in enumerate(b):
            r[i + shift] -= lead * bc
        assert r[-1] == 0
        r.pop()


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


def sturm_chain(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Sturm chain of p as primitive integer polynomials.  Ends with (a
    positive multiple of) gcd(p, p'); a constant tail certifies p is
    squarefree."""
    chain = [_primitive(p)]
    d = tuple(i * c for i, c in enumerate(chain[0]))[1:]
    if not d:
        return chain
    chain.append(_primitive(d))
    while len(chain[-1]) > 1:
        rem = _pseudo_rem_pos(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_primitive(tuple(-c for c in rem)))
    return chain


def _variations(values) -> int:
    """Sign changes along a sequence of numbers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def sign_variations(chain: list[tuple[int, ...]], x: Fraction) -> int:
    return _variations([sign_at(p, x) for p in chain])


def count_roots(chain: list[tuple[int, ...]], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in (lo, hi]; needs p(lo) != 0."""
    return sign_variations(chain, lo) - sign_variations(chain, hi)


@dataclass(frozen=True)
class RootCertificate:
    """Isolating intervals (ascending, open, pairwise disjoint) for the
    nonzero roots of M_n, plus the parity sign at -1/4."""

    n: int
    intervals: tuple[tuple[Fraction, Fraction], ...]
    sign_at_quarter: int


def _split_point(q: tuple[int, ...], lo: Fraction, hi: Fraction) -> Fraction:
    """A point strictly inside (lo, hi) where q does not vanish."""
    width = hi - lo
    for num, den in ((1, 2), (1, 3), (2, 3), (1, 5), (2, 5), (3, 5), (4, 5), (1, 7)):
        x = lo + width * Fraction(num, den)
        if sign_at(q, x) != 0:
            return x
    raise CertificationError("split-point", f"no root-free split point in ({lo}, {hi})")


Intervals = list[tuple[Fraction, Fraction]]


def sturm_intervals(q: tuple[int, ...], lo: Fraction, hi: Fraction) -> Intervals:
    """Isolating intervals, ascending, for the roots of q in (lo, hi),
    by Sturm counts, splitting at the midpoint unless q vanishes there;
    q must not vanish at lo.  Raises CertificationError("simple-roots")
    when q has a repeated factor."""
    chain = sturm_chain(q)
    if len(chain[-1]) != 1:
        raise CertificationError("simple-roots", f"gcd(q, q') has degree {len(chain[-1]) - 1}")
    intervals: Intervals = []
    stack = [(lo, hi, count_roots(chain, lo, hi))]
    while stack:
        lo, hi, k = stack.pop()
        if k == 0:
            continue
        if k == 1:
            intervals.append((lo, hi))
            continue
        mid = _split_point(q, lo, hi)
        left = count_roots(chain, lo, mid)
        stack.append((lo, mid, left))
        stack.append((mid, hi, k - left))
    return sorted(intervals)


def _shift_one(a: list[int]) -> list[int]:
    """a(x + 1), in place."""
    d = len(a) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] += a[j + 1]
    return a


def descartes_intervals(q: tuple[int, ...], lo: Fraction, hi: Fraction) -> Intervals | None:
    """Isolating intervals, ascending, for the roots of q in (lo, hi), by
    Descartes bisection at midpoints; q must not vanish at lo or hi.

    The interval maps onto (0, 1) by p(x) = D^d q(lo + (hi - lo) x), with
    D the least common denominator.  A node (c, k) stands for
    (c/2^k, (c+1)/2^k) and holds P, a positive multiple of
    p((x + c)/2^k); its count is the number of sign variations of
    x^d P(1/x) shifted by 1.  Count 0 drops the node, count 1 makes it a
    leaf, and a split makes the children 2^d P(x/2) and its shift by 1.
    Returns None, for the caller to fall back to Sturm, when q vanishes
    at a split midpoint, or when a node of depth 2 + B still splits,
    where B bounds log2 of 1/(root separation of p) by Mahler and
    Mignotte: a node that narrow splits only when p has a repeated root.
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
        count = _variations(_shift_one(poly[::-1]))
        if count == 0:
            continue
        if count == 1:
            leaves.append((c, k))
            continue
        if k == depth_cap:
            return None
        left = [u << (d - i) for i, u in enumerate(poly)]
        right = _shift_one(left[:])
        if right[0] == 0:  # q vanishes at the midpoint
            return None
        stack.append((left, 2 * c, k + 1))
        stack.append((right, 2 * c + 1, k + 1))
    width = hi - lo
    return sorted(
        (lo + width * Fraction(c, 1 << k), lo + width * Fraction(c + 1, 1 << k)) for c, k in leaves
    )


def isolate_roots(q: tuple[int, ...], lo: Fraction, hi: Fraction) -> Intervals:
    """Certify that q has deg q real, simple roots in (lo, hi) and return
    one isolating interval per root, ascending: Descartes bisection, or
    Sturm when that returns None, then an exact sign change across every
    interval.  Raises CertificationError naming the failed clause."""
    if sign_at(q, lo) == 0 or sign_at(q, hi) == 0:
        raise CertificationError("endpoint", "cofactor vanishes at an endpoint")
    intervals = descartes_intervals(q, lo, hi)
    if intervals is None:
        intervals = sturm_intervals(q, lo, hi)
    if len(intervals) != len(q) - 1:
        raise CertificationError(
            "root-count", f"found {len(intervals)} roots in ({lo}, {hi}), expected {len(q) - 1}"
        )
    for a, b in intervals:
        if sign_at(q, a) * sign_at(q, b) >= 0:
            raise CertificationError("isolation", f"no sign change across ({a}, {b})")
    return intervals


def check_roots_cap(n: int, refine_bits: int = 0) -> None:
    """The caps on root work, checked before any work."""
    if n > ROOTS_MAX_N:
        raise ResourceLimitError(f"roots of row {n} exceed the cap of n <= {ROOTS_MAX_N}")
    if refine_bits > REFINE_MAX_BITS:
        raise ResourceLimitError(
            f"refinement to {refine_bits} bits exceeds the cap of {REFINE_MAX_BITS}"
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
    the size of the coefficients.  The bracket is taken only if q has two
    nonzero, different exact signs at its ends; otherwise the interval is
    bisected.  Either way the output is that of bisection, and fully
    deterministic.  More than REFINE_MAX_BITS raises ResourceLimitError
    before any work.

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
        s_a, s_b = sign_at(q, a), sign_at(q, b)
        center = a + cell / 2 if s_a and s_b and s_a != s_b else _bisect(q, lo, hi, eps)
        with mp.workprec(precision_bits + 16):
            out.append(to_mpf(center))
        s_lo = -s_lo
    return out
