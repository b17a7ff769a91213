"""Exact real-root certification for the Legendre generating polynomials.

M_n has a simple zero at s = 0; the interesting factor is q = M_n / s,
an integer polynomial of degree n - 1 whose zeros are claimed to be real,
simple, and inside (-1/4, 0).  This module certifies that claim for each
concrete n with a Sturm chain built as a primitive pseudo-remainder
sequence: every rescaling along the chain is by a positive integer, so
the classical sign-variation count is preserved while coefficients stay
near subresultant size.  No floating point enters anywhere.  A
polynomial is a tuple of integer coefficients, ascending, with no
trailing zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import mpmath as mp

from .errors import CertificationError
from .precision import to_mpf
from .triangles import modified_legendre_row


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
    """Exact sign of p at a rational point (homogeneous Horner)."""
    num, den = x.numerator, x.denominator
    acc = 0
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


def sign_variations(chain: list[tuple[int, ...]], x: Fraction) -> int:
    signs = [s for s in (sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


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


def certify_roots(n: int) -> RootCertificate:
    """Certify the zero set of M_n: a zero constant term, a squarefree
    cofactor q = M_n/s with exactly n-1 roots in (-1/4, 0), each isolated
    in its own interval, and sign(M_n(-1/4)) = (-1)^n.

    A failed clause raises CertificationError naming it; that would mean
    a kernel bug, not a property of the numbers.
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    m = modified_legendre_row(n)
    q = m[1:]  # M_n / s
    if m[0] != 0:
        raise CertificationError("zero-root", f"M_{n} has nonzero constant term")
    quarter, zero = Fraction(-1, 4), Fraction(0)

    sign_m_quarter = sign_at(m, quarter)
    if sign_m_quarter != (-1) ** n:
        raise CertificationError(
            "parity-sign", f"sign at -1/4 is {sign_m_quarter}, expected {(-1) ** n}"
        )
    if sign_at(q, quarter) == 0 or sign_at(q, zero) == 0:
        raise CertificationError("endpoint", "cofactor vanishes at an endpoint")

    chain = sturm_chain(q)
    if len(chain[-1]) != 1:
        raise CertificationError("simple-roots", f"gcd(q, q') has degree {len(chain[-1]) - 1}")

    total = count_roots(chain, quarter, zero)
    if total != n - 1:
        raise CertificationError(
            "root-count", f"found {total} roots in (-1/4, 0), expected {n - 1}"
        )

    intervals: list[tuple[Fraction, Fraction]] = []
    stack = [(quarter, zero, total)]
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
    intervals.sort()

    for lo, hi in intervals:
        if sign_at(q, lo) * sign_at(q, hi) >= 0:
            raise CertificationError("isolation", f"no sign change across ({lo}, {hi})")

    return RootCertificate(n=n, intervals=tuple(intervals), sign_at_quarter=sign_m_quarter)


def refine_roots(cert: RootCertificate, precision_bits: int) -> list[mp.mpf]:
    """Bisect each certified interval with exact sign tests until its width
    drops below 2^-precision_bits; returns the midpoints as mpf values,
    ascending.  Fully deterministic."""
    q = modified_legendre_row(cert.n)[1:]
    eps = Fraction(1, 2**precision_bits)
    out = []
    with mp.workprec(precision_bits + 16):
        for lo, hi in cert.intervals:
            s_lo = sign_at(q, lo)
            while hi - lo >= eps:
                mid = (lo + hi) / 2
                s_mid = sign_at(q, mid)
                if s_mid == 0:
                    lo = hi = mid
                    break
                if s_mid == s_lo:
                    lo = mid
                else:
                    hi = mid
            center = (lo + hi) / 2
            out.append(to_mpf(center))
    return out
