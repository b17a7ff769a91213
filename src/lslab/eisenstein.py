"""Lattice-sum representations of the generating polynomial values.

For w > 0 and g(w) = 1/(2 (cosh w - 1)) the Chebyshev-side polynomials
satisfy

    L_n(g(w)) = (2n)! * (2 (cosh w - 1)/sinh w)
                * sum_{m in Z} (w + 2 pi i m)^(-(2n+1)),

and the Legendre-side ones

    M_n(g(w)) = ((cosh w - 1)/sinh w) * sum_{m in Z} J(n, n; w + 2 pi i m)

with J the exact closed-form integral from the laplace module.  Sums are
truncated at |m| <= m_max and always reduced in the fixed order
m = 0, -1, +1, -2, +2, ...; both are real, and only real parts are
added.  mpmath rounds the real and imaginary parts of every mpc
operation on their own, to nearest or toward zero, and both commute
with negation (as do atan2 and sine on the log/exp route of a large
power), so the term at w - 2 pi i m is bit for bit the conjugate of the
term at w + 2 pi i m.  Each pair is evaluated once and its real part
added twice, which is the real part of the complex sum over every point
bit for bit.  Every truncated sum can be certified by the proof-grade
estimate

    |relative truncation error| <= 2 zeta((r+1)/2) (w/(4 pi))^((r+1)/2),

valid for r >= 2, where r = 2n for the L-series and r = n for the
M-series.

`CertifiedValue.covers` decides whether a measured relative error is
within that bound, and evaluates zeta only when zeta can change the
answer.  zeta(s) > 1 for every s > 1, so the floor 2 (w/(4 pi))^s lies
below the bound, and an error at or below the floor is within it.  Both
sides are computed at bits + 16 (bits = precision_bits): w rounded, pi,
w/(4 pi) and the power, with zeta's truncation below 2^-(bits+40) and
its own rounding at bits + 32.  The power turns the base's relative
error e into about s e, so the computed floor and bound are each within
a relative (s + 4) 2^-(bits+14) of their true values.  `covers` compares
the error with the floor and then the bound, each shrunk by a relative
2^-(bits-8).  For r < 2^21 (s <= 2^20) that margin is about four times
the rounding, so rounding to nearest cannot admit an error above the
true bound, and zeta > 1 is the only fact the floor test needs.  The
printed `tail_bound` stays rounded to nearest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import ceil, factorial, log, tau

import mpmath as mp

from .errors import PrecisionError
from .laplace import laplace_closed_form
from .precision import to_mpf


def zeta_series(s, precision_bits: int = 256) -> mp.mpf:
    """zeta(s) for real s > 1: the direct sum over k < N plus the
    Euler-Maclaurin tail at N, with B_2i exact from mpmath.bernfrac.

    Let b = precision_bits + 40.  The tail's correction terms shrink
    until 2i + s ~ 2 pi N and then grow; the smallest is at most about
    2 N^(-1/2) (2 pi)^(s-1)/Gamma(s) e^(-2 pi N) < 2^5 e^(-2 pi N) for
    every s > 1.  So N = max(64, ceil((b + 24) ln 2 / (2 pi))) puts it
    below 2^-b with room to spare: N = 64 up to 512 bits, 121 at 1024.
    Correction terms are added while they are at least 2^-b, the working
    precision.  Every even derivative of x^-s is positive, so the
    remainder lies between 0 and the first term left out, and the
    truncation error is below 2^-b (zeta(s) > 1, so also relatively).
    A term that stops shrinking before it drops below 2^-b raises
    PrecisionError; the loop ends either way.  The value depends only on
    (s, precision_bits), and an mpf is immutable, so the last 64 are
    memoized: tail_bound asks again for the same s at each call."""
    return _zeta_series(s, precision_bits)


@lru_cache(maxsize=64)
def _zeta_series(s, precision_bits: int) -> mp.mpf:
    bits = precision_bits + 40
    n = max(64, ceil((bits + 24) * log(2) / tau))
    with mp.workprec(precision_bits + 32):
        sv = to_mpf(s)
        if sv <= 1:
            raise ValueError("requires s > 1")
        head = mp.fsum(mp.mpf(k) ** (-sv) for k in range(1, n))
        npow = mp.mpf(n) ** (-sv)
        total = head + npow / 2 + mp.mpf(n) ** (1 - sv) / (sv - 1)
        target = mp.mpf(2) ** (-bits)
        rising = sv  # s (s+1) ... (s + 2i - 2)
        npow_i = npow / n  # n^(-s - 2i + 1)
        last = mp.inf
        i = 1
        while True:
            p, q = mp.bernfrac(2 * i)
            term = mp.mpf(p) / q / factorial(2 * i) * rising * npow_i
            if abs(term) < target:
                return +total
            if abs(term) >= last:
                raise PrecisionError(
                    f"zeta({mp.nstr(sv, 8)}) tail turned at term {i} above 2^-{bits}"
                )
            total += term
            last = abs(term)
            i += 1
            rising *= (sv + 2 * i - 3) * (sv + 2 * i - 2)
            npow_i /= n * n


def _tail_power(r: int, w, precision_bits: int) -> mp.mpf:
    """(w/(4 pi))^((r+1)/2) at precision_bits + 16: the bound without its
    factor 2 zeta((r+1)/2)."""
    if r < 2:
        raise ValueError("bound requires r >= 2")
    with mp.workprec(precision_bits + 16):
        wv = mp.mpf(w)
        if wv <= 0:
            raise ValueError("w must be positive")
        return (wv / (4 * mp.pi)) ** (mp.mpf(r + 1) / 2)


def tail_bound(r: int, w, precision_bits: int = 256) -> mp.mpf:
    """Certified relative truncation bound 2 zeta((r+1)/2) (w/(4 pi))^((r+1)/2)
    for the lattice sums, rounded to nearest; requires r >= 2."""
    power = _tail_power(r, w, precision_bits)
    with mp.workprec(precision_bits + 16):
        return 2 * zeta_series(mp.mpf(r + 1) / 2, precision_bits) * power


def _lattice_sum(n: int, w, m_max: int, precision_bits: int, term, prefactor) -> mp.mpf:
    """prefactor(w) times the real part of the sum of term(z) over
    z = w + 2 pi i m, |m| <= m_max, in the fixed order.  The real part t
    shared by a conjugate pair is added twice: two roundings, as in the
    sum over every point, where adding 2 t would round once."""
    if n < 1:
        raise ValueError("requires n >= 1")
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    with mp.workprec(precision_bits + 32):
        wv = mp.mpf(w)
        if wv <= 0:
            raise ValueError("w must be positive")
        total = term(mp.mpc(wv, 0)).real
        for m in range(1, m_max + 1):
            t = term(mp.mpc(wv, 2 * mp.pi * m)).real
            total += t
            total += t
        total *= prefactor(wv)
    with mp.workprec(precision_bits):
        return +total


def eisenstein_chebyshev(n: int, w, m_max: int, precision_bits: int = 256) -> mp.mpf:
    """Truncated lattice sum approximating L_n(g(w))."""
    return _lattice_sum(
        n, w, m_max, precision_bits,
        lambda z: z ** (-(2 * n + 1)),
        lambda wv: mp.mpf(factorial(2 * n)) * 2 * (mp.cosh(wv) - 1) / mp.sinh(wv),
    )


def eisenstein_legendre(n: int, w, m_max: int, precision_bits: int = 256) -> mp.mpf:
    """Truncated lattice sum approximating M_n(g(w)) via the closed-form
    integrals J(n, n; w + 2 pi i m)."""
    return _lattice_sum(
        n, w, m_max, precision_bits,
        laplace_closed_form(n, n).eval,
        lambda wv: (mp.cosh(wv) - 1) / mp.sinh(wv),
    )


def squeeze_argument(w, precision_bits: int = 256) -> mp.mpf:
    """g(w) = 1/(2 (cosh w - 1)), the polynomial argument reached by the
    lattice representation at parameter w."""
    with mp.workprec(precision_bits + 16):
        wv = mp.mpf(w)
        if wv <= 0:
            raise ValueError("w must be positive")
        return +(1 / (2 * (mp.cosh(wv) - 1)))


@dataclass(frozen=True)
class CertifiedValue:
    """A truncated lattice sum with its own truncation certificate: the
    relative distance to the untruncated sum is at most
    `bound` = tail_bound(r, w, precision_bits), computed when first read
    (the bound, valid for the full tail m != 0, vastly overstates the
    part actually dropped)."""

    value: mp.mpf
    r: int
    w: mp.mpf
    precision_bits: int

    def __post_init__(self):
        if not 2 <= self.r < 2**21:
            raise ValueError("certificate requires 2 <= r < 2^21")

    @cached_property
    def bound(self) -> mp.mpf:
        return tail_bound(self.r, self.w, self.precision_bits)

    def covers(self, rel) -> bool:
        """Whether the relative error `rel` is within the true bound: rel at
        most the zeta-free floor 2 (w/(4 pi))^((r+1)/2), or else at most
        `bound`, each shrunk by a relative 2^-(precision_bits-8) (see the
        module docstring).  zeta is evaluated only in the second test."""
        with mp.workprec(self.precision_bits + 16):
            shrink = 1 - mp.mpf(2) ** (8 - self.precision_bits)
            floor = 2 * _tail_power(self.r, self.w, self.precision_bits) * shrink
            return rel <= floor or rel <= self.bound * shrink


def certified_legendre(n: int, w, m_max: int = 16, precision_bits: int = 256) -> CertifiedValue:
    """eisenstein_legendre with its truncation certificate (r = n); needs
    n >= 2 for the bound to exist."""
    return CertifiedValue(eisenstein_legendre(n, w, m_max, precision_bits), n, w, precision_bits)


def certified_chebyshev(n: int, w, m_max: int = 16, precision_bits: int = 256) -> CertifiedValue:
    """eisenstein_chebyshev with its truncation certificate (r = 2n)."""
    return CertifiedValue(eisenstein_chebyshev(n, w, m_max, precision_bits), 2 * n, w, precision_bits)
