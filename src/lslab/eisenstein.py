"""Lattice-sum representations of the generating polynomial values.

For w > 0 and g(w) = 1/(2 (cosh w - 1)) the Chebyshev-side polynomials
satisfy

    L_n(g(w)) = (2n)! * (2 (cosh w - 1)/sinh w)
                * sum_{m in Z} (w + 2 pi i m)^(-(2n+1)),

and the Legendre-side ones

    M_n(g(w)) = ((cosh w - 1)/sinh w) * sum_{m in Z} J(n, n; w + 2 pi i m)

with J the exact closed-form integral from the laplace module.  Sums are
truncated at |m| <= m_max; both are real, and (cosh w - 1)/sinh w =
tanh(w/2).  Each is tanh(w/2) sum_k c_k Re sum_m z_m^(-e_k), z_m = w +
2 pi i m, for a term list (c_k, e_k) of positive integers: that of
J(n, n; z) for M_n, and the one term (2 (2n)!, 2n + 1) for L_n.

One kernel serves a list of rows at one w.  w is rounded to bits + 32
(bits = precision_bits) and the sum is that of the rounded w.  With
P = bits + 32 + g, g = ceil(e_max log2 max(1, w)) + bitlen(e_max) +
bitlen(2 m_max + 1) + 8 and e_max the largest e_k of the call, it builds
one integer table R_e ~ 2^P Re sum_{|m| <= m_max} z_m^(-e), e =
1..e_max.  1/z_m is computed once per point m = 0..m_max in mpmath at
P + 16 and truncated to a Gaussian integer; each further power is one
integer complex multiply and a floor shift by P, and the real part is
added once for m = 0 and twice for m > 0, the point -m being the
conjugate of m.  A row is the integer dot product sum_k c_k R_{e_k},
rounded once at P and multiplied by tanh(w/2) 2^-P.  In units of
2^-P (ulps):
- For m >= 1, |1/z_m| <= 1/(2 pi) < 1/6, and the Gaussian integer is
  within 1.5 ulps of 2^P/z_m (sqrt 2 from truncation).  The k-th
  power's error is at most err_(k-1)/6 + 1.5/6^(k-1) + sqrt 2, which
  stays below 2, so each pair adds at most 4 ulps to every R_e.
- For m = 0, 1/w is real.  If w >= 1 each power adds at most about 2
  ulps; if w < 1 each adds a relative 2.02 2^-P.  Either way the m = 0
  part of R_e is within 3e max(1, w^-e) ulps.
- The c_k are positive and max(1, w^-e) <= max(1, w)^e_max w^-e, so
  the dot product is within (3 e_max + 4 m_max) max(1, w)^e_max ulps of
  2^P J, with J = sum_k c_k w^-e_k; by the choice of g that is at most
  2^-(bits+38) J.  |z_m| >= w, so |R_e| is at most (2 m_max + 1) 2^P
  w^-e, and rounding the dot product at P, tanh at P and the product
  add less again.
So before the final rounding the value is within 2^-(bits+32) h of the
truncated sum, h = tanh(w/2) J being its m = 0 term, and rounding to
nearest at bits adds half an ulp of the value.

Every truncated sum can be certified by the proof-grade estimate

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
from functools import cached_property
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
    PrecisionError; the loop ends either way."""
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


def _power_table(wv, e_max: int, m_max: int, shift: int) -> list[int]:
    """R[e] ~ 2^shift Re sum_{|m| <= m_max} (wv + 2 pi i m)^-e for
    e = 1..e_max (R[0] = 0), within the ulps of the module docstring."""
    table = [0] * (e_max + 1)
    with mp.workprec(shift + 16):
        for m in range(m_max + 1):
            u = 1 / mp.mpc(wv, 2 * mp.pi * m)
            a, b = int(mp.ldexp(u.real, shift)), int(mp.ldexp(u.imag, shift))
            weight = 2 if m else 1  # the point -m is the conjugate of m
            x, y = 1 << shift, 0
            for e in range(1, e_max + 1):
                x, y = (x * a - y * b) >> shift, (x * b + y * a) >> shift
                table[e] += weight * x
    return table


def _lattice_values(rows: list, w, m_max: int, precision_bits: int) -> list[mp.mpf]:
    """tanh(w/2) sum_k c_k Re sum_{|m| <= m_max} (w + 2 pi i m)^-e_k for
    each term list [(c_k, e_k), ...] in rows, all from one power table."""
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    with mp.workprec(precision_bits + 32):
        wv = mp.mpf(w)
        if wv <= 0:
            raise ValueError("w must be positive")
        e_max = max((e for terms in rows for _, e in terms), default=1)
        guard = (ceil(e_max * float(mp.log(max(wv, 1), 2))) + e_max.bit_length()
                 + (2 * m_max + 1).bit_length() + 8)
    shift = precision_bits + 32 + guard
    table = _power_table(wv, e_max, m_max, shift)
    with mp.workprec(shift):
        scale = mp.ldexp(mp.tanh(wv / 2), -shift)
        values = [scale * sum(c * table[e] for c, e in terms) for terms in rows]
    with mp.workprec(precision_bits):
        return [+v for v in values]


def _rows(ns) -> list[int]:
    ns = list(ns)
    if any(n < 1 for n in ns):
        raise ValueError("requires n >= 1")
    return ns


def eisenstein_chebyshev(ns, w, m_max: int, precision_bits: int = 256) -> list[mp.mpf]:
    """Truncated lattice sums approximating L_n(g(w)), one per n in ns:
    the one term 2 (2n)! z^-(2n+1)."""
    rows = [((2 * factorial(2 * n), 2 * n + 1),) for n in _rows(ns)]
    return _lattice_values(rows, w, m_max, precision_bits)


def eisenstein_legendre(ns, w, m_max: int, precision_bits: int = 256) -> list[mp.mpf]:
    """Truncated lattice sums approximating M_n(g(w)), one per n in ns,
    via the closed-form term lists of J(n, n; z)."""
    rows = [laplace_closed_form(n, n) for n in _rows(ns)]
    return _lattice_values(rows, w, m_max, precision_bits)


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


def certified_legendre(ns, w, m_max: int = 16, precision_bits: int = 256) -> list[CertifiedValue]:
    """eisenstein_legendre with one truncation certificate per n (r = n);
    needs every n >= 2 for the bound to exist."""
    ns = list(ns)
    values = eisenstein_legendre(ns, w, m_max, precision_bits)
    return [CertifiedValue(v, n, w, precision_bits) for n, v in zip(ns, values)]


def certified_chebyshev(ns, w, m_max: int = 16, precision_bits: int = 256) -> list[CertifiedValue]:
    """eisenstein_chebyshev with one truncation certificate per n (r = 2n)."""
    ns = list(ns)
    values = eisenstein_chebyshev(ns, w, m_max, precision_bits)
    return [CertifiedValue(v, 2 * n, w, precision_bits) for n, v in zip(ns, values)]
