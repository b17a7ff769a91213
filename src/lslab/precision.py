"""Working-precision conversion and printed digit counts."""

from fractions import Fraction

import mpmath as mp

# Largest working precision, for --precision-bits and root refinement.
# On a 2-vCPU Xeon VM with CPython 3.11.7 row 200 (the roots cap) refines in
# 1.1 s to 256 bits, 4.3 s to 1024, 11 s to 2048; its certificate takes 5.4 s.
MAX_BITS = 2048


def to_mpf(x) -> mp.mpf:
    """x at working precision.  A Fraction is its rounded numerator over
    its denominator; mpmath 1.3 does not take a Fraction itself."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def print_digits(bits: int) -> int:
    """Significant digits printed for a value carried at `bits` bits."""
    return max(8, int(bits * 0.301))
