"""Working-precision conversion and printed digit counts."""

from fractions import Fraction

import mpmath as mp

def to_mpf(x) -> mp.mpf:
    """x at working precision.  A Fraction is its rounded numerator over
    its denominator; mpmath 1.3 does not take a Fraction itself."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def print_digits(bits: int) -> int:
    """Significant digits printed for a value carried at `bits` bits."""
    return max(8, int(bits * 0.301))
