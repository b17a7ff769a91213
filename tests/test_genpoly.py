"""Generating polynomial tests against hand-expanded references."""

from fractions import Fraction

import pytest

from lslab.genpoly import (
    IntPolynomial,
    chebyshev_genpoly,
    derivatives_at_one,
    legendre_genpoly_fast,
    legendre_genpoly_recurrence,
    unimodality_report,
)
from lslab.clt import centering_scaling
from lslab.triangles import legendre_from_chebyshev, scale_row
from math import factorial


def connection_genpoly(n):
    """Legendre generating polynomial from the scaled connection row."""
    return IntPolynomial(scale_row(legendre_from_chebyshev(n)))


class TestIntPolynomial:
    def test_strip_and_degree(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPolynomial([]).degree == -1
        assert IntPolynomial([0]).degree == -1

    def test_eval(self):
        p = IntPolynomial([1, -3, 2])  # 2x^2 - 3x + 1
        assert p(2) == 3
        assert p(Fraction(1, 2)) == 0

    def test_derivative(self):
        assert IntPolynomial([5, 1, 4]).derivative().coeffs == (1, 8)

    def test_immutable(self):
        p = IntPolynomial([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = (3,)


class TestRecurrencePolynomials:
    def test_printed_values(self):
        assert legendre_genpoly_recurrence(0).coeffs == (1,)
        assert legendre_genpoly_recurrence(1).coeffs == (0, 2)
        assert legendre_genpoly_recurrence(2).coeffs == (0, 4, 24)
        assert legendre_genpoly_recurrence(3).coeffs == (0, 8, 192, 720)

    def test_matches_triangle_path(self):
        for n in range(40):
            assert legendre_genpoly_recurrence(n) == legendre_genpoly_fast(n)

    def test_row4_coefficients(self):
        assert legendre_genpoly_fast(4).coeffs == (0, 16, 1248, 14400, 40320)

    def test_shape_invariants(self):
        for n in range(1, 41):
            p = legendre_genpoly_fast(n)
            assert p.degree == n
            assert p.coeffs[0] == 0
            assert p.coeffs[-1] == factorial(2 * n)
            assert p.coeffs[1] == 2**n
            assert all(c > 0 for c in p.coeffs[1:])


class TestChebyshevPolynomials:
    def test_small_rows(self):
        assert chebyshev_genpoly(1).coeffs == (0, 2)
        assert chebyshev_genpoly(2).coeffs == (0, 2, 24)
        assert chebyshev_genpoly(3).coeffs == (0, 2, 120, 720)


class TestConnectionPolynomials:
    def test_examples(self):
        assert connection_genpoly(3) == legendre_genpoly_recurrence(3)
        assert connection_genpoly(0) == IntPolynomial([1])
        assert connection_genpoly(2) == legendre_genpoly_recurrence(2)

    def test_range(self):
        for n in range(20):
            assert connection_genpoly(n) == legendre_genpoly_fast(n)


class TestDerivatives:
    def test_examples(self):
        assert derivatives_at_one(legendre_genpoly_recurrence(2)) == (28, 52, 48)
        assert derivatives_at_one(legendre_genpoly_recurrence(1)) == (2, 2, 0)
        # from the printed cubic 720 s^3 + 192 s^2 + 8 s
        assert derivatives_at_one(legendre_genpoly_recurrence(3)) == (920, 2552, 4704)


class TestUnimodality:
    def test_examples(self):
        assert unimodality_report(4).peak_index == 4
        assert unimodality_report(3).peak_index == 3

    def test_peak_tracks_center(self):
        for n in (50, 100):
            report = unimodality_report(n)
            center = float(centering_scaling(n, 64).center)
            assert abs(report.mode - center) <= 3

    def test_requires_n_at_least_3(self):
        with pytest.raises(ValueError):
            unimodality_report(2)
