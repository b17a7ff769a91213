"""Generating polynomial tests against hand-expanded references."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lslab import genpoly
from lslab.clt import centering_scaling
from lslab.edgeworth import exact_cumulants
from lslab.errors import UnimodalityError
from lslab.genpoly import legendre_genpoly_recurrence, unimodality_report
from lslab.triangles import (
    CHEBYSHEV, legendre_from_chebyshev, modified_legendre_row, scale_row, triangle_row
)
from math import factorial


def connection_genpoly(n):
    """Legendre generating polynomial from the scaled connection row."""
    return scale_row(legendre_from_chebyshev(n))


def chebyshev_genpoly(n):
    """Generating polynomial of the scaled gamma = 1/2 row."""
    return scale_row(triangle_row(CHEBYSHEV, n))


def plus(*polys):
    """Sum of ascending coefficient lists, trailing zeros dropped."""
    out = [0] * max(map(len, polys))
    for p in polys:
        for i, c in enumerate(p):
            out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def times(p, q):
    return plus(*([0] * i + [a * c for c in q] for i, a in enumerate(p)))


def deriv(p):
    return [i * c for i, c in enumerate(p)][1:] or [0]


def factored_step(f):
    """s((4s+1)D + 2) D s f, one first-order step after the other."""
    g = deriv(times([0, 1], f))  # D s f = (sf)'
    return times([0, 1], plus(times([1, 4], deriv(g)), times([2], g)))


class TestRecurrencePolynomials:
    def test_printed_values(self):
        assert list(legendre_genpoly_recurrence(0)) == [(1,)]
        assert list(legendre_genpoly_recurrence(3)) == [(1,), (0, 2), (0, 4, 24), (0, 8, 192, 720)]

    def test_matches_triangle_path(self):
        rows = list(legendre_genpoly_recurrence(39))
        assert len(rows) == 40
        for n, row in enumerate(rows):
            assert row == modified_legendre_row(n)

    def test_row4_coefficients(self):
        assert modified_legendre_row(4) == (0, 16, 1248, 14400, 40320)

    @settings(max_examples=100, deadline=None)
    @given(
        f=st.lists(st.integers(min_value=-(10**20), max_value=10**20), min_size=1, max_size=12),
        i=st.integers(min_value=0, max_value=60),
        n=st.integers(min_value=1, max_value=30),
    )
    def test_recurrence_factors_into_first_order_steps(self, f, i, n):
        """The Rolle argument of the `sturm` docstring rests on this
        factorisation of the recurrence's step into first-order ones.  The
        hand-expanded second-order step s(2f + (10s + 2)f' + s(4s + 1)f'')
        is the test-local reference for the factored operator."""
        step = times([0, 1], plus(times([2], f), times([2, 10], deriv(f)),
                                  times([0, 1, 4], deriv(deriv(f)))))
        assert factored_step(f) == step
        assert factored_step([0] * i + [1]) == [0] * i + [i * (i + 1), 2 * (i + 1) * (2 * i + 1)]
        *_, before, row = legendre_genpoly_recurrence(n)
        assert factored_step(list(before)) == list(row)

    def test_shape_invariants(self):
        for n in range(1, 41):
            p = modified_legendre_row(n)
            assert len(p) == n + 1
            assert p[0] == 0
            assert p[-1] == factorial(2 * n)
            assert p[1] == 2**n
            assert all(c > 0 for c in p[1:])


class TestChebyshevPolynomials:
    def test_small_rows(self):
        assert chebyshev_genpoly(1) == (0, 2)
        assert chebyshev_genpoly(2) == (0, 2, 24)
        assert chebyshev_genpoly(3) == (0, 2, 120, 720)


class TestConnectionPolynomials:
    def test_examples(self):
        rows = list(legendre_genpoly_recurrence(3))
        assert connection_genpoly(3) == rows[3]
        assert connection_genpoly(0) == (1,)
        assert connection_genpoly(2) == rows[2]

    def test_range(self):
        for n in range(20):
            assert connection_genpoly(n) == modified_legendre_row(n)


class TestDerivatives:
    @staticmethod
    def mean_variance(total, d1, d2):
        # from the derivative sums (p(1), p'(1), p''(1))
        mean = Fraction(d1, total)
        return [mean, Fraction(d2, total) + mean - mean * mean]

    def test_examples(self):
        # the exact cumulants carry the derivative sums at 1
        rows = list(legendre_genpoly_recurrence(3))
        assert exact_cumulants(rows[2], 2) == self.mean_variance(28, 52, 48)
        assert exact_cumulants(rows[1], 2) == self.mean_variance(2, 2, 0)
        # from the printed cubic 720 s^3 + 192 s^2 + 8 s
        assert exact_cumulants(rows[3], 2) == self.mean_variance(920, 2552, 4704)


def scaled_scan(row):
    """The reference scan: the same peak-or-plateau shape, read on the
    scaled row c_j itself."""
    n = len(row) - 1
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


class TestUnimodality:
    def test_same_mode_as_scaled_scan(self):
        for n in range(3, 301):
            assert unimodality_report(n) == scaled_scan(modified_legendre_row(n)), n

    @settings(max_examples=200, deadline=None)
    @given(c=st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=10))
    def test_same_verdict_as_scaled_scan_on_any_row(self, c):
        """Plateaus, ties and late rises included: the scan of the
        unscaled row T_j = c_j/(2j)! gives the reference scan's mode or its
        error text."""
        n = len(c) - 1
        unscaled = tuple(Fraction(v, factorial(2 * j)) for j, v in enumerate(c))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(genpoly, "triangle_row", lambda gamma, m: unscaled)
            try:
                expected = scaled_scan(c)
            except UnimodalityError as exc:
                with pytest.raises(UnimodalityError) as got:
                    unimodality_report(n)
                assert str(got.value) == str(exc)
            else:
                assert unimodality_report(n) == expected

    def test_examples(self):
        assert unimodality_report(4) == 4
        assert unimodality_report(3) == 3

    def test_peak_tracks_center(self):
        for n in (50, 100):
            mode = unimodality_report(n)
            center = float(centering_scaling(n, 64).center)
            assert abs(mode - center) <= 3

    def test_requires_n_at_least_3(self):
        with pytest.raises(ValueError):
            unimodality_report(2)
