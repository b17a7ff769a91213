"""Closed-form integral tests, including a quadrature cross-check."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lslab.cli import main
from lslab.laplace import (
    derivative_identity_holds,
    eval_terms,
    laplace_closed_form,
    normalized_value,
    saddle_coefficients,
    saddle_expansion_check,
)


class TestClosedForm:
    def test_tiny_cases(self):
        assert laplace_closed_form(0, 0) == ((2, 1),)
        assert laplace_closed_form(1, 1) == ((4, 3),)
        assert laplace_closed_form(2, 2) == ((48, 5), (4, 3))

    def test_eval_against_quadrature(self):
        # independent oracle: direct numerical integration
        with mp.workprec(80):
            for r, n, z in [(0, 0, mp.mpf(2)), (2, 3, mp.mpf("1.7")), (4, 2, mp.mpf("0.8"))]:
                closed = eval_terms(laplace_closed_form(r, n), z)
                quad = mp.quad(
                    lambda x: mp.e ** (-x * z) * x**r * ((x + 1) ** n + (x - 1) ** n),
                    [0, mp.inf],
                )
                assert abs(closed - quad) < abs(closed) * mp.mpf(2) ** -60

    def test_positivity(self):
        with mp.workprec(64):
            for r in range(0, 30, 7):
                for n in range(0, 30, 7):
                    for z in (mp.mpf("0.3"), mp.mpf(1), mp.mpf(5)):
                        assert eval_terms(laplace_closed_form(r, n), z) > 0

    def test_complex_evaluation(self):
        with mp.workprec(64):
            z = mp.mpc(1, 3)
            val = eval_terms(laplace_closed_form(2, 2), z)
            assert abs(val - (48 / z**5 + 4 / z**3)) < mp.mpf(2) ** -50

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            laplace_closed_form(-1, 0)


def converted_once_eval(terms, z):
    """Oracle: the evaluator as it was while term lists were objects,
    each int coefficient converted to an exact mpf once per list and the
    mpfs added in Horner's scheme."""
    coefficients = tuple(mp.convert(c) for c, _ in terms)
    inv2 = 1 / (z * z)
    acc = 0
    for c in coefficients:
        acc = acc * inv2 + c
    return acc / z ** terms[-1][1]


class TestEvalTermsBits:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=60),
        nu=st.integers(min_value=0, max_value=2),
        bits=st.sampled_from([64, 256, 1024]),
        m=st.integers(min_value=-16, max_value=16),
        x=st.sampled_from(["1/3", "0.9624236501192069", "2", "7.5"]),
        complex_z=st.booleans(),
    )
    @example(n=60, nu=0, bits=1024, m=16, x="1/3", complex_z=True)
    @example(n=60, nu=2, bits=64, m=0, x="7.5", complex_z=False)
    def test_equals_converted_once_horner(self, n, nu, bits, m, x, complex_z):
        """eval_terms adds the ints themselves; the value is bit for bit
        (== on both parts) the sum of the once-converted mpfs."""
        terms = laplace_closed_form(n + nu, n)
        with mp.workprec(bits):
            re = mp.mpf(Fraction(x).numerator) / Fraction(x).denominator
            z = mp.mpc(re, 2 * mp.pi * m) if complex_z else re
            ours, oracle = eval_terms(terms, z), converted_once_eval(terms, z)
            assert type(ours) is type(oracle)
            assert mp.re(ours) == mp.re(oracle) and mp.im(ours) == mp.im(oracle)


class TestDerivativeIdentity:
    @pytest.mark.parametrize("r,n,order", [(0, 0, 1), (2, 2, 1), (1, 3, 2)])
    def test_examples(self, r, n, order):
        assert derivative_identity_holds(r, n, order)

    def test_sweep(self):
        assert all(
            derivative_identity_holds(r, n, order)
            for r in range(6)
            for n in range(6)
            for order in (1, 2, 3)
        )


class TestSaddle:
    def test_leading_at_saddle_constant(self):
        from lslab.clt import saddle_constant

        w = saddle_constant(128)
        sc = saddle_coefficients(0, w, 128)
        with mp.workprec(128):
            assert abs(sc.leading - mp.sqrt(5) / 2) < mp.mpf(2) ** -120

    def test_correction_nu0_form(self):
        with mp.workprec(96):
            z = mp.mpf("1.3")
            sc = saddle_coefficients(0, z, 96)
            direct = -(z * z / 2 + 1) * mp.cosh(z / 2) / 8
            assert abs(sc.correction - direct) < mp.mpf(2) ** -80

    def test_correction_nu1_z2(self):
        with mp.workprec(96):
            sc = saddle_coefficients(1, mp.mpf(2), 96)
            direct = -(
                mp.mpf(2) * mp.cosh(1) + 4 * mp.sinh(1) + 5 * mp.cosh(1)
            ) / 8
            assert abs(sc.correction - direct) < mp.mpf(2) ** -80

    def test_normalized_value_tends_to_leading(self):
        from lslab.clt import saddle_constant

        w = saddle_constant(256)
        with mp.workprec(256):
            q = normalized_value(0, w, 400, 256)
            assert abs(q - mp.sqrt(5) / 2) < mp.mpf("0.001")

    @settings(max_examples=40, deadline=None)
    @given(
        nu=st.integers(min_value=0, max_value=3),
        z=st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=64),
        n=st.integers(min_value=1, max_value=400),
    )
    def test_single_evaluation_is_stable(self, nu, z, n):
        # every term of J(n+nu, n; z) is positive for real z > 0, so one
        # evaluation with guard bits agrees with a 1024-bit one to 2^-128
        with mp.workprec(1100):
            zz = mp.mpf(z.numerator) / z.denominator
        q = normalized_value(nu, zz, n, 256)
        q_hi = normalized_value(nu, zz, n, 976)
        with mp.workprec(1100):
            assert abs(q - q_hi) <= abs(q_hi) * mp.mpf(2) ** -128

    def test_expansion_report(self):
        from lslab.clt import saddle_constant

        w = saddle_constant(256)
        res = [abs(row[4]) for row in saddle_expansion_check(0, w, [100, 200, 400], 256)]
        assert res[0] > res[1] > res[2]
        final_rel = res[-1] / abs(saddle_coefficients(0, w, 256).correction)
        assert float(final_rel) < 0.05

    def test_second_order_halving(self):
        rows = saddle_expansion_check(2, mp.mpf(1), [100, 200], 256)
        ratio = abs(rows[1][4]) / abs(rows[0][4])
        assert 0.35 < float(ratio) < 0.65

    def test_csv_shape(self, capsys):
        argv = ["asymptotics", "--report", "saddle", "--nu", "1", "--z", "2",
                "--n-list", "50,100", "--precision-bits", "128"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,Q,Q_minus_b,n_times_Q_minus_b,residual,tail_bound"
        assert len(lines) == 3

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            saddle_expansion_check(0, mp.mpf(1), [200, 100], 128)
