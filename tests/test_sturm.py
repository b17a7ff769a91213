"""Root certification tests against hand-solved small cases."""

from fractions import Fraction

import mpmath as mp
import pytest

from lslab.sturm import (
    certify_roots,
    count_roots,
    refine_roots,
    sign_at,
    sturm_chain,
)


class TestChainBasics:
    def test_known_cubic(self):
        # (s+1)(s+2)(s+3) = s^3 + 6 s^2 + 11 s + 6
        p = (6, 11, 6, 1)
        chain = sturm_chain(p)
        assert count_roots(chain, Fraction(-4), Fraction(0)) == 3
        assert count_roots(chain, Fraction(-5, 2), Fraction(0)) == 2
        assert count_roots(chain, Fraction(-4), Fraction(-5, 2)) == 1

    def test_sign_at(self):
        p = (-1, 0, 4)  # 4x^2 - 1
        assert sign_at(p, Fraction(1, 2)) == 0
        assert sign_at(p, Fraction(1, 3)) == -1
        assert sign_at(p, Fraction(2, 3)) == 1

    def test_squarefree_detection(self):
        # (s+1)^2 ends with a linear gcd, not a constant
        chain = sturm_chain((1, 2, 1))
        assert len(chain[-1]) == 2


class TestCertificates:
    def test_n1(self):
        cert = certify_roots(1)
        assert cert.intervals == ()
        assert cert.sign_at_quarter == -1

    def test_n2_contains_minus_sixth(self):
        cert = certify_roots(2)
        assert len(cert.intervals) == 1
        lo, hi = cert.intervals[0]
        assert lo < Fraction(-1, 6) < hi
        assert cert.sign_at_quarter == 1

    def test_n3_two_intervals(self):
        cert = certify_roots(3)
        assert len(cert.intervals) == 2
        # quadratic cofactor roots: (-24 +- sqrt(216))/180
        lo_root = Fraction(-215, 1000)
        hi_root = Fraction(-517, 10000)
        assert cert.intervals[0][0] < lo_root < cert.intervals[0][1]
        assert cert.intervals[1][0] < hi_root < cert.intervals[1][1]

    def test_shape_up_to_12(self):
        for n in range(1, 13):
            cert = certify_roots(n)
            assert len(cert.intervals) == n - 1
            assert cert.sign_at_quarter == (-1) ** n
            prev_hi = Fraction(-1, 4)
            for lo, hi in cert.intervals:
                assert Fraction(-1, 4) <= lo < hi <= 0
                assert lo >= prev_hi or lo == prev_hi
                prev_hi = hi

    def test_json_shape(self, capsys):
        import json

        from lslab.cli import main

        assert main(["roots", "--n", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 3
        assert payload["sign_at_quarter"] == -1
        assert len(payload["intervals"]) == 2
        assert all(
            "/" in endpoint for pair in payload["intervals"] for endpoint in pair
        )


class TestRefinement:
    def test_n1_empty(self):
        assert refine_roots(certify_roots(1), 64) == []

    def test_n2_exact_value(self):
        (root,) = refine_roots(certify_roots(2), 64)
        with mp.workprec(90):
            assert abs(root - mp.mpf(-1) / 6) < mp.mpf(2) ** -60

    def test_n3_vieta(self):
        roots = refine_roots(certify_roots(3), 64)
        with mp.workprec(90):
            assert abs(sum(roots) - mp.mpf(-24) / 90) < mp.mpf(2) ** -60
            assert abs(roots[0] * roots[1] - mp.mpf(8) / 720) < mp.mpf(2) ** -60

    def test_precision_scales(self):
        from lslab.genpoly import legendre_genpoly_recurrence

        cert = certify_roots(5)
        p = list(legendre_genpoly_recurrence(5))[5]
        for bits in (64, 128):
            roots = refine_roots(cert, bits)
            with mp.workprec(bits + 32):
                for r in roots:
                    # |p(root)| should be tiny relative to the local scale
                    value = sum(c * r**j for j, c in enumerate(p))
                    assert abs(value) < mp.mpf(2) ** (-bits // 2)

    def test_deterministic(self):
        cert = certify_roots(7)
        assert refine_roots(cert, 100) == refine_roots(cert, 100)


class TestValidation:
    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            certify_roots(0)
