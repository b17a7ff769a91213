"""Root certification tests against hand-solved small cases, and the
Descartes isolation and seeded refinement against the Sturm isolation and
plain bisection they replace."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lslab import sturm
from lslab.errors import CertificationError, ResourceLimitError
from lslab.precision import to_mpf
from lslab.sturm import (
    certify_roots,
    count_roots,
    refine_roots,
    sign_at,
    sturm_chain,
)
from lslab.triangles import modified_legendre_row

QUARTER, ZERO = Fraction(-1, 4), Fraction(0)


def bisection_midpoints(cert, bits):
    """The refinement by plain exact bisection, as refine_roots gave it
    before the Newton seed."""
    q = modified_legendre_row(cert.n)[1:]
    eps = Fraction(1, 2**bits)
    out = []
    with mp.workprec(bits + 16):
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
            out.append(to_mpf((lo + hi) / 2))
    return out


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

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.lists(st.integers(min_value=-(10**30), max_value=10**30), min_size=1, max_size=12),
        num=st.integers(min_value=-(10**12), max_value=10**12),
        e=st.integers(min_value=0, max_value=80),
        den=st.integers(min_value=1, max_value=10**6),
    )
    def test_sign_at_matches_exact_value(self, p, num, e, den):
        # dyadic points 0, integers and negatives included, then any rational
        for x in (Fraction(num, 2**e), Fraction(num, den)):
            value = sum(c * x**i for i, c in enumerate(p))
            assert sign_at(tuple(p), x) == (value > 0) - (value < 0)

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

    @pytest.mark.parametrize(
        "n,bits", [(5, 256), (10, 256), (12, 256), (20, 256), (50, 256), (55, 252), (55, 260)]
    )
    def test_newton_bracket_accepted(self, n, bits, monkeypatch):
        def no_bisect(*args):
            raise AssertionError("fell back to bisection")

        cert = certify_roots(n)
        monkeypatch.setattr(sturm, "_bisect", no_bisect)
        assert len(refine_roots(cert, bits)) == n - 1

    def test_no_mpmath_polyval(self, monkeypatch):
        def no_polyval(*args, **kwargs):
            raise AssertionError("mp.polyval called")

        cert = certify_roots(20)
        monkeypatch.setattr(mp, "polyval", no_polyval)
        refine_roots(cert, 256)


class TestValidation:
    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            certify_roots(0)

    def test_cap(self, monkeypatch):
        def no_row(n):
            raise AssertionError("row built past the cap")

        monkeypatch.setattr(sturm, "modified_legendre_row", no_row)
        with pytest.raises(ResourceLimitError):
            certify_roots(sturm.ROOTS_MAX_N + 1)

    def test_refine_bits_cap(self, monkeypatch, capsys):
        from lslab.cli import main

        def no_row(n):
            raise AssertionError("row built past the cap")

        monkeypatch.setattr(sturm, "modified_legendre_row", no_row)
        bits = str(sturm.REFINE_MAX_BITS + 1)
        assert main(["roots", "--n", "5", "--refine-bits", bits]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "resource limit" in err


class TestDescartes:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=1, max_value=30), bits=st.sampled_from([64, 70, 128, 256, 300]))
    def test_matches_sturm_and_bisection(self, n, bits):
        cert = certify_roots(n)
        q = modified_legendre_row(n)[1:]
        assert list(cert.intervals) == sturm.sturm_intervals(q, QUARTER, ZERO)
        assert [r._mpf_ for r in refine_roots(cert, bits)] == [
            r._mpf_ for r in bisection_midpoints(cert, bits)
        ]

    def test_verify_roots_cross_checks_sturm(self, monkeypatch):
        from lslab import verify

        real = sturm.sturm_intervals

        def drop_last_at_n8(q, lo, hi):
            intervals = real(q, lo, hi)
            return intervals[:-1] if len(q) == 8 else intervals

        monkeypatch.setattr(sturm, "sturm_intervals", drop_last_at_n8)
        results = verify.suite_roots(verify.SuiteConfig())
        (line,) = [r for r in results if r.name == "root certificates 1<=n<=30"]
        assert not line.passed
        assert line.detail == "Descartes and Sturm intervals differ at n=8"

    def test_no_sturm_chain_in_production(self, monkeypatch):
        def no_chain(p):
            raise AssertionError("Sturm chain built")

        monkeypatch.setattr(sturm, "sturm_chain", no_chain)
        for n in (2, 12, 40):
            refine_roots(certify_roots(n), 64)

    def test_midpoint_root_falls_back_to_sturm(self, monkeypatch):
        # (8s + 1)(16s + 1): the first split of (-1/4, 0) is at -1/8, a root
        q = (1, 24, 128)
        assert sturm.descartes_intervals(q, QUARTER, ZERO) is None
        calls = []
        real_chain = sturm.sturm_chain
        monkeypatch.setattr(sturm, "sturm_chain", lambda p: calls.append(p) or real_chain(p))
        intervals = sturm.isolate_roots(q, QUARTER, ZERO)
        assert calls == [q]
        assert intervals == [
            (Fraction(-1, 6), Fraction(-1, 12)),
            (Fraction(-1, 12), Fraction(0)),
        ]

    def test_repeated_root_falls_back_to_sturm(self):
        # (12s + 1)^2: bisection towards -1/12 never ends, so the depth cap
        # hands over to Sturm, whose chain finds the repeated factor
        q = (1, 24, 144)
        assert sturm.descartes_intervals(q, QUARTER, ZERO) is None
        with pytest.raises(CertificationError) as exc:
            sturm.isolate_roots(q, QUARTER, ZERO)
        assert exc.value.clause == "simple-roots"

    def test_complex_pair_fails_root_count(self):
        # (10s + 1)(100 s^2 + 20 s + 2): one real root, and -1/10 +- i/10
        q = (2, 40, 300, 1000)
        assert sturm.descartes_intervals(q, QUARTER, ZERO) == [(Fraction(-1, 8), ZERO)]
        with pytest.raises(CertificationError) as exc:
            sturm.isolate_roots(q, QUARTER, ZERO)
        assert exc.value.clause == "root-count"

    def test_wrong_newton_seed_falls_back_to_bisection(self, monkeypatch):
        cert = certify_roots(8)
        expected = [r._mpf_ for r in bisection_midpoints(cert, 128)]
        fallbacks = []
        real_bisect = sturm._bisect
        monkeypatch.setattr(sturm, "_newton", lambda coeffs, p, lo, hi, s_lo, tol: lo)
        monkeypatch.setattr(
            sturm, "_bisect", lambda *args: fallbacks.append(args) or real_bisect(*args)
        )
        assert [r._mpf_ for r in refine_roots(cert, 128)] == expected
        assert len(fallbacks) == len(cert.intervals)
