"""Root certification tests against hand-solved small cases; the
Descartes isolation against the interlacing chain's bisection tree, the
seeded refinement against plain bisection, and one failure test per
certificate clause on a named polynomial."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lslab import sturm
from lslab.errors import CertificationError, ResourceLimitError
from lslab.precision import to_mpf
from lslab.sturm import certify_roots, refine_roots, sign_at, separators, tree_intervals
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


def interlacing_intervals(n_max):
    """n -> the bisection tree rebuilt on the separators of row n."""
    return {
        n: tree_intervals(modified_legendre_row(n)[1:], points, signs)
        for n, points, signs in separators(n_max)
    }


def variations(values):
    """Sign changes along a sequence, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def fixed_point_coeffs(q, p):
    """The descending coefficients, shifted left by p, that refine_roots
    hands to `_newton` and `_certified_sign`."""
    return [c << p for c in reversed(q)]


class TestChainBasics:
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


class TestCappedCount:
    @settings(max_examples=300, deadline=None)
    @given(
        a=st.one_of(
            st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=14),
            st.lists(st.integers(min_value=-3, max_value=3), max_size=14),  # many zeros
            st.lists(st.integers(min_value=0, max_value=10**9), max_size=14),  # one sign
            st.lists(st.integers(min_value=-(10**9), max_value=0), max_size=14),
        )
    )
    def test_equals_capped_variations_of_full_shift(self, a):
        assert sturm._capped_count(list(a)) == min(variations(sturm._shift_one(list(a))), 2)

    def test_one_sign_runs_no_shift(self):
        a = [0, 3, 0, 0, 5, 1]
        assert sturm._capped_count(a) == 0
        assert a == [0, 3, 0, 0, 5, 1]


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

    def test_newton_sign_at_lo_is_derived(self, monkeypatch):
        """Newton's sign at each lower end comes from the certificate's
        sign at -1/4 and the alternation, and agrees with the exact sign
        test it replaced; the output stays that of plain bisection."""
        seen = []
        real_newton = sturm._newton

        def spy(coeffs, p, a, b, s_lo, tol):
            seen.append(s_lo)
            return real_newton(coeffs, p, a, b, s_lo, tol)

        monkeypatch.setattr(sturm, "_newton", spy)
        for n in range(2, 61):
            cert = certify_roots(n)
            q = modified_legendre_row(n)[1:]
            seen.clear()
            roots = refine_roots(cert, 64)
            assert seen == [sign_at(q, lo) for lo, _ in cert.intervals]
            if n in (2, 17, 60):
                assert [r._mpf_ for r in roots] == [
                    r._mpf_ for r in bisection_midpoints(cert, 64)
                ]

    def test_no_mpmath_polyval(self, monkeypatch):
        def no_polyval(*args, **kwargs):
            raise AssertionError("mp.polyval called")

        cert = certify_roots(20)
        monkeypatch.setattr(mp, "polyval", no_polyval)
        refine_roots(cert, 256)


def with_dyadic_roots(ks, e, lead):
    """lead * prod (2^e s + k), ascending: roots -k/2^e."""
    q = [lead]
    for k in ks:
        q = [k * a + (b << e) for a, b in zip(q + [0], [0] + q)]
    return tuple(q)


class TestCertifiedSign:
    @settings(max_examples=200, deadline=None)
    @given(
        e=st.integers(min_value=2, max_value=24),
        ks=st.lists(st.integers(min_value=0, max_value=2**22), min_size=1, max_size=6),
        lead=st.sampled_from([1, -1, 3, -7]),
        p=st.integers(min_value=8, max_value=120),
        extra=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**40), st.integers(min_value=0, max_value=140)
            ),
            max_size=4,
        ),
    )
    def test_equals_sign_at_on_dyadic_points(self, e, ks, lead, p, extra):
        """q has the chosen dyadic roots -k/2^e in [-1/4, 0], repeats
        allowed.  At a root |F| < 4/3 sends the test to the exact
        fallback; one unit of 2^-p from a root it goes there whenever
        |F| < 2; the other points have denominators up to 2^140, past
        2^p too."""
        ks = [k % (2 ** (e - 2) + 1) for k in ks]
        q = with_dyadic_roots(ks, e, lead)
        roots = [Fraction(-k, 2**e) for k in ks]
        unit = Fraction(1, 2**p)
        points = {QUARTER, ZERO, *roots, *(r - unit for r in roots), *(r + unit for r in roots)}
        points |= {Fraction(-num, 2**k) for num, k in extra}
        coeffs = fixed_point_coeffs(q, p)
        for x in sorted(points):
            if QUARTER <= x <= ZERO:
                assert sturm._certified_sign(q, coeffs, p, x) == sign_at(q, x), x

    def test_exact_fallback_at_a_root_only(self, monkeypatch):
        q, p = with_dyadic_roots([3, 5], 5, 1), 40  # roots -3/32, -5/32
        coeffs = fixed_point_coeffs(q, p)
        exact = []
        monkeypatch.setattr(sturm, "sign_at", lambda *args: exact.append(args) or sign_at(*args))
        assert sturm._certified_sign(q, coeffs, p, Fraction(-3, 32)) == 0
        assert sturm._certified_sign(q, coeffs, p, Fraction(-1, 8)) == -1
        assert sturm._certified_sign(q, coeffs, p, Fraction(-1, 16)) == 1
        assert exact == [(q, Fraction(-3, 32))]


class TestWorkCounts:
    """The exact work the certificate and the refinement do, pinned by
    counts that repeat exactly, not by time."""

    @pytest.mark.parametrize("n,bits", [(55, 254), (100, 1024)])
    def test_refinement_makes_few_exact_sign_tests(self, n, bits, monkeypatch):
        # an exact test at both ends of every bracket makes 108 and 198 calls
        cert = certify_roots(n)
        calls = []
        monkeypatch.setattr(sturm, "sign_at", lambda *args: calls.append(args) or sign_at(*args))
        refine_roots(cert, bits)
        assert len(calls) <= 4

    def test_certificate_tests_each_end_once(self, monkeypatch):
        # one sign at -1/4 on M_55, then one on q per distinct point:
        # -1/4, 0 and the interval ends, 63 in all (111 tests if every
        # interval's two ends were tested)
        calls = []
        monkeypatch.setattr(sturm, "sign_at", lambda *args: calls.append(args) or sign_at(*args))
        cert = certify_roots(55)
        points = {QUARTER, ZERO} | {x for pair in cert.intervals for x in pair}
        assert len(calls) == 1 + len(points) == 64
        assert len({x for _, x in calls[1:]}) == len(points)

    def test_certificate_runs_fewer_full_shifts(self, monkeypatch):
        """Split shifts plus count tests that ran the Taylor shift through:
        173 at n = 55, against 259 if every count ran the whole shift."""
        real_shift, real_count = sturm._shift_one, sturm._capped_count
        full = []

        def counted_shift(a):
            full.append("split")
            return real_shift(a)

        def counted_test(a):
            shifted = real_shift(list(a))
            count = real_count(a)
            if a == shifted:
                full.append("test")
            return count

        monkeypatch.setattr(sturm, "_shift_one", counted_shift)
        monkeypatch.setattr(sturm, "_capped_count", counted_test)
        certify_roots(55)
        assert full.count("split") == 86
        assert len(full) <= 173


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
        bits = str(sturm.MAX_BITS + 1)
        assert main(["roots", "--n", "5", "--refine-bits", bits]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "resource limit" in err


class TestDescartes:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=2, max_value=30), bits=st.sampled_from([64, 70, 128, 256, 300]))
    def test_matches_sturm_and_bisection(self, n, bits):
        cert = certify_roots(n)
        assert list(cert.intervals) == interlacing_intervals(n)[n]
        assert [r._mpf_ for r in refine_roots(cert, bits)] == [
            r._mpf_ for r in bisection_midpoints(cert, bits)
        ]

    def test_interlacing_tree_matches_certificates_to_40(self):
        trees = interlacing_intervals(40)
        assert sorted(trees) == list(range(2, 41))
        for n, intervals in trees.items():
            assert intervals == list(certify_roots(n).intervals)

    def test_verify_roots_cross_checks_sturm(self, monkeypatch):
        from lslab import verify

        real = sturm.tree_intervals

        def drop_last_at_n8(q, points, signs):
            intervals = real(q, points, signs)
            return intervals[:-1] if len(q) == 8 else intervals

        monkeypatch.setattr(sturm, "tree_intervals", drop_last_at_n8)
        results = list(verify.suite_roots(256))
        (line,) = [r for r in results if r.name == "root certificates 1<=n<=30"]
        assert not line.passed
        assert line.detail == "Descartes and interlacing intervals differ at n=8"

    def test_no_interlacing_chain_in_production(self, monkeypatch):
        """The interlacing chain is a cross-check only: certificates and
        refinement never build it."""
        def no_chain(*args):
            raise AssertionError("interlacing chain built")

        monkeypatch.setattr(sturm, "separators", no_chain)
        monkeypatch.setattr(sturm, "tree_intervals", no_chain)
        for n in (2, 12, 40):
            refine_roots(certify_roots(n), 64)

    def test_midpoint_root_raises(self):
        # (8s + 1)(16s + 1): the first split of (-1/4, 0) is at -1/8, a root
        q = (1, 24, 128)
        for isolate in (sturm.descartes_intervals, sturm.isolate_roots):
            with pytest.raises(CertificationError) as exc:
                isolate(q, QUARTER, ZERO)
            assert exc.value.clause == "midpoint-root"
            assert "-1/8" in str(exc.value)

    def test_repeated_root_hits_depth_cap(self):
        # (12s + 1)^2: bisection towards -1/12 never ends, so the node that
        # holds it still splits at the depth cap
        with pytest.raises(CertificationError) as exc:
            sturm.isolate_roots((1, 24, 144), QUARTER, ZERO)
        assert exc.value.clause == "depth-cap"

    def test_newton_off_the_root_fails_interlacing(self, monkeypatch):
        # row 3's one separator lands on its gap's lower end, -1/4, where
        # q_3 has the sign it has at -1/4
        monkeypatch.setattr(sturm, "_newton", lambda coeffs, p, lo, hi, s_lo, tol: lo)
        chain = separators(5)
        assert next(chain)[0] == 2
        with pytest.raises(CertificationError) as exc:
            next(chain)
        assert exc.value.clause == "interlacing"

    def test_gap_interval_fails_isolation(self, monkeypatch):
        # the gap between row 8's first two isolating intervals holds no
        # root; swapped in for the second interval, the count still holds
        q = modified_legendre_row(8)[1:]
        real = sturm.descartes_intervals(q, QUARTER, ZERO)
        doctored = [real[0], (real[0][1], real[1][0]), *real[2:]]
        monkeypatch.setattr(sturm, "descartes_intervals", lambda q, lo, hi: doctored)
        with pytest.raises(CertificationError) as exc:
            sturm.isolate_roots(q, QUARTER, ZERO)
        assert exc.value.clause == "isolation"

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
