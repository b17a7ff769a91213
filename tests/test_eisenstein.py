"""Lattice-sum and tail-bound tests.

Frozen decimals below come from an independent high-precision reference
run; each is quoted to fewer digits than the run produced.
"""

from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lslab import eisenstein, verify
from lslab.cli import main
from lslab.clt import saddle_constant
from lslab.eisenstein import (
    CertifiedValue,
    certified_chebyshev,
    certified_legendre,
    eisenstein_chebyshev,
    eisenstein_legendre,
    squeeze_argument,
    tail_bound,
    zeta_series,
)
from lslab.laplace import eval_terms, laplace_closed_form
from lslab.triangles import CHEBYSHEV, modified_legendre_row, scale_row, triangle_row


def legendre_at(n, x):
    """M_n(x) from the scaled Legendre row."""
    return sum(c * x**j for j, c in enumerate(modified_legendre_row(n)))


@pytest.fixture(scope="module")
def w():
    return saddle_constant(256)


class TestZeta:
    @pytest.mark.parametrize("s", [Fraction(3, 2), Fraction(5, 2), Fraction(11, 2), Fraction(7, 3)])
    def test_matches_library(self, s):
        with mp.workprec(300):
            ours = zeta_series(s, 256)
            reference = mp.zeta(mp.mpf(s.numerator) / s.denominator)
            assert abs(ours - reference) < mp.mpf(2) ** -(256 + 24) * reference

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.integers(min_value=2, max_value=800),
        bits=st.sampled_from([64, 128, 256, 512, 1024, 2048]),
    )
    @example(r=2, bits=2048)
    @example(r=800, bits=64)
    def test_every_lattice_exponent_and_precision(self, r, bits):
        """s = (r+1)/2 as the lattice bounds use it; the direct sum is
        sized from the precision, so every call returns, 2048 bits too."""
        ours = zeta_series(Fraction(r + 1, 2), bits)
        with mp.workprec(bits + 64):
            reference = mp.zeta(mp.mpf(r + 1) / 2)
            assert abs(ours - reference) <= mp.mpf(2) ** -(bits + 24) * reference

    def test_rejects_pole_side(self):
        with pytest.raises(ValueError):
            zeta_series(Fraction(1, 2))


class TestTailBound:
    def test_reference_values(self, w):
        assert abs(float(tail_bound(2, w)) - 0.1107389) < 1e-6
        val10 = float(tail_bound(10, w))
        assert abs(val10 - 1.4952054e-6) < 1e-11
        assert val10 < 2e-6

    def test_monotone_in_w(self):
        with mp.workprec(128):
            values = [float(tail_bound(2, mp.mpf(t) / 10, 128)) for t in range(1, 10)]
        assert values == sorted(values)
        assert values[0] < 1e-2

    def test_domain(self, w):
        with pytest.raises(ValueError):
            tail_bound(1, w)
        with pytest.raises(ValueError):
            tail_bound(3, -1)


class TestCovers:
    """covers(rel) admits no rel within half the margin 2^-(bits-8) of
    the printed bound, and every rel below it by twice the margin."""

    @settings(max_examples=80, deadline=None)
    @given(
        r=st.integers(min_value=2, max_value=80),
        which=st.sampled_from(["w/2", "w", "2w", "1/3"]),
        bits=st.integers(min_value=64, max_value=512),
        near=st.sampled_from(["floor", "bound"]),
        k=st.integers(min_value=-64, max_value=64),
    )
    @example(r=80, which="2w", bits=64, near="floor", k=-16)
    @example(r=2, which="1/3", bits=512, near="bound", k=-32)
    def test_covers_is_certified(self, r, which, bits, near, k):
        with mp.workprec(bits + 64):
            w0 = saddle_constant(bits + 64)
            wv = {"w/2": w0 / 2, "w": w0, "2w": 2 * w0, "1/3": mp.mpf(1) / 3}[which]
        bound = tail_bound(r, wv, bits)
        with mp.workprec(4 * bits):
            floor = 2 * (wv / (4 * mp.pi)) ** (mp.mpf(r + 1) / 2)
            # k/16 margins of 2^-(bits-8) either side of the floor or the bound
            rel = (floor if near == "floor" else bound) * (1 + k * mp.mpf(2) ** (4 - bits))
            # half the margin 2^-(bits-8) inside the printed bound, and twice it
            half, inner = (bound * (1 - mp.mpf(2) ** (e - bits)) for e in (7, 9))
        covered = CertifiedValue(mp.mpf(0), r, wv, bits).covers(rel)
        if covered:
            assert rel <= half < bound
        if rel <= inner:
            assert covered

    def test_rejects_r_outside_the_margin(self, w):
        for r in (1, 2**21):
            with pytest.raises(ValueError):
                CertifiedValue(mp.mpf(0), r, w, 256)


def counting(calls, real):
    """real, with the arguments of every call appended to calls."""
    def wrapper(*args):
        calls.append(args)
        return real(*args)
    return wrapper


@pytest.fixture(scope="class")
def lattice_suites():
    """`verify clt` and `verify eisenstein` at the default configuration,
    each run once with every zeta evaluation and every power table
    counted: suite -> (passed by line name, zeta calls, power tables
    built)."""
    runs = {}
    zetas, built = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eisenstein, "zeta_series", counting(zetas, eisenstein.zeta_series))
        patch.setattr(eisenstein, "_power_table", counting(built, eisenstein._power_table))
        for name, suite in (("clt", verify.suite_clt), ("eisenstein", verify.suite_eisenstein)):
            zetas.clear()
            built.clear()
            passed = {r.name: r.passed for r in suite(256)}
            runs[name] = (passed, len(zetas), len(built))
    return runs


class TestLatticeLinesSkipZeta:
    """The lattice lines of `verify clt` and `verify eisenstein` decide
    every comparison by the zeta-free floor, no other line of `verify
    eisenstein` reads a tail bound, and each line builds one power table
    per w for all its rows."""

    def test_clt_suite(self, lattice_suites):
        passed, zeta_calls, _ = lattice_suites["clt"]
        assert passed["lattice identity for sqrt5 * row mass n<=50"]
        assert zeta_calls == 0

    def test_eisenstein_lattice_lines(self, lattice_suites):
        # the saddle lines read no tail bound, so the whole suite calls no zeta
        passed, zeta_calls, _ = lattice_suites["eisenstein"]
        assert passed["lattice sums within certified bound n<=50"]
        assert passed["row-sum lattice values n<=30"]
        assert all(passed.values())
        assert zeta_calls == 0

    def test_clt_builds_one_power_table(self, lattice_suites):
        assert lattice_suites["clt"][2] == 1

    def test_eisenstein_builds_four_power_tables(self, lattice_suites):
        # three Legendre w's and one Chebyshev w
        assert lattice_suites["eisenstein"][2] == 4


class TestZetaTraffic:
    def test_saddle_table_asks_once_per_row(self, monkeypatch, capsys):
        """The saddle table's tail_bound column is zeta's one caller in
        the CLI: one evaluation per row, each at its own s = (n + nu +
        1)/2, so a memo of zeta would never be hit."""
        zetas = []
        monkeypatch.setattr(eisenstein, "zeta_series", counting(zetas, eisenstein.zeta_series))
        argv = "asymptotics --report saddle --n-list 100,200,400".split()
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert len(zetas) == 3
        assert len({s for s, _ in zetas}) == 3


class TestSqueezeArgument:
    def test_special_points(self, w):
        with mp.workprec(256):
            assert abs(squeeze_argument(w, 256) - 1) < mp.mpf(2) ** -240
            assert abs(squeeze_argument(2 * w, 256) - mp.mpf(1) / 5) < mp.mpf(2) ** -240
            golden_plus = mp.sqrt(5) + 2
            assert abs(squeeze_argument(w / 2, 256) - golden_plus) < mp.mpf(2) ** -240


class TestChebyshevLattice:
    def test_row_one(self, w):
        # L_1(1) = 2; the |m| > 16 truncation leaves an error around 5e-7,
        # well inside the certified bound (reference run: 4.908e-7)
        val = eisenstein_chebyshev([1], w, 16, 256)[0]
        err = abs(float(val) - 2)
        assert err < 1e-6
        assert err < float(tail_bound(2, w)) * 2

    def test_row_three(self, w):
        val = eisenstein_chebyshev([3], w, 16, 256)[0]
        assert abs(val - 842) < float(tail_bound(6, w)) * 842

    def test_single_term_at_double_argument(self, w):
        # g(2w) = 1/5 exactly, so the target value is  L_2(1/5) = 34/25
        val = eisenstein_chebyshev([2], 2 * w, 0, 256)[0]
        exact = 24 / mp.mpf(25) + 2 / mp.mpf(5)
        rel = abs(val - exact) / exact
        assert float(rel) < float(tail_bound(4, 2 * w))

    def test_row_sums(self, w):
        with mp.workprec(300):
            for n in range(1, 11):
                exact = mp.mpf(sum(scale_row(triangle_row(CHEBYSHEV, n))))
                val = eisenstein_chebyshev([n], w, 16, 256)[0]
                assert abs(val - exact) / exact < tail_bound(2 * n, w, 256)

    def test_domain(self, w):
        with pytest.raises(ValueError):
            eisenstein_chebyshev([0], w, 16)
        with pytest.raises(ValueError):
            eisenstein_chebyshev([2], -w, 16)
        with pytest.raises(ValueError):
            eisenstein_chebyshev([2], w, -1)


class TestLegendreLattice:
    def test_reference_rows(self, w):
        assert abs(eisenstein_legendre([3], w, 16, 256)[0] - 920) < 1e-6
        assert abs(eisenstein_legendre([1], w, 16, 256)[0] - 2) < 1e-4

    def test_half_argument(self, w):
        with mp.workprec(300):
            g = squeeze_argument(w / 2, 300)
            exact = legendre_at(2, g)
            val = eisenstein_legendre([2], w / 2, 16, 256)[0]
            assert abs(val - exact) / exact < tail_bound(2, w / 2, 256)

    def test_bound_certified_sweep(self, w):
        with mp.workprec(300):
            for wv in (w / 2, w, 2 * w):
                g = squeeze_argument(wv, 300)
                for n in range(2, 13):
                    exact = legendre_at(n, g)
                    val = eisenstein_legendre([n], wv, 16, 256)[0]
                    assert abs(val - exact) / exact < tail_bound(n, wv, 256)

    def test_certified_values_carry_their_bound(self, w):
        cert = certified_legendre([3], w, 16, 256)[0]
        assert abs(float(cert.value) - 920) < float(cert.bound) * 920
        assert list(type(cert)._fields) == ["value", "r", "w", "precision_bits"]
        cert2 = certified_chebyshev([3], w, 16, 256)[0]
        assert abs(float(cert2.value) - 842) < float(cert2.bound) * 842
        with mp.workprec(280):
            assert cert.bound == tail_bound(3, w, 256)
            assert cert2.bound == tail_bound(6, w, 256)

    def test_mass_identity(self, w):
        # sqrt5 * M_n(1) equals the full lattice sum of the closed forms
        with mp.workprec(300):
            for n in (5, 20):
                terms = laplace_closed_form(n, n)
                total = mp.mpc(0)
                for m in range(-16, 17):
                    total += eval_terms(terms, mp.mpc(w, 2 * mp.pi * m))
                exact = mp.sqrt(5) * mp.mpf(sum(modified_legendre_row(n)))
                assert abs(total.real - exact) / exact < tail_bound(n, w, 256)
                assert abs(total.imag) < mp.mpf(2) ** -240 * abs(total.real)


def lattice_terms(family, n):
    """The summand and the prefactor of eisenstein_<family>, as written
    there."""
    if family == "legendre":
        terms = laplace_closed_form(n, n)
        return lambda z: eval_terms(terms, z), lambda wv: (mp.cosh(wv) - 1) / mp.sinh(wv)
    return (
        lambda z: z ** (-(2 * n + 1)),
        lambda wv: mp.mpf(factorial(2 * n)) * 2 * (mp.cosh(wv) - 1) / mp.sinh(wv),
    )


def lattice_w(which, bits):
    """The four parameters the symmetry is checked at: the saddle w, 1/2,
    2 and 1/3, at the working precision."""
    with mp.workprec(bits):
        return {"w": saddle_constant(bits), "1/2": mp.mpf(1) / 2, "2": mp.mpf(2),
                "1/3": mp.mpf(1) / 3}[which]


class TestConjugateTerms:
    """The lattice sums take the term at w - 2 pi i m as the conjugate of
    the term at w + 2 pi i m; that holds bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["legendre", "chebyshev"]),
        n=st.integers(min_value=1, max_value=60),
        m=st.integers(min_value=1, max_value=16),
        bits=st.integers(min_value=64, max_value=352),
        which=st.sampled_from(["w", "1/2", "2", "1/3"]),
    )
    @example(family="chebyshev", n=60, m=16, bits=352, which="1/3")
    @example(family="legendre", n=60, m=1, bits=64, which="w")
    def test_term_of_conjugate_is_conjugate(self, family, n, m, bits, which):
        term, _ = lattice_terms(family, n)
        wv = lattice_w(which, bits)
        with mp.workprec(bits):
            upper = term(mp.mpc(wv, 2 * mp.pi * m))
            lower = term(mp.mpc(wv, -2 * mp.pi * m))
            assert lower.real == upper.real
            assert lower.imag == -upper.imag


def every_point_sum(family, n, w, m_max, bits):
    """Oracle: the truncated lattice sum with every one of the 2 m_max + 1
    terms evaluated, reduced in the order m = 0, -1, +1, -2, +2, ..."""
    term, prefactor = lattice_terms(family, n)
    with mp.workprec(bits + 32):
        wv = mp.mpf(w)
        points = [mp.mpc(wv, 0)]
        for m in range(1, m_max + 1):
            points += [mp.mpc(wv, -2 * mp.pi * m), mp.mpc(wv, 2 * mp.pi * m)]
        total = mp.mpc(0)
        for z in points:
            total += term(z)
        real = (total * prefactor(wv)).real
    with mp.workprec(bits):
        return +real


def assert_within_proven_bound(family, n, wv, m_max, bits, value):
    """The eisenstein docstring's bound: before its final rounding the
    value is within 2^-(bits+32) h of the truncated sum at w rounded to
    bits + 32, h being that sum's m = 0 term, and the rounding adds half
    an ulp.  The oracle, taken at bits + 64, is off by far less than the
    other half ulp the window allows."""
    with mp.workprec(bits + 32):
        wq = +wv
    oracle = every_point_sum(family, n, wq, m_max, bits + 64)
    term, prefactor = lattice_terms(family, n)
    with mp.workprec(bits + 64):
        h = term(wq) * prefactor(wq)
        window = mp.ldexp(h, -(bits + 32)) + mp.ldexp(1, mp.mag(value) - bits)
        assert abs(value - oracle) <= window


LATTICES = {"legendre": eisenstein_legendre, "chebyshev": eisenstein_chebyshev}


class TestEveryPointOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(["legendre", "chebyshev"]),
        n=st.integers(min_value=1, max_value=50),
        scale=st.sampled_from(["w/2", "w", "2w"]),
        m_max=st.sampled_from([0, 1, 16]),
        bits=st.sampled_from([64, 256, 320]),
    )
    @example(family="legendre", n=50, scale="2w", m_max=16, bits=256)
    @example(family="chebyshev", n=37, scale="w", m_max=16, bits=320)
    @example(family="chebyshev", n=50, scale="w/2", m_max=16, bits=256)
    @example(family="legendre", n=1, scale="w", m_max=0, bits=64)
    def test_equals_every_point_sum(self, w, family, n, scale, m_max, bits):
        """Equal, within the proven bound, to the complex sum that
        evaluates both points of each conjugate pair; `verify eisenstein`
        certifies its lattice sums at 320 bits."""
        with mp.workprec(256):
            wv = {"w/2": w / 2, "w": w, "2w": 2 * w}[scale]
        value = LATTICES[family]([n], wv, m_max, bits)[0]
        assert_within_proven_bound(family, n, wv, m_max, bits, value)


class TestSharedTable:
    """One power table serves every row of a call: a row's value is
    within the proven bound whatever other rows share the call."""

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["legendre", "chebyshev"]),
        n=st.integers(min_value=1, max_value=60),
        others=st.lists(st.integers(min_value=1, max_value=60), max_size=4),
        scale=st.sampled_from(["w/2", "w", "2w"]),
        m_max=st.sampled_from([0, 1, 16]),
        bits=st.sampled_from([64, 256, 320]),
    )
    @example(family="legendre", n=50, others=list(range(2, 50)), scale="w", m_max=16, bits=256)
    @example(family="chebyshev", n=30, others=list(range(1, 30)), scale="w", m_max=16, bits=320)
    @example(family="legendre", n=2, others=[], scale="2w", m_max=16, bits=64)
    @example(family="legendre", n=2, others=[60], scale="2w", m_max=16, bits=64)
    @example(family="chebyshev", n=1, others=[60, 60], scale="w/2", m_max=1, bits=256)
    def test_row_within_bound_whatever_shares_the_call(
        self, w, family, n, others, scale, m_max, bits
    ):
        with mp.workprec(256):
            wv = {"w/2": w / 2, "w": w, "2w": 2 * w}[scale]
        values = LATTICES[family]([*others, n], wv, m_max, bits)
        assert len(values) == len(others) + 1
        assert_within_proven_bound(family, n, wv, m_max, bits, values[-1])

    def test_no_rows(self, w):
        assert eisenstein_legendre([], w, 16) == []
        assert certified_chebyshev([], w) == []
