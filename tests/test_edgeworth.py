"""Bernoulli-array engine tests: exact convolution vs brute force,
cumulant paths, Hermite values, correction terms, expansion values
against a point-by-point oracle."""

from fractions import Fraction
from itertools import product
from math import factorial

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lslab import edgeworth
from lslab.edgeworth import (
    MAX_EXPANSION_ORDER,
    cumulants_from_genpoly,
    cumulants_from_probabilities,
    density_expansion,
    distribution,
    hermite_value,
    probabilities_from_roots,
)
from lslab.errors import DegenerateVarianceError, ExpansionConditionError
from lslab.genpoly import legendre_genpoly_recurrence
from lslab.precision import to_mpf
from lslab.sturm import certify_roots, refine_roots
from lslab.triangles import modified_legendre_row
from lslab.verify import _enumerate_distribution


def enumerate_distribution(probs):
    """Oracle: direct sum over all 2^n outcomes."""
    n = len(probs)
    dist = [Fraction(0)] * (n + 1)
    for outcome in product((0, 1), repeat=n):
        weight = Fraction(1)
        for p, hit in zip(probs, outcome):
            weight *= p if hit else 1 - p
        dist[sum(outcome)] += weight
    return dist


class TestProbabilities:
    def test_two_point_row(self):
        probs = probabilities_from_roots([Fraction(0), Fraction(-1, 6)])
        assert probs == (Fraction(1), Fraction(6, 7))

    def test_single_zero_root(self):
        probs = probabilities_from_roots([Fraction(0)])
        assert probs == (Fraction(1),)
        assert distribution(probs) == [0, Fraction(1)]

    def test_cubic_row_roots(self):
        roots = refine_roots(certify_roots(3), 128)
        probs = probabilities_from_roots([mp.mpf(0)] + roots, 128)
        with mp.workprec(128):
            expected = [1 / (1 + mp.mpf("0.21498299142")), 1 / (1 + mp.mpf("0.05168367524"))]
            assert abs(probs[1] - expected[0]) < 1e-9
            assert abs(probs[2] - expected[1]) < 1e-9

    def test_positive_root_rejected(self):
        with pytest.raises(ValueError):
            probabilities_from_roots([Fraction(1, 2)])


class TestDistribution:
    def test_two_point_row_exact(self):
        probs = probabilities_from_roots([Fraction(0), Fraction(-1, 6)])
        assert distribution(probs) == [0, Fraction(1, 7), Fraction(6, 7)]

    def test_cubic_row_matches_scaled_coefficients(self):
        roots = refine_roots(certify_roots(3), 200)
        probs = probabilities_from_roots([mp.mpf(0)] + roots, 200)
        dist = distribution(probs, 200)
        with mp.workprec(200):
            for j, coeff in enumerate((0, 8, 192, 720)):
                assert abs(dist[j] - mp.mpf(coeff) / 920) < mp.mpf(2) ** -150

    def test_brute_force_oracle(self):
        arrays = [
            tuple(Fraction(i + 1, i + 3) for i in range(9)),
            (Fraction(1), Fraction(6, 7), Fraction(1, 2)),
            (Fraction(1, 4),) * 6,
        ]
        for probs in arrays:
            assert distribution(probs) == enumerate_distribution(probs)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=50), min_size=0, max_size=10
        )
    )
    def test_verify_oracle_matches_convolution(self, probs):
        assert _enumerate_distribution(tuple(probs)) == distribution(tuple(probs))

    def test_normalization_exact(self):
        probs = tuple(Fraction(i + 2, 2 * i + 5) for i in range(10))
        assert sum(distribution(probs)) == 1


def typed_seed_distribution(probs, precision_bits=256):
    """Oracle: distribution as it was with a typed seed, Fraction(1) for
    exact probabilities and mpf(1) otherwise."""
    exact = all(isinstance(p, (int, Fraction)) for p in probs)
    with mp.workprec(precision_bits):
        poly = [Fraction(1) if exact else mp.mpf(1)]
        for p in probs:
            q = 1 - p
            new = [0 * p] * (len(poly) + 1)
            for i, c in enumerate(poly):
                new[i] += c * q
                new[i + 1] += c * p
            poly = new
    return poly


def typed_seed_cumulants(probs, order, precision_bits=256):
    """Oracle: cumulants_from_probabilities as it was with a typed zero,
    Fraction(0) for exact probabilities and mpf(0) otherwise."""
    exact = all(isinstance(p, (int, Fraction)) for p in probs)
    with mp.workprec(precision_bits):
        totals = [Fraction(0) if exact else mp.mpf(0)] * order
        for p in probs:
            kappas = edgeworth._cumulants_from_raw([p] * order)
            for i in range(order):
                totals[i] += kappas[i]
    return edgeworth._normalize_cumulants(len(probs), totals, precision_bits)


def profile_parts(prof):
    return [prof.mean, prof.variance, *prof.normalized]


class TestIntSeeds:
    """The int seeds 1 and 0 promote to the types the typed seeds gave,
    and round nothing: the results equal the typed-seed oracles bit for
    bit (mpf == compares every bit)."""

    @settings(max_examples=40, deadline=None)
    @given(
        probs=st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=10**6), min_size=2, max_size=60
        ),
        bits=st.sampled_from([64, 256, 1024]),
        finer_input=st.booleans(),
    )
    def test_mpf_path_equals_typed_seeds(self, probs, bits, finer_input):
        probs[0] = Fraction(1, 2)  # variance > 0
        with mp.workprec(2 * bits if finer_input else bits):
            mprobs = tuple(to_mpf(p) for p in probs)
        ours, oracle = distribution(mprobs, bits), typed_seed_distribution(mprobs, bits)
        assert all(type(a) is type(b) is mp.mpf for a, b in zip(ours, oracle))
        assert ours == oracle
        ours = profile_parts(cumulants_from_probabilities(mprobs, 6, bits))
        oracle = profile_parts(typed_seed_cumulants(mprobs, 6, bits))
        assert all(type(a) is type(b) is mp.mpf for a, b in zip(ours, oracle))
        assert ours == oracle

    @settings(max_examples=20, deadline=None)
    @given(
        probs=st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=50), min_size=2, max_size=60
        ),
    )
    def test_fractions_in_fractions_out(self, probs):
        probs = (Fraction(1, 2), *probs)
        dist = distribution(probs)
        assert all(type(d) is Fraction for d in dist)
        assert dist == typed_seed_distribution(probs)
        prof = cumulants_from_probabilities(probs, 4)
        assert type(prof.mean) is Fraction and type(prof.variance) is Fraction
        assert prof == typed_seed_cumulants(probs, 4)


class TestCumulants:
    def test_lambda2_is_one(self):
        probs = tuple(Fraction(1, k + 2) for k in range(6))
        prof = cumulants_from_probabilities(probs, 4)
        assert prof.normalized[0] == 1

    def test_symmetric_bernoulli_skewless(self):
        prof = cumulants_from_probabilities((Fraction(1, 2),) * 4, 3)
        assert prof.normalized_cumulant(3) == 0

    def test_third_cumulant_formula(self):
        # kappa_3 = p(1-p)(1-2p) = -30/343 at p = 6/7, recovered through
        # the normalization lambda_3 = kappa_3 / sigma^3 (n = 1)
        p = Fraction(6, 7)
        prof = cumulants_from_probabilities((p,), 3, 128)
        assert prof.variance == Fraction(6, 49)
        with mp.workprec(128):
            direct = (mp.mpf(-30) / 343) / (mp.mpf(6) / 49) ** mp.mpf(1.5)
            assert abs(prof.normalized_cumulant(3) - direct) < mp.mpf(2) ** -100

    def test_genpoly_path_row2(self):
        prof = cumulants_from_genpoly(list(legendre_genpoly_recurrence(2))[2], 4)
        assert prof.mean == Fraction(13, 7)
        assert prof.variance == Fraction(6, 49)

    def test_genpoly_path_row3(self):
        prof = cumulants_from_genpoly(list(legendre_genpoly_recurrence(3))[3], 4)
        assert prof.mean == Fraction(319, 115)
        assert prof.variance == Fraction(2544, 13225)

    def test_degenerate_row(self):
        with pytest.raises(DegenerateVarianceError):
            cumulants_from_genpoly(list(legendre_genpoly_recurrence(1))[1], 4)

    def test_two_paths_agree_row5(self):
        roots = refine_roots(certify_roots(5), 256)
        prof_a = cumulants_from_probabilities(
            probabilities_from_roots([mp.mpf(0)] + roots, 256), 6, 256
        )
        prof_b = cumulants_from_genpoly(modified_legendre_row(5), 6, 256)
        with mp.workprec(256):
            for nu in range(2, 7):
                a, b = prof_a.normalized_cumulant(nu), prof_b.normalized_cumulant(nu)
                assert abs(a - b) < mp.mpf(2) ** -180 * (1 + abs(b))


class TestHermite:
    def test_symbolic_values(self):
        for x in (Fraction(2), Fraction(-1, 3), Fraction(7, 5)):
            assert hermite_value(0, x) == 1
            assert hermite_value(1, x) == x
            assert hermite_value(3, x) == x**3 - 3 * x
            assert hermite_value(4, x) == x**4 - 6 * x**2 + 3

    def test_parity(self):
        for m in range(11):
            for x in (Fraction(1, 2), Fraction(9, 4)):
                assert hermite_value(m, -x) == (-1) ** m * hermite_value(m, x)

    def test_rodrigues_style_recursion(self):
        # P_0 = 1, P_{m+1} = P' - x P gives H_m = (-1)^m P_m
        poly = [Fraction(1)]
        for m in range(7):
            for x in (Fraction(1, 3), Fraction(-2), Fraction(5, 2)):
                value = (-1) ** m * sum(c * x**i for i, c in enumerate(poly))
                assert value == hermite_value(m, x)
            nxt = [Fraction(0)] * (len(poly) + 1)
            for i, c in enumerate(poly):
                if i + 1 < len(poly):
                    nxt[i] += (i + 1) * poly[i + 1]
                nxt[i + 1] -= c
            poly = nxt


def pointwise_expansion(profile, j, k, bits):
    """Oracle: the expansion at one point, with x, phi, the cumulant
    factors and the scale n^(nu/2) rebuilt for every order, as in the
    textbook form sigma P(S = j) ~ phi + sum_nu q_nu/n^(nu/2)."""
    n = profile.n
    with mp.workprec(bits):
        x = (j - to_mpf(profile.mean)) / mp.sqrt(to_mpf(profile.variance))
        value = mp.e ** (-x * x / 2) / mp.sqrt(2 * mp.pi)
        values = [x, value]
        for nu in range(1, k - 1):
            lam3 = profile.normalized_cumulant(3) / factorial(3)
            if nu == 1:
                total = hermite_value(3, x) * lam3
            else:
                lam4 = profile.normalized_cumulant(4) / factorial(4)
                total = hermite_value(4, x) * lam4 + hermite_value(6, x) * (lam3**2 / factorial(2))
            phi = mp.e ** (-x * x / 2) / mp.sqrt(2 * mp.pi)
            value += phi * total / mp.mpf(n) ** (mp.mpf(nu) / 2)
            values.append(value)
    return tuple(values)


class TestCorrectionTerms:
    """q_1 and q_2 read off density_expansion: q_nu = (e_{nu+2} - e_{nu+1})
    n^(nu/2), up to the rounding of one addition."""

    @pytest.fixture()
    def profile(self):
        return cumulants_from_genpoly(modified_legendre_row(20), 6, 192)

    @staticmethod
    def at(profile, x, k):
        """The tuple (x, e_2, ..., e_k) at the real point j = mean + x sigma."""
        with mp.workprec(192):
            j = to_mpf(profile.mean) + mp.mpf(x) * mp.sqrt(to_mpf(profile.variance))
        [row] = density_expansion(profile, [j], k, 192)
        return row

    def test_odd_vanishes_at_zero(self, profile):
        with mp.workprec(192):
            mean = to_mpf(profile.mean)
        [(x, e2, e3)] = density_expansion(profile, [mean], 3, 192)
        assert x == 0
        assert abs(e3 - e2) < mp.mpf(2) ** -150

    def test_first_correction_shape(self, profile):
        x, e2, e3 = self.at(profile, "0.7", 3)
        with mp.workprec(192):
            lam3 = profile.normalized_cumulant(3)
            phi = mp.e ** (-x * x / 2) / mp.sqrt(2 * mp.pi)
            expected = phi * hermite_value(3, x) * lam3 / 6
            assert abs((e3 - e2) * mp.sqrt(20) - expected) < mp.mpf(2) ** -150

    def test_second_correction_shape(self, profile):
        x, _, e3, e4 = self.at(profile, "-1.1", 4)
        with mp.workprec(192):
            lam3 = profile.normalized_cumulant(3)
            lam4 = profile.normalized_cumulant(4)
            phi = mp.e ** (-x * x / 2) / mp.sqrt(2 * mp.pi)
            expected = phi * (
                hermite_value(4, x) * lam4 / 24 + hermite_value(6, x) * lam3**2 / 72
            )
            assert abs((e4 - e3) * 20 - expected) < mp.mpf(2) ** -140

    def test_order_past_cap(self, profile):
        # MAX_EXPANSION_ORDER = 4 reaches q_1 and q_2 only
        assert MAX_EXPANSION_ORDER == 4
        assert len(self.at(profile, 0, 4)) == 4  # x, e_2, e_3, e_4
        for k in (5, 6):
            with pytest.raises(ValueError):
                density_expansion(profile, [10], k, 192)

    def test_insufficient_cumulants(self):
        prof = cumulants_from_genpoly(modified_legendre_row(6), 3, 128)
        assert len(density_expansion(prof, [3], 3, 128)[0]) == 3
        with pytest.raises(ValueError):
            density_expansion(prof, [3], 4, 128)


class TestDensityExpansion:
    @pytest.mark.parametrize("bits", [64, 256, 1024])
    def test_matches_pointwise_oracle(self, bits):
        profiles = [cumulants_from_genpoly(modified_legendre_row(n), 6, bits) for n in (2, 20, 60)]
        two_point = probabilities_from_roots([Fraction(0), Fraction(-1, 6)])
        profiles.append(cumulants_from_probabilities(two_point, 6, bits))
        for prof in profiles:
            js = range(prof.n + 1)
            for k in (2, 3, 4):
                expected = [pointwise_expansion(prof, j, k, bits) for j in js]
                assert density_expansion(prof, js, k, bits) == expected

    def test_comparison_table_makes_one_call(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[1])
            return density_expansion(*args)

        monkeypatch.setattr(edgeworth, "density_expansion", counted)
        rows = edgeworth.comparison_table(20, 128)
        assert calls == [range(21)]
        assert [row[0] for row in rows] == list(range(21))

    def test_two_point_reference_values(self):
        probs = probabilities_from_roots([Fraction(0), Fraction(-1, 6)])
        prof = cumulants_from_probabilities(probs, 6, 128)
        with mp.workprec(128):
            [(_, value)] = density_expansion(prof, [2], 2, 128)
            assert abs(value - mp.mpf("0.36704462")) < 1e-7
            sigma_p = mp.sqrt(mp.mpf(6) / 49) * mp.mpf(6) / 7
            assert abs(sigma_p - mp.mpf("0.29993751")) < 1e-7

    def test_near_mean_close_to_peak_density(self):
        prof = cumulants_from_genpoly(modified_legendre_row(80), 6, 128)
        j = round(float(mp.mpf(prof.mean.numerator) / prof.mean.denominator))
        with mp.workprec(128):
            [(_, value)] = density_expansion(prof, [j], 2, 128)
            assert abs(value - 1 / mp.sqrt(2 * mp.pi)) < 0.05

    def test_order3_improves_on_order2_small_row(self):
        n = 60
        prof = cumulants_from_genpoly(modified_legendre_row(n), 6, 160)
        row = modified_legendre_row(n)
        total = sum(row)
        expansion = density_expansion(prof, range(n + 1), 3, 160)
        with mp.workprec(160):
            sigma = mp.sqrt(mp.mpf(prof.variance.numerator) / prof.variance.denominator)
            targets = [sigma * mp.mpf(c) / total for c in row]
            err2 = max(abs(t - e2) for t, (_, e2, _) in zip(targets, expansion))
            err3 = max(abs(t - e3) for t, (_, _, e3) in zip(targets, expansion))
        assert err3 < err2

    def test_order_cap(self):
        prof = cumulants_from_genpoly(modified_legendre_row(10), 6, 128)
        with pytest.raises(ValueError):
            density_expansion(prof, [5], 5, 128)
        with pytest.raises(ValueError):
            density_expansion(prof, [5], 1, 128)

    def test_variance_floor_guard(self):
        prof = cumulants_from_probabilities((Fraction(1, 10**6),) * 5, 6, 128)
        with pytest.raises(ExpansionConditionError):
            density_expansion(prof, [0], 2, 128)
