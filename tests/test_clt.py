"""Centering/scaling and normal-limit checks.

Reference decimals were frozen from an independent 320-bit oracle run.
"""

import json
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lslab import clt, triangles
from lslab.cli import main
from lslab.clt import (
    centering_scaling,
    max_density_residual,
    mean_variance_exact,
    mean_variance_residuals,
    normal_approximation,
    normal_cdf,
    ratio_check,
    saddle_constant,
    scaled_cdf,
    total_mass_ratio,
)
from lslab.errors import DegenerateVarianceError, KernelInvariantError, ResourceLimitError
from lslab.triangles import (
    legendre_row_mass_bounds, legendre_stirling_binsum, modified_legendre_row,
)


class TestSaddleConstant:
    def test_value(self):
        w = saddle_constant(128)
        assert abs(float(w) - 0.9624236501192069) < 1e-15

    def test_defining_equation(self):
        for bits in (64, 128, 256):
            w = saddle_constant(bits)
            with mp.workprec(bits + 16):
                assert abs(2 * (mp.cosh(w) - 1) - 1) < mp.mpf(2) ** (-bits + 4)

    def test_half_angle_identities(self):
        # cosh(w/2) = sqrt5/2 and sinh(w/2) = 1/2 pin the constant down
        w = saddle_constant(192)
        with mp.workprec(192):
            assert abs(mp.cosh(w / 2) - mp.sqrt(5) / 2) < mp.mpf(2) ** -180
            assert abs(mp.sinh(w / 2) - mp.mpf(1) / 2) < mp.mpf(2) ** -180

    def test_minimum_bits(self):
        with pytest.raises(ValueError):
            saddle_constant(32)


class TestCenteringScaling:
    def test_reference_row_1000(self):
        cs = centering_scaling(1000, 256)
        assert abs(float(cs.center) - 929.3133982) < 1e-6
        assert abs(float(cs.spread) - 60.1050357) < 1e-6

    def test_row_one(self):
        cs = centering_scaling(1, 128)
        with mp.workprec(128):
            direct = 3 / (mp.sqrt(5) * saddle_constant(128)) - mp.mpf(1) / 2
            assert abs(cs.center - direct) < mp.mpf(2) ** -120
        assert abs(float(cs.center) - 0.894) < 1e-3

    def test_row_zero(self):
        # the mass table's n = 0 row reads this frame: M_0(1) = 1, scale w
        cs = centering_scaling(0, 128)
        assert cs.spread == cs.sigma == 0
        assert cs.scale == saddle_constant(128)
        with pytest.raises(ValueError):
            centering_scaling(-1, 128)

    def test_center_alone_is_the_frames_center(self):
        # verify roots reads the centre without building the frame
        for bits in (64, 256):
            for n in (0, 1, 3, 300, 1999):
                assert clt.center(n, bits) == centering_scaling(n, bits).center
        with pytest.raises(ValueError):
            clt.center(-1, 64)

    def test_spread_is_linear(self):
        a = centering_scaling(100, 128)
        b = centering_scaling(700, 128)
        with mp.workprec(128):
            assert abs(a.spread / 100 - b.spread / 700) < mp.mpf(2) ** -110
            assert abs(a.spread / 100 - mp.mpf("0.0601050357")) < 1e-9


class TestExactMoments:
    def test_row2(self):
        assert mean_variance_exact(2) == (Fraction(13, 7), Fraction(6, 49))

    def test_row3(self):
        mean, var = mean_variance_exact(3)
        assert mean == Fraction(319, 115)
        # structure check: M''(1)/M(1) + mean - mean^2 with (920, 2552, 4704)
        assert var == Fraction(4704, 920) + mean - mean * mean
        assert var == Fraction(2544, 13225)

    def test_row1_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            mean_variance_exact(1)


class TestResiduals:
    def test_reference_window(self):
        (n100, mean100, var100), (n200, mean200, _) = mean_variance_residuals([100, 200], 256)
        assert (n100, n200) == (100, 200)
        assert abs(float(mean100) - 5.40712e-4) < 1e-8
        assert abs(float(var100) - 0.029585) < 1e-5
        assert 0.3 < float(abs(mean200) / abs(mean100)) < 0.7

    def test_small_row_finite(self):
        ((_, mean_residual, var_residual),) = mean_variance_residuals([2], 128)
        assert mp.isfinite(mean_residual)
        assert mp.isfinite(var_residual)

    def test_csv(self, capsys):
        argv = ["clt", "--report", "residuals", "--n-list", "2,4", "--precision-bits", "128"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,mean_residual,var_residual"
        assert len(lines) == 3


class TestNormalApproximation:
    def test_gaussian_factor_peaks_at_center(self):
        # the scaled-row estimate (2j)! * A(n, j) carries the Gaussian
        # factor; it is maximal at j = round(center)
        n = 400
        cs = centering_scaling(n, 128)
        j0 = round(float(cs.center))
        values = {
            j: mp.mpf(factorial(2 * j)) * normal_approximation(n, j, 128)
            for j in (j0 - 1, j0, j0 + 1)
        }
        assert values[j0] > values[j0 - 1]
        assert values[j0] > values[j0 + 1]

    def test_near_center_ratio(self):
        # reference run: ratio 1.00857 at j = round(center) + 8 for n = 400
        from lslab.triangles import legendre_stirling_binsum

        n = 400
        j = round(float(centering_scaling(n, 128).center)) + 8
        ratio = mp.mpf(legendre_stirling_binsum(n, j)) / normal_approximation(n, j, 256)
        assert abs(float(ratio) - 1.00857) < 1e-3
        assert abs(float(ratio) - 1) < 0.25

    def test_support_bounds(self):
        with pytest.raises(ValueError):
            normal_approximation(400, 0, 128)
        with pytest.raises(ValueError):
            normal_approximation(400, 412, 128)  # past the row end


class TestRatioCheck:
    def test_small_case_consistency(self):
        ratio, entry = ratio_check(50, 45, 256)
        assert entry == legendre_stirling_binsum(50, 45)
        assert 0.5 < float(ratio) < 2.0

    @pytest.mark.parametrize("side", [-1, 1])
    def test_enclosure_off_the_entry_raises(self, monkeypatch, side):
        """An enclosure shifted wholly below or above (2j)! times the
        recurrence's entry is an invariant failure, before any ratio."""
        real = clt.legendre_entry_bounds

        def shifted(n, j, bits):
            lo, hi, e = real(n, j, bits)
            step = side * (hi - lo + 1)
            return lo + step, hi + step, e

        monkeypatch.setattr(clt, "legendre_entry_bounds", shifted)
        with pytest.raises(KernelInvariantError):
            ratio_check(50, 45, 256)

    def test_ratio_target_takes_no_binomial_sum(self, monkeypatch):
        """The ratio-window entry comes from the recurrence and the
        enclosure alone; tests/test_triangles.py holds the exact folded
        sum to it."""
        def no_binsum(*args):
            raise AssertionError("legendre_stirling_binsum was called")

        monkeypatch.setattr(triangles, "legendre_stirling_binsum", no_binsum)
        assert not hasattr(clt, "legendre_stirling_binsum")
        ratio, entry = ratio_check(1000, 930)
        assert len(str(entry)) == 492
        assert abs(float(ratio) - 1.0025613808) < 1e-10

    def test_json_payload(self, capsys):
        assert main(["clt", "--report", "ratio", "--n", "20", "--j", "18"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"n", "j", "ratio", "precision_bits"}
        assert payload["precision_bits"] == 256
        assert payload["ratio"].startswith("0.") or payload["ratio"].startswith("1.")


class TestScaledCdf:
    def test_total_mass(self):
        # y beyond the support gives the full scaled mass, which is near 1
        (val,) = scaled_cdf(200, [40], 256)
        mass = total_mass_ratio(200, 256)
        with mp.workprec(256):
            assert abs(val - mass) < mp.mpf(2) ** -200
            assert abs(mass - 1) < 0.001

    def test_reference_values(self):
        center, tail = scaled_cdf(400, [0, -8], 256)
        assert abs(float(center) - 0.47373736) < 1e-6
        assert float(tail) < 1e-6

    def test_monotone_in_y(self):
        vals = [float(v) for v in scaled_cdf(100, [-2, -1, 0, 1, 2], 128)]
        assert vals == sorted(vals)

    def test_row_cap_before_the_frame(self, monkeypatch):
        # the frame's (2n)! alone would take minutes far past the cap
        def no_frame(*args):
            raise AssertionError("the frame was computed for a capped row")

        monkeypatch.setattr(clt, "centering_scaling", no_frame)
        with pytest.raises(ResourceLimitError):
            scaled_cdf(10**8, [0.0])


class TestMassRatio:
    def test_reference_decay(self):
        r50 = abs(total_mass_ratio(50, 256) - 1)
        r100 = abs(total_mass_ratio(100, 256) - 1)
        assert abs(float(r50) - 0.00116882) < 1e-7
        assert 0.3 < float(r100 / r50) < 0.7


class TestDensityResidual:
    def test_decay_small(self):
        r50 = max_density_residual(50, 256)
        r100 = max_density_residual(100, 256)
        assert float(r100) < float(r50)
        assert abs(float(r100) - 0.0283275) < 1e-5


class TestNormalCdf:
    def test_half_at_zero(self):
        assert normal_cdf(0, 128) == mp.mpf(1) / 2

    def test_symmetry(self):
        with mp.workprec(200):
            for y in ("0.3", "1.7", "4.4", "9.1"):
                total = normal_cdf(mp.mpf(y), 192) + normal_cdf(-mp.mpf(y), 192)
                assert abs(total - 1) < mp.mpf(2) ** -180

    def test_reference_value(self):
        assert abs(float(normal_cdf(mp.mpf("1.96"), 128)) - 0.9750021048517795) < 1e-15

    def test_matches_erfc_route(self):
        # Phi(y) = erfc(-y/sqrt(2))/2, a route that does not go through
        # mpmath.ncdf, at 200 bits more than the value carries
        for bits in (64, 256):
            for text in ("-12", "-3.5", "0.25", "2", "7.9", "8.5", "12"):
                y = mp.mpf(text)
                ours = normal_cdf(y, bits)
                with mp.workprec(bits + 200):
                    reference = mp.erfc(-y / mp.sqrt(2)) / 2
                    assert abs(ours - reference) <= mp.mpf(2) ** -bits * reference


# Oracles: the row scale, the pointwise estimate and the density residual
# as they were computed before centering_scaling returned the whole frame
# (sigma and scale rebuilt by each caller from center, spread and w).


def old_row_scale(n, w):
    return w ** (2 * n + 1) / mp.mpf(factorial(2 * n))


@lru_cache(maxsize=None)
def row_mass_ratio(n, bits):
    """Oracle: the scaled row summed entry by entry, rounded at bits + 16,
    times the old row scale."""
    with mp.workprec(bits + 16):
        mass = mp.mpf(sum(modified_legendre_row(n))) * old_row_scale(n, saddle_constant(bits + 16))
    with mp.workprec(bits):
        return +mass


def old_normal_approximation(n, j, precision_bits):
    with mp.workprec(precision_bits + 16):
        cs = centering_scaling(n, precision_bits + 16)
        w = saddle_constant(precision_bits + 16)
        x = (j - cs.center) / mp.sqrt(cs.spread)
        value = (
            mp.mpf(factorial(2 * n))
            / (mp.sqrt(2 * mp.pi * cs.spread) * mp.mpf(factorial(2 * j)) * w ** (2 * n + 1))
            * mp.e ** (-x * x / 2)
        )
    with mp.workprec(precision_bits):
        return +value


def old_max_density_residual(n, precision_bits):
    row = modified_legendre_row(n)
    with mp.workprec(precision_bits + 16):
        cs = centering_scaling(n, precision_bits + 16)
        sqrt_spread = mp.sqrt(cs.spread)
        scale = old_row_scale(n, saddle_constant(precision_bits + 16))
        inv_sqrt2pi = 1 / mp.sqrt(2 * mp.pi)
        worst = mp.mpf(0)
        for j in range(n + 1):
            x = (j - cs.center) / sqrt_spread
            gauss = inv_sqrt2pi * mp.e ** (-x * x / 2)
            worst = max(worst, abs(sqrt_spread * scale * mp.mpf(row[j]) - gauss))
    with mp.workprec(precision_bits):
        return +worst


def whole_row_max_density_residual(n, precision_bits):
    """Oracle: the density residual of every column of the row, the scan
    that `max_density_residual` ran before it skipped the columns that
    cannot hold the maximum."""
    row = modified_legendre_row(n)
    with mp.workprec(precision_bits + 16):
        cs = centering_scaling(n, precision_bits + 16)
        worst = max(
            abs(cs.sigma * cs.scale * mp.mpf(c) - mp.npdf((j - cs.center) / cs.sigma))
            for j, c in enumerate(row)
        )
    with mp.workprec(precision_bits):
        return +worst


def old_scaled_cdf(n, ys, bits):
    """Oracle: the prefix sums of the whole scaled row, rounded at
    bits + 16, times the old row scale."""
    prefix = list(accumulate(modified_legendre_row(n)))
    with mp.workprec(bits + 16):
        cs = centering_scaling(n, bits + 16)
        scale = old_row_scale(n, saddle_constant(bits + 16))
        old = []
        for y in ys:
            j_hi = min(int(mp.floor(cs.center + mp.mpf(y) * mp.sqrt(cs.spread))), n)
            old.append(mp.mpf(prefix[j_hi]) * scale if j_hi >= 0 else mp.mpf(0))
    with mp.workprec(bits):
        return [+v for v in old]


# the grid of `clt --report cdf`, y = -4.0, -3.9, ..., 4.0
CDF_YS = [i / 10 for i in range(-40, 41)]


def ulp(x, bits):
    """One unit in the last place of the nonzero mpf x at `bits` bits."""
    return mp.mpf(2) ** (mp.mag(x) - bits)


BITS = st.sampled_from([64, 256, 1024])


class TestFrameOracles:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 400), bits=BITS)
    @example(n=800, bits=64)
    @example(n=1600, bits=256)
    @example(n=1999, bits=1024)
    def test_scale_and_mass_bit_for_bit(self, n, bits):
        with mp.workprec(bits):
            assert centering_scaling(n, bits).scale == old_row_scale(n, saddle_constant(bits))
        assert total_mass_ratio(n, bits) == row_mass_ratio(n, bits)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 400), bits=BITS,
        ys=st.lists(st.floats(-8, 8), min_size=1, max_size=5),
    )
    @example(n=800, bits=64, ys=CDF_YS)
    @example(n=800, bits=256, ys=CDF_YS)
    @example(n=800, bits=1024, ys=CDF_YS)
    @example(n=1999, bits=64, ys=CDF_YS)
    @example(n=1999, bits=256, ys=CDF_YS)
    @example(n=1999, bits=1024, ys=CDF_YS)
    @example(n=100, bits=256, ys=[])
    @example(n=2, bits=64, ys=[-8.0, -5.5])  # every J < 0
    @example(n=400, bits=256, ys=[8.0, 40.0])  # J = n
    @example(n=400, bits=1024, ys=[-8.0])
    def test_scaled_cdf_bit_for_bit(self, n, bits, ys):
        assert scaled_cdf(n, ys, bits) == old_scaled_cdf(n, ys, bits)

    @pytest.mark.parametrize("n,bits", [(3, 64), (400, 256), (800, 1024)])
    def test_scaled_cdf_straddle_takes_one_exact_call(self, n, bits, monkeypatch):
        calls = []

        def widened_first(n, kernel_bits):
            calls.append(kernel_bits)
            lo, hi, e = legendre_row_mass_bounds(n, kernel_bits)
            if len(calls) > 1:
                return lo, hi, e
            pad = 1 << max(0, hi.bit_length() - bits + 2)  # 4 units of M_n(1) at bits
            return lo - pad, hi + pad, e

        monkeypatch.setattr(clt, "legendre_row_mass_bounds", widened_first)
        ys = [-2, 0, 3, 40]
        assert scaled_cdf(n, ys, bits) == old_scaled_cdf(n, ys, bits)
        assert calls == [bits + 16 + clt._CDF_GUARD, factorial(2 * n).bit_length()]

    @pytest.mark.parametrize("n", [100, 400, 1999])
    def test_scaled_cdf_grid_and_far_tail_take_no_exact_call(self, n, monkeypatch):
        # the guard keeps the enclosure inside a unit of every sum from
        # y = -12 up (2^-68 M_100(1)), so the first kernel call decides them
        calls, real = [], legendre_row_mass_bounds
        monkeypatch.setattr(
            clt, "legendre_row_mass_bounds", lambda n, bits: calls.append(bits) or real(n, bits)
        )
        for bits in (64, 256, 1024):
            scaled_cdf(n, [-12.0, -8.0, *CDF_YS], bits)
        assert calls == [bits + 16 + clt._CDF_GUARD for bits in (64, 256, 1024)]

    def test_scaled_cdf_every_j_below_zero_calls_no_kernel(self, monkeypatch):
        def no_call(*args):
            raise AssertionError("a kernel ran for an empty sum")

        monkeypatch.setattr(clt, "legendre_row_mass_bounds", no_call)
        monkeypatch.setattr(clt, "triangle_band", no_call)
        assert scaled_cdf(2, [-8.0, -5.5], 64) == [0, 0]
        assert scaled_cdf(2, [], 64) == []

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 400), bits=BITS)
    def test_normal_approximation_within_one_ulp(self, data, n, bits):
        j = data.draw(st.integers(1, n))
        new, old = normal_approximation(n, j, bits), old_normal_approximation(n, j, bits)
        assert abs(new - old) <= ulp(max(new, old), bits)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 400), bits=BITS)
    def test_density_residual_within_guard_bits(self, n, bits):
        # Both paths share x, sigma and scale and differ only in phi(x).
        # Each phi is a few roundings of at most 2^-(bits+16) relative on
        # values below 1/2 (phi, and phi x^2/2 for the rounding of e in
        # e^(-x^2/2)), so it is within 8 units of 2^-(bits+16); the two
        # maxima differ by at most 16 such units before the final rounding
        # to bits, which adds at most one ulp of the result.
        new, old = max_density_residual(n, bits), old_max_density_residual(n, bits)
        with mp.workprec(bits + 64):
            assert abs(new - old) <= mp.mpf(2) ** -(bits + 12) + ulp(max(new, old), bits)


class TestDensityResidualSkip:
    """max_density_residual evaluates only the columns that can hold the
    maximum, and returns the mpf of the whole-row scan."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 400), bits=st.sampled_from([64, 128, 256, 1024]))
    @example(n=2, bits=64)
    @example(n=400, bits=1024)
    @example(n=800, bits=256)
    @example(n=1999, bits=64)
    def test_equals_whole_row_scan(self, n, bits):
        assert max_density_residual(n, bits) == whole_row_max_density_residual(n, bits)

    def test_evaluates_few_columns(self, monkeypatch):
        calls, real = [], mp.npdf
        monkeypatch.setattr(mp, "npdf", lambda x: calls.append(x) or real(x))
        max_density_residual(400, 256)
        assert 0 < len(calls) <= 40  # of 401 columns


class TestNormalGrid:
    """cdf_grid takes its normal values from one memoized grid a
    precision."""

    def test_normal_values(self):
        for bits in (64, 256):
            for y, _, p in clt.cdf_grid(20, bits):
                assert p == normal_cdf(y, bits)

    def test_one_grid_a_precision(self, monkeypatch):
        clt._normal_grid.cache_clear()
        calls, real = [], mp.ncdf
        monkeypatch.setattr(mp, "ncdf", lambda x: calls.append(x) or real(x))
        clt.cdf_grid(100, 192)
        assert len(calls) == 81
        clt.cdf_grid(400, 192)
        assert len(calls) == 81
        clt.cdf_grid(100, 200)
        assert len(calls) == 162

    def test_memo_is_bounded(self):
        assert 0 < clt._normal_grid.cache_info().maxsize <= 16


class TestMassRounding:
    """total_mass_ratio rounds the ends of the bounds kernel and, only when
    they round apart, calls the same kernel once more at bitlen((2n)!)
    bits, where it is exact."""

    @pytest.mark.parametrize("n,bits", [(3, 64), (200, 256), (1600, 1024)])
    def test_straddling_interval_falls_back_to_exact(self, n, bits, monkeypatch):
        calls = []

        def straddling_first(n, bits):
            calls.append(bits)
            lo, hi, e = legendre_row_mass_bounds(n, bits)
            if len(calls) > 1:
                return lo, hi, e
            pad = 1 << max(0, hi.bit_length() - bits + 2)  # 4 units at bits
            with mp.workprec(bits):
                assert mp.mpf((lo - pad, e)) != mp.mpf((hi + pad, e))
            return lo - pad, hi + pad, e

        monkeypatch.setattr(clt, "legendre_row_mass_bounds", straddling_first)
        assert total_mass_ratio(n, bits) == row_mass_ratio(n, bits)
        assert calls == [bits + 16, factorial(2 * n).bit_length()]

    def test_real_tie_takes_two_kernel_calls(self, monkeypatch):
        """M_160(1) is 2^160 times an odd number of 2065 bits, a rounding
        midpoint at 2064 bits, so at 2048 bits the real bounds round
        apart; the spy only counts the calls."""
        mass = sum(modified_legendre_row(160))
        assert (mass >> 160) & 1 and (mass >> 160).bit_length() == 2065
        calls = []
        monkeypatch.setattr(
            clt, "legendre_row_mass_bounds",
            lambda n, bits: calls.append(bits) or legendre_row_mass_bounds(n, bits),
        )
        assert total_mass_ratio(160, 2048) == row_mass_ratio(160, 2048)
        assert calls == [2064, factorial(320).bit_length()]
