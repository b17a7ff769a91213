"""Exact kernel tests.

Derived expected values were fixed by hand-unrolling the recurrence or by
an independent oracle run; they are frozen here as plain integers.
"""

import io
import time
from decimal import Decimal, Inexact, getcontext, localcontext
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lslab import cache, triangles, verify
from lslab.cache import parse_record, triangle_record
from lslab.errors import CacheCorruptionError, ResourceLimitError
from lslab.triangles import (
    CHEBYSHEV,
    GAMMA_ZERO,
    LEGENDRE,
    MAX_ROWS,
    chebyshev_stirling_binsum,
    format_entry,
    iter_triangle,
    jacobi_stirling,
    jacobi_stirling_explicit,
    legendre_from_chebyshev,
    legendre_row_mass_bounds,
    legendre_stirling_binsum,
    modified_legendre_row,
    odd_power_cancellation,
    scale_row,
    triangle_band,
    triangle_row,
)


@lru_cache(maxsize=None)
def brute_recurrence(n, j, gamma):
    """Independent oracle: the literal two-parent recursion, memoized on
    its arguments."""
    gamma = Fraction(gamma)
    if j == 0:
        return 1 if n == 0 else 0
    if n == 0:
        return 1 if j == 0 else 0
    if j > n:
        return 0
    return brute_recurrence(n - 1, j - 1, gamma) + j * (j + 2 * gamma - 1) * brute_recurrence(n - 1, j, gamma)


class TestGammaValidation:
    """Every entry point takes any value Fraction() takes, and refuses a
    negative gamma or one with more than 64 bits in its numerator or
    denominator."""

    @pytest.mark.parametrize(
        "gamma",
        [Fraction(-1, 2), Fraction(2**64), Fraction(1, 2**64), "0.5", "1/0", " 2/3", "1/" + "9" * 20],
        ids=["negative", "numerator-65-bits", "denominator-65-bits", "text-decimal",
             "text-zero-denominator", "text-space", "text-20-digits"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda g: triangle_row(g, 3),
            lambda g: jacobi_stirling(3, 2, g),
            lambda g: jacobi_stirling_explicit(3, 2, g),
            lambda g: next(iter_triangle(g, 3)),
        ],
        ids=["triangle_row", "jacobi_stirling", "jacobi_stirling_explicit", "iter_triangle"],
    )
    def test_rejected(self, call, gamma):
        with pytest.raises(ValueError, match="gamma"):
            call(gamma)

    def test_text_checked_before_fraction_parses_it(self):
        """Fraction('1e-9999999') alone takes seconds; the text check
        refuses it first."""
        start = time.perf_counter()
        with pytest.raises(ValueError, match="gamma"):
            triangle_row("1e-9999999", 3)
        assert time.perf_counter() - start < 1

    def test_64_bits_and_other_types_accepted(self):
        g = Fraction(1, 2**64 - 1)
        assert jacobi_stirling(2, 1, g) == 2 * g == jacobi_stirling_explicit(2, 1, g)
        assert triangle_row("2/3", 4) == triangle_row(Fraction(2, 3), 4)
        assert triangle_row(0.5, 4) == triangle_row(CHEBYSHEV, 4)


class TestRecurrence:
    @pytest.mark.parametrize(
        "n,j,gamma,expected",
        [
            (2, 1, 1, 2),
            (0, 0, Fraction(7, 3), 1),
            (3, 2, Fraction(1, 2), 5),
            (2, 1, 2, 4),
        ],
    )
    def test_examples(self, n, j, gamma, expected):
        assert jacobi_stirling(n, j, gamma) == expected

    def test_matches_brute_oracle(self):
        for gamma in (Fraction(1), Fraction(1, 2), Fraction(7, 3), Fraction(0)):
            for n in range(8):
                for j in range(n + 2):
                    assert jacobi_stirling(n, j, gamma) == brute_recurrence(n, j, gamma)

    def test_boundaries(self):
        assert triangle_row(LEGENDRE, 0) == (1,)
        for n in range(1, 12):
            row = triangle_row(LEGENDRE, n)
            assert len(row) == n + 1
            assert row[0] == 0 == jacobi_stirling(n, 0, LEGENDRE)
            assert row[n] == 1 == jacobi_stirling(n, n, LEGENDRE)
            assert jacobi_stirling(n, n + 1, LEGENDRE) == 0

    def test_parent_relation(self):
        for n in range(2, 15):
            row, prev = triangle_row(CHEBYSHEV, n), triangle_row(CHEBYSHEV, n - 1) + (0,)
            for j in range(1, n + 1):
                assert row[j] == prev[j - 1] + j * j * prev[j]

    def test_integrality_special_gammas(self):
        for gamma in (GAMMA_ZERO, CHEBYSHEV, LEGENDRE):
            for n, row in iter_triangle(gamma, 12):
                assert len(row) == n + 1
                for v in row:
                    assert isinstance(v, Decimal) and v.as_tuple().exponent == 0
                    assert v == int(v) >= 0

    def test_decimal_rows_keep_the_callers_context(self):
        """The exact context is entered only around each row's sweep: a
        caller's 6-digit context rounds none of the entries, and it is
        in force while the generator is suspended."""
        with localcontext() as caller:
            caller.prec = 6
            for n, row in iter_triangle(LEGENDRE, 60):
                assert getcontext() is caller
                assert [format_entry(v) for v in row] == [
                    format_entry(v) for v in triangle_row(LEGENDRE, n)
                ]
            assert n == 60
            assert getcontext() is caller and caller.prec == 6
        with pytest.raises(Inexact):
            triangles._EXACT.to_integral_exact(Decimal("1.5"))

    def test_row_cap(self):
        """Every exact kernel refuses row MAX_ROWS before doing any work."""
        n = MAX_ROWS
        refused = [
            lambda: triangle_row(LEGENDRE, n),
            lambda: jacobi_stirling(n, 3, LEGENDRE),
            lambda: jacobi_stirling(n, n + 5, CHEBYSHEV),
            lambda: modified_legendre_row(n),
            lambda: next(iter_triangle(LEGENDRE, n)),
            lambda: legendre_stirling_binsum(n, 5),
            lambda: chebyshev_stirling_binsum(n, 5),
            lambda: jacobi_stirling_explicit(n, 5, 1),
            lambda: legendre_row_mass_bounds(n, 64),
            lambda: triangle_band(LEGENDRE, n, n - 5),
        ]
        for call in refused:
            with pytest.raises(ResourceLimitError):
                call()
        assert jacobi_stirling(MAX_ROWS - 1, MAX_ROWS - 1, LEGENDRE) == 1

    def test_row_memo_bounded(self):
        for n in range(3 * triangles.ROW_MEMO_SIZE):
            triangle_row(GAMMA_ZERO, n)
            modified_legendre_row(n)
        assert len(triangles._ROWS) <= triangles.ROW_MEMO_SIZE


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(min_value=0, max_value=20),
        q=st.integers(min_value=1, max_value=12),
        n=st.integers(min_value=0, max_value=30),
        data=st.data(),
    )
    def test_banded_entry_equals_row_and_oracle(self, p, q, n, data):
        """The Q^(n-j)-scaled integer sweep, as a band, as a row from row 0
        and as a row from a memoized lower row, against the Fraction
        oracle and, for gamma > 0, the explicit sum."""
        j = data.draw(st.integers(min_value=0, max_value=n + 1))
        gamma = Fraction(p, q)
        entry = jacobi_stirling(n, j, gamma)
        assert entry == brute_recurrence(n, j, gamma)
        triangles._ROWS.clear()
        assert (triangle_row(gamma, n)[j] if j <= n else 0) == entry
        triangles._ROWS.clear()
        triangle_row(gamma, n // 2)
        assert (triangle_row(gamma, n)[j] if j <= n else 0) == entry
        if gamma > 0:
            assert jacobi_stirling_explicit(n, j, gamma) == entry

    @pytest.mark.parametrize("gamma", ["0", "1/2", "1", "2/3", "7/3"])
    def test_exported_records_match_oracle(self, gamma):
        """Decimal rows (2*gamma an integer) and scaled integer rows
        (otherwise) print the records of the Fraction oracle."""
        g = Fraction(gamma)
        rows = [(n, [format_entry(v) for v in row]) for n, row in iter_triangle(g, 30)]
        assert rows == [
            (n, [format_entry(brute_recurrence(n, j, g)) for j in range(n + 1)])
            for n in range(31)
        ]

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=0, max_value=60), data=st.data())
    def test_modified_row_is_scaled_entry(self, n, data):
        j = data.draw(st.integers(min_value=0, max_value=n))
        assert modified_legendre_row(n)[j] == factorial(2 * j) * jacobi_stirling(n, j, 1)


class TestExplicit:
    @pytest.mark.parametrize("n,j,expected", [(3, 2, 8), (5, 0, 0), (4, 2, 52)])
    def test_legendre_examples(self, n, j, expected):
        assert jacobi_stirling_explicit(n, j, 1) == expected

    def test_requires_positive_gamma(self):
        with pytest.raises(ValueError):
            jacobi_stirling_explicit(3, 2, 0)

    def test_matches_recurrence_small_grid(self):
        gammas = (Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(2), Fraction(2, 3),
                  Fraction(7, 3), Fraction(3, 7))
        for gamma in gammas:
            for n in range(31):
                for j in range(n + 1):
                    assert jacobi_stirling_explicit(n, j, gamma) == jacobi_stirling(n, j, gamma)


class TestDirectSums:
    @pytest.mark.parametrize("n,j,expected", [(1, 1, 1), (3, 2, 8), (4, 3, 20)])
    def test_altsum(self, n, j, expected):
        """The (2r+1)-weighted alternating sum, kept as a test oracle, gives
        the entry, and so does the folded sum that replaced it."""
        assert alternating_sum(n, j) == expected == legendre_stirling_binsum(n, j)

    @pytest.mark.parametrize(
        "n,j,expected", [(3, 2, 8), (2, 5, 0), (4, 2, 52), (1, 1, 1), (4, 3, 20)]
    )
    def test_binsum(self, n, j, expected):
        assert legendre_stirling_binsum(n, j) == expected

    @pytest.mark.parametrize("n,j,expected", [(3, 2, 5), (6, 6, 1), (2, 1, 1)])
    def test_chebyshev_binsum(self, n, j, expected):
        assert chebyshev_stirling_binsum(n, j) == expected

    def test_odd_power_cancellation(self):
        for j in range(7):
            for ell in range(7):
                assert odd_power_cancellation(j, ell) == 0

    def test_folded_sums_match_rows(self):
        """Both folded sums give the recurrence's entry, and 0 past the
        end of the row, for every n <= 39 and j <= n + 2."""
        for gamma, binsum in ((LEGENDRE, legendre_stirling_binsum),
                              (CHEBYSHEV, chebyshev_stirling_binsum)):
            for n in range(40):
                row = triangle_row(gamma, n)
                assert [binsum(n, j) for j in range(n + 3)] == [*row, 0, 0]


def alternating_sum(n, j):
    """Oracle: the gamma = 1 entry as sum_{r=0..j} (-1)^(r+j) (2r+1)
    (r(r+1))^n / ((j-r)! (j+r+1)!), in exact Fractions."""
    total = sum(
        Fraction((-1) ** (r + j) * (2 * r + 1) * (r * (r + 1)) ** n,
                 factorial(j - r) * factorial(j + r + 1))
        for r in range(j + 1)
    )
    assert total.denominator == 1
    return int(total)


def unfolded_binsum(n, j, base):
    """Oracle: sum_{nu=0..2j} (-1)^nu C(2j, nu) base(j - nu)^n / (2j)!,
    term by term with math.comb over the whole range of nu."""
    total = sum((-1) ** nu * comb(2 * j, nu) * base(j - nu) ** n for nu in range(2 * j + 1))
    q, rem = divmod(total, factorial(2 * j))
    assert rem == 0
    return q


class TestFoldedSums:
    """The folded sums against the unfolded central binomial sums they
    halve; the oracle keeps every term and the binomials of math.comb."""

    def test_legendre_ratio_target(self):
        assert legendre_stirling_binsum(1000, 930) == unfolded_binsum(1000, 930, lambda k: k * (k + 1))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=0, max_value=200), j=st.integers(min_value=0, max_value=210))
    def test_equal_unfolded(self, n, j):
        assert legendre_stirling_binsum(n, j) == unfolded_binsum(n, j, lambda k: k * (k + 1))
        assert chebyshev_stirling_binsum(n, j) == unfolded_binsum(n, j, lambda k: k * k)

    @settings(max_examples=60, deadline=None)
    @given(j=st.integers(min_value=0, max_value=400), data=st.data())
    def test_ballot_numbers(self, j, data):
        """(2j)! (2k+1)/((j-k)! (j+k+1)!) = B(j, k) = C(2j, j-k) - C(2j, j-k-1):
        the (2k+1)-weighted alternating sum over k <= j is the folded sum."""
        k = data.draw(st.integers(min_value=0, max_value=j))
        ballot = comb(2 * j, j - k) - (comb(2 * j, j - k - 1) if k < j else 0)
        assert Fraction(factorial(2 * j) * (2 * k + 1), factorial(j - k) * factorial(j + k + 1)) == ballot

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(min_value=0, max_value=300))
    def test_central_binomials(self, m):
        """The one walk along C(2m, .) that every central binomial sum
        and the mass weights read."""
        assert list(triangles._central_binomials(m)) == [comb(2 * m, i) for i in range(m + 1)]


class TestBand:
    """`triangle_band` reads the row memo: a memoized row is sliced, a
    missing one is swept from the nearest lower memoized row as a band,
    and the memo keeps the same keys."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """(n, j_lo, start row index or None) of every `_sweep` call,
        with an empty memo."""
        monkeypatch.setattr(triangles, "_ROWS", {})
        calls, real = [], triangles._sweep

        def spy(gamma, n, j_lo, j_hi, start=None):
            calls.append((n, j_lo, start and start[0]))
            return real(gamma, n, j_lo, j_hi, start)

        monkeypatch.setattr(triangles, "_sweep", spy)
        return calls

    @pytest.mark.parametrize("gamma", [LEGENDRE, Fraction(2, 3)])
    def test_slice_of_a_memoized_row(self, gamma, sweeps):
        row = triangle_row(gamma, 60)
        keys = list(triangles._ROWS)
        assert triangle_band(gamma, 60, 45) == row[45:]
        assert triangle_band(gamma, 60, 61) == ()
        assert sweeps[1:] == [(60, 45, 60), (60, 61, 60)]
        assert list(triangles._ROWS) == keys

    @pytest.mark.parametrize("gamma", [LEGENDRE, Fraction(2, 3)])
    def test_rolled_from_a_lower_memoized_row(self, gamma, sweeps):
        triangle_row(gamma, 20)
        triangle_row(gamma, 40)
        keys = list(triangles._ROWS)
        band = triangle_band(gamma, 55, 50)
        assert sweeps[-1] == (55, 50, 40)
        assert band == tuple(brute_recurrence(55, j, gamma) for j in range(50, 56))
        assert list(triangles._ROWS) == keys

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.integers(min_value=0, max_value=9),
        q=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=0, max_value=30),
        data=st.data(),
    )
    def test_band_equals_oracle_from_any_start(self, p, q, n, data):
        gamma = Fraction(p, q)
        j_lo = data.draw(st.integers(min_value=0, max_value=n + 1))
        r = data.draw(st.integers(min_value=0, max_value=n))
        expected = tuple(brute_recurrence(n, j, gamma) for j in range(j_lo, n + 1))
        triangles._ROWS.clear()
        assert triangle_band(gamma, n, j_lo) == expected
        triangle_row(gamma, r)
        assert triangle_band(gamma, n, j_lo) == expected
        assert [k for *_, k in triangles._ROWS] == [r]

    def test_scaled_band_is_the_top_of_the_scaled_row(self):
        for n, j_lo in [(0, 0), (5, 0), (30, 1), (30, 17), (30, 30), (30, 31)]:
            band = scale_row(triangle_band(LEGENDRE, n, j_lo), j_lo)
            assert band == modified_legendre_row(n)[j_lo:]

    @pytest.mark.parametrize("j_lo", [-1, 12])
    def test_band_outside_the_row(self, j_lo):
        with pytest.raises(ValueError):
            triangle_band(LEGENDRE, 10, j_lo)


class TestModified:
    @pytest.mark.parametrize("n,j,expected", [(3, 2, 192), (3, 3, 720), (1, 1, 2)])
    def test_examples(self, n, j, expected):
        assert modified_legendre_row(n)[j] == expected

    def test_row_matches_scaled_triangle(self):
        for n in range(15):
            row = modified_legendre_row(n)
            assert list(row) == [factorial(2 * j) * brute_recurrence(n, j, 1) for j in range(n + 1)]

    def test_banded_matches_row(self):
        for n, j in [(10, 3), (25, 20), (40, 12), (40, 40), (17, 0)]:
            assert factorial(2 * j) * jacobi_stirling(n, j, LEGENDRE) == modified_legendre_row(n)[j]

    def test_banded_matches_direct_sum(self):
        for n, j in [(60, 55), (80, 20)]:
            assert jacobi_stirling(n, j, LEGENDRE) == legendre_stirling_binsum(n, j)


@lru_cache(maxsize=None)
def row_mass(n):
    """Oracle: M_n(1), the scaled row summed entry by entry."""
    return sum(modified_legendre_row(n))


class TestRowMass:
    """From bitlen((2n)!) bits on, the bounds kernel is exact; the scaled
    row summed entry by entry is the independent side."""

    def test_equals_row_sum(self):
        for n in range(61):
            assert_exact_at_bitlen_of_factorial(n)

    def test_equals_row_sum_far_out(self):
        for n in (200, 1999):
            assert_exact_at_bitlen_of_factorial(n)


def assert_exact_at_bitlen_of_factorial(n):
    lo, hi, e = legendre_row_mass_bounds(n, factorial(2 * n).bit_length())
    assert lo == hi == row_mass(n) and e == 0


def assert_tight_bounds(n, bits, mass):
    """lo 2^e <= M_n(1) <= hi 2^e, with the width below 2^-(bits+36)
    M_n(1), the bound the triangles docstring proves."""
    lo, hi, e = legendre_row_mass_bounds(n, bits)
    assert lo << e <= mass <= hi << e
    assert (hi - lo) << (e + bits + 36) <= mass


class TestRowMassBounds:
    """legendre_row_mass_bounds encloses the exact mass, and the
    enclosure is far narrower than one unit at the requested bits."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=0, max_value=400), bits=st.sampled_from([64, 256, 1024, 2048]))
    def test_encloses_exact_mass(self, n, bits):
        assert_tight_bounds(n, bits, row_mass(n))

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.integers(min_value=2, max_value=2000 * 2001),
        n=st.integers(min_value=1, max_value=2000),
        p=st.integers(min_value=2, max_value=80),
    )
    def test_truncated_power_lemma(self, x, n, p):
        # x^n (1 - 2^(1-p))^c <= y 2^f <= x^n, the first step of the proof
        p = max(p, n.bit_length() + 2)
        y, f, c = triangles._truncated_power(x, n, p)
        exact = x**n
        assert exact * (2 ** (p - 1) - 1) ** c <= y << (f + (p - 1) * c)
        assert y << f <= exact
        assert c < n and (c == 0 or y < 2**p)

    @pytest.mark.parametrize("n", [800, 1600, 1999])
    def test_encloses_exact_mass_far_out(self, n):
        mass = row_mass(n)
        for bits in (64, 256, 1024, 2048):
            assert_tight_bounds(n, bits, mass)


class TestConnections:
    @pytest.mark.parametrize("k,j,expected", [(1, 2, 8), (0, 1, 1), (1, 1, 4)])
    def test_odd(self, k, j, expected):
        assert legendre_from_chebyshev(2 * k + 1)[j] == expected

    @pytest.mark.parametrize("k,j,expected", [(1, 1, 2), (0, 0, 1), (2, 2, 52)])
    def test_even(self, k, j, expected):
        assert legendre_from_chebyshev(2 * k)[j] == expected

    def test_equals_legendre_triangle(self):
        for n in range(16):
            row = legendre_from_chebyshev(n)
            assert len(row) == n + 1
            for j in range(n + 1):
                assert row[j] == jacobi_stirling(n, j, LEGENDRE)


class TestGammaZero:
    @pytest.mark.parametrize("n,j,expected", [(3, 2, 2), (1, 1, 1), (4, 2, 4)])
    def test_examples(self, n, j, expected):
        # T_0(n, j) = T_1(n-1, j-1)
        assert triangle_row(GAMMA_ZERO, n)[j] == triangle_row(LEGENDRE, n - 1)[j - 1] == expected

    def test_mismatch_fails_its_line_only(self, monkeypatch):
        """A wrong gamma-zero entry is reported as one FAIL line; the
        suite still runs to its end."""
        real = triangles.triangle_row

        def one_wrong_entry(gamma, n):
            row = real(gamma, n)
            if gamma == GAMMA_ZERO and n == 17:
                return row[:5] + (row[5] + 1,) + row[6:]
            return row

        monkeypatch.setattr(triangles, "triangle_row", one_wrong_entry)
        results = list(verify.suite_identities(256))
        assert len(results) == 7
        assert [r.name for r in results if not r.passed] == ["gamma-zero index shift n<=40"]


class TestFirstColumn:
    def test_doubling_law(self):
        for n in range(1, 64):
            assert jacobi_stirling(n, 1, LEGENDRE) == 2 ** (n - 1)


# Lines parse_record rejects, each a near miss of a record; they also
# seed the near-miss lines of the block reader's property test.
NOT_RECORDS = [
    '{"j": 2, "n": 3, "value": "8"}',       # swapped keys
    '{"n": 3,  "j": 2, "value": "8"}',      # extra space
    '{"n": 3, "j": 2, "value": "8" }',
    '{"n":3, "j": 2, "value": "8"}',        # missing space
    '{"n": 3, "j": 2, "value": "8a"}',      # non-digit value
    '{"n": 3, "j": 2, "value": "-8"}',
    '{"n": 3, "j": 2, "value": "8.0"}',
    '{"n": 3, "j": 2, "value": ""}',
    '{"n": 3, "j": 2, "value": "8}',        # missing quote
    '{"n": 3, "j": 2, "value": 8}',
    '{"n": 10000, "j": 2, "value": "8"}',   # an index past MAX_ROWS - 1
    '{"n": 03, "j": 2, "value": "8"}',      # leading zeros
    '{"n": 3, "j": 2, "value": "08"}',
    '{"n": 3, "j": 2, "value": "4/03"}',
    '{"n": 3, "j": 2, "value": "4/"}',      # empty or doubled fraction parts
    '{"n": 3, "j": 2, "value": "/3"}',
    '{"n": 3, "j": 2, "value": "4/3/2"}',
    '{"n": 2, "j": 2, "value": "1/0"}',     # non-canonical fractions
    '{"n": 2, "j": 2, "value": "3/1"}',
    '{"n": 2, "j": 2, "value": "0/3"}',
    '{"n": \u0663, "j": 2, "value": "8"}',  # non-ASCII digits
    '{"n": 3, "j": 2, "value": "\u0668"}',
    '{"n": \u00b2, "j": 2, "value": "8"}',
    '{"n": 3, "j": 2, "value": "\ud800"}',
    '{"n": 3, "j": 2, "value": "8"}\n',
    "",
]


class TestExport:
    def test_format_entry(self):
        assert format_entry(8) == "8"
        assert format_entry(Fraction(5, 1)) == "5"
        assert format_entry(Fraction(7, 3)) == "7/3"

    @pytest.mark.parametrize("line", NOT_RECORDS)
    def test_parse_record_rejects(self, line):
        with pytest.raises(CacheCorruptionError):
            parse_record(line)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.sampled_from(NOT_RECORDS + [
            '{"n": 0, "j": 0, "value": "1"}',
            '{"n": 1999, "j": 1999, "value": "1"}',
            '{"n": 12, "j": 5, "value": "40/9"}',
        ]),
        edits=st.lists(
            st.tuples(st.integers(0, 40), st.sampled_from(list(b'09/ ",{}:n\n\xff-')) | st.none()),
            max_size=3,
        ),
        before=st.integers(0, 15),
        block_size=st.integers(1, 120),
        csv=st.booleans(),
    )
    def test_block_reader_stops_where_parse_record_rejects(
        self, seed, edits, before, block_size, csv
    ):
        """A near-miss line (a seed with up to three bytes replaced or
        deleted) among whole records, read in blocks of any size: the
        block reader prints exactly the lines before the first one that
        parse_record rejects, and raises parse_record's error for it."""
        line = bytearray(seed.encode("utf-8", "surrogatepass"))
        for pos, byte in edits:
            line[pos:pos + 1] = b"" if byte is None else bytes([byte])
        good = [
            (triangle_record(n, j, v) + "\n").encode()
            for n, row in iter_triangle(Fraction(2, 3), 4) for j, v in enumerate(row)
        ]
        data = b"".join(good[:before]) + bytes(line) + b"\n" + b"".join(good[before:])
        expected, error = [], None
        for raw in data.split(b"\n")[:-1]:
            text = raw.decode("ascii", "replace")
            try:
                n, j, value = parse_record(text)
            except CacheCorruptionError as exc:
                error = str(exc)
                break
            expected.append(f"{n},{j},{value}\n" if csv else text + "\n")
        printed, raised = [], None
        with mock.patch.object(cache, "BLOCK_SIZE", block_size):
            try:
                printed.extend(cache.checked_blocks(io.BytesIO(data), csv))
            except CacheCorruptionError as exc:
                raised = str(exc)
        assert "".join(printed) == "".join(expected)
        assert raised == error

    def test_iter_row_major(self):
        rows = list(iter_triangle(LEGENDRE, 3))
        assert [(n, len(row)) for n, row in rows] == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert rows[3][1][2] == 8

    def test_csv_writer(self, tmp_path, capsys):
        from lslab.cli import main

        argv = ["table", "--family", "legendre", "--n-max", "3", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,j,value"
        assert len(lines) == 11
        assert lines[-2] == "3,2,8"

    def test_jsonl_writer_round_trip(self):
        import json

        def flat(gamma):
            return [(n, j, v) for n, row in iter_triangle(gamma, 4) for j, v in enumerate(row)]

        rows = [json.loads(triangle_record(*e)) for e in flat(CHEBYSHEV)]
        assert len(rows) == 15
        assert {"n": 3, "j": 2, "value": "5"} in rows
        assert all(isinstance(r["value"], str) for r in rows)
        entries = flat(Fraction(2, 3))
        lines = [triangle_record(*e) for e in entries]
        assert '{"n": 2, "j": 1, "value": "4/3"}' in lines
        records = [json.loads(line) for line in lines]
        assert [(r["n"], r["j"], Fraction(r["value"])) for r in records] == entries
