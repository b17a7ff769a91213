"""Exact kernel tests.

Derived expected values were fixed by hand-unrolling the recurrence or by
an independent oracle run; they are frozen here as plain integers.
"""

from decimal import Decimal, Inexact, getcontext, localcontext
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lslab import triangles
from lslab.cache import parse_record, triangle_record
from lslab.errors import CacheCorruptionError, ResourceLimitError
from lslab.triangles import (
    CHEBYSHEV,
    GAMMA_ZERO,
    LEGENDRE,
    MAX_ROWS,
    GammaParam,
    chebyshev_stirling_binsum,
    format_entry,
    gamma_zero_identity,
    iter_triangle,
    jacobi_stirling,
    jacobi_stirling_explicit,
    legendre_from_chebyshev,
    legendre_row_mass,
    legendre_stirling_altsum,
    legendre_stirling_binsum,
    modified_legendre_row,
    odd_power_cancellation,
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


class TestGammaParam:
    def test_families(self):
        assert LEGENDRE.family == "legendre"
        assert CHEBYSHEV.family == "chebyshev"
        assert GAMMA_ZERO.family == "gamma-zero"
        assert GammaParam.parse("7/3").family is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            GammaParam(Fraction(-1, 2))


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
        assert jacobi_stirling(n, j, GammaParam(Fraction(gamma))) == expected

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
            lambda: legendre_stirling_altsum(n, 5),
            lambda: jacobi_stirling_explicit(n, 5, 1),
            lambda: legendre_row_mass(n),
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
        g = GammaParam.parse(gamma)
        rows = [(n, [format_entry(v) for v in row]) for n, row in iter_triangle(g, 30)]
        assert rows == [
            (n, [format_entry(brute_recurrence(n, j, g.value)) for j in range(n + 1)])
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
        assert legendre_stirling_altsum(n, j) == expected

    @pytest.mark.parametrize("n,j,expected", [(3, 2, 8), (2, 5, 0), (4, 2, 52)])
    def test_binsum(self, n, j, expected):
        assert legendre_stirling_binsum(n, j) == expected

    @pytest.mark.parametrize("n,j,expected", [(3, 2, 5), (6, 6, 1), (2, 1, 1)])
    def test_chebyshev_binsum(self, n, j, expected):
        assert chebyshev_stirling_binsum(n, j) == expected

    def test_odd_power_cancellation(self):
        for j in range(7):
            for ell in range(7):
                assert odd_power_cancellation(j, ell) == 0


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


class TestRowMass:
    """legendre_row_mass regroups the binomial sum; the scaled row summed
    entry by entry is the independent side."""

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=0, max_value=300))
    def test_equals_row_sum(self, n):
        assert legendre_row_mass(n) == sum(modified_legendre_row(n))

    def test_equals_row_sum_far_out(self):
        assert legendre_row_mass(800) == sum(modified_legendre_row(800))


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
        assert gamma_zero_identity(n, j) == expected

    def test_rejects_zero_indices(self):
        with pytest.raises(ValueError):
            gamma_zero_identity(0, 1)


class TestFirstColumn:
    def test_doubling_law(self):
        for n in range(1, 64):
            assert jacobi_stirling(n, 1, LEGENDRE) == 2 ** (n - 1)


class TestExport:
    def test_format_entry(self):
        assert format_entry(8) == "8"
        assert format_entry(Fraction(5, 1)) == "5"
        assert format_entry(Fraction(7, 3)) == "7/3"

    @pytest.mark.parametrize(
        "line",
        [
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
        ],
    )
    def test_parse_record_rejects(self, line):
        with pytest.raises(CacheCorruptionError):
            parse_record(line)

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
        entries = flat(GammaParam(Fraction(2, 3)))
        lines = [triangle_record(*e) for e in entries]
        assert '{"n": 2, "j": 1, "value": "4/3"}' in lines
        records = [json.loads(line) for line in lines]
        assert [(r["n"], r["j"], Fraction(r["value"])) for r in records] == entries
