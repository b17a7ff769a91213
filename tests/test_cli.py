"""CLI and cache behavior: outputs, exit codes, determinism, corruption
recovery."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lslab
from lslab import cache, clt, genpoly, laplace, sturm, triangles
from lslab.cache import parse_record, triangle_record
from lslab.cli import COMMANDS, main
from lslab.errors import CacheCorruptionError, CertificationError, KernelInvariantError
from lslab.precision import print_digits
from lslab.triangles import LEGENDRE, format_entry, jacobi_stirling


@pytest.fixture()
def int_str_limit():
    """The interpreter's default 4300-digit str(int) limit, set here and
    restored afterwards, whatever an earlier test left it at.  Row 1999
    peaks near j = 307 at about 8500 digits."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def _unlimited_str(value: int) -> str:
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(old)


class TestIntStrLimit:
    """Exact entries print from Python without lifting the limit."""

    def test_format_entry_and_record(self, int_str_limit):
        value = jacobi_stirling(1999, 307, 1)
        expected = _unlimited_str(value)
        assert len(expected) > 4300
        assert format_entry(value) == expected
        line = triangle_record(1999, 307, value)
        assert line == json.dumps({"n": 1999, "j": 307, "value": expected})
        assert parse_record(line) == (1999, 307, expected)
        odd = 2 * value + 1
        assert format_entry(Fraction(odd, 2)) == f"{_unlimited_str(odd)}/2"

    def test_write_cache(self, int_str_limit, tmp_path, monkeypatch):
        # the whole triangle to row 1999 is far too large, so the cache
        # file holds just one row of this one entry
        value = jacobi_stirling(1999, 307, 1)
        monkeypatch.setattr(cache, "iter_triangle", lambda gamma, n_max: [(1999, (value,))])
        path = tmp_path / "t.jsonl"
        cache.write_cache(path, LEGENDRE, 1999).close()
        with cache.read_cache(path, LEGENDRE, 1999) as fp:
            line = fp.read().decode()
        assert line == triangle_record(1999, 0, value) + "\n"
        assert json.loads(line)["value"] == _unlimited_str(value)
        assert sys.get_int_max_str_digits() == 4300


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _records(cache_dir) -> list[str]:
    """The data lines of the one cache file in cache_dir."""
    return next(cache_dir.glob("*.jsonl")).read_text().splitlines()[1:]


def _rehash(cache_dir, lines) -> None:
    """Rewrite the one cache file in cache_dir with these data lines under
    its header, its digest set to theirs: the file passes the hash check."""
    cache_file = next(cache_dir.glob("*.jsonl"))
    header = json.loads(cache_file.read_text().split("\n", 1)[0])
    data = "".join(line + "\n" for line in lines)
    header["sha256"] = hashlib.sha256(data.encode()).hexdigest()
    cache_file.write_text(json.dumps(header) + "\n" + data)


class TestCompute:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["compute", "--family", "legendre", "--n", "3", "--j", "2"], "8"),
            (["compute", "--family", "jacobi", "--gamma", "1/2", "--n", "3", "--j", "2"], "5"),
            (["compute", "--family", "legendre", "--n", "0", "--j", "0"], "1"),
            (["compute", "--family", "jacobi", "--gamma", "7/3", "--n", "2", "--j", "1"], "14/3"),
        ],
    )
    def test_values(self, argv, expected, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out.strip() == expected

    def test_entry_longer_than_int_str_limit(self, int_str_limit, capsys):
        # the command prints the entry and leaves the limit as it found it
        code, out, _ = run_cli(
            ["compute", "--family", "legendre", "--n", "1999", "--j", "307"], capsys
        )
        assert code == 0
        assert sys.get_int_max_str_digits() == 4300
        assert out.strip() == _unlimited_str(jacobi_stirling(1999, 307, 1))

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        jacobi = ["compute", "--family", "jacobi", "--n", "200", "--j", "100"]
        table = ["table", "--family", "jacobi", "--n-max", "3", "--cache-dir", str(tmp_path)]
        for argv in (
            ["compute", "--family", "jacobi", "--n", "1", "--j", "1"],        # gamma missing
            ["compute", "--family", "legendre", "--gamma", "1", "--n", "1", "--j", "1"],
            ["compute", "--family", "legendre", "--n", "1"],                  # j missing
            ["verify", "nosuch"],
            # --gamma is an integer or p/q, q > 0, at most 19 digits each
            [*jacobi, "--gamma=-1/2"],
            [*jacobi, "--gamma=1/0"],
            [*jacobi, "--gamma=1e-20000"],
            [*jacobi, "--gamma=1/" + "9" * 20],
            [*table, "--gamma=0.5"],
        ):
            start = time.perf_counter()
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert time.perf_counter() - start < 5
            assert ("bad --gamma" in err) == argv[-1].startswith("--gamma=")
        assert list(tmp_path.iterdir()) == []

    def test_resource_limit_exit_3(self, capsys):
        code, _, err = run_cli(
            ["compute", "--family", "legendre", "--n", "2500", "--j", "1"], capsys
        )
        assert code == 3
        assert "resource" in err.lower()


class TestRowCap:
    """Row 2000 is refused with exit 3 by every command that reads rows,
    root work past row 200 by `roots`, and a --precision-bits past 2048
    by every command that takes one (as is `roots --refine-bits`, in
    test_sturm), before any work is done.  `verify` takes no --n-max: its
    scan sizes are fixed."""

    @pytest.mark.parametrize(
        "command",
        [
            "clt --report ratio --n 2000 --j 5",
            "clt --report cdf --n 2000",
            "clt --report cdf --n 100000000",
            "clt --report residuals --n-list 100,2000",
            "table --family legendre --n-max 2000 --cache-dir {cache}",
            "roots --n 2000",
            "edgeworth --n 2000",
            "asymptotics --report mass --n-list 50,2000",
            "asymptotics --report saddle --n-list 2000",
            "asymptotics --report saddle --nu 200000 --n-list 100",
            "compute --family legendre --n 2000 --j 2600",
            "roots --n 1999",
            "verify edgeworth --precision-bits 2049",
            "verify all --precision-bits 2049",
            "verify identities --precision-bits 2049",
            "clt --report ratio --n 2 --j 1 --precision-bits 2049",
            "edgeworth --n 1999 --precision-bits 2049",
            "asymptotics --report saddle --n-list 2 --precision-bits 2049",
        ],
    )
    def test_exit_3_at_once(self, command, tmp_path, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(command.format(cache=tmp_path).split(), capsys)
        assert code == 3
        assert out == ""
        assert "resource limit" in err
        assert time.perf_counter() - start < 5
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command",
        [
            pytest.param(f"verify {suite} --n-max 8", id=suite)
            for suite in ["identities", "roots", "eisenstein", "clt", "edgeworth", "all"]
        ]
        + [
            # Sizes the retired option refused with exit 3.
            "verify all --n-max 1999",
            "verify identities --n-max 2000",
            "verify identities --n-max 201",
            "verify roots --n-max 1999",
        ],
    )
    def test_verify_n_max_cap_names_the_flag(self, command, capsys):
        argv = command.split()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert f"unrecognized arguments: --n-max {argv[-1]}" in err


class TestRatioIndexRange:
    """A j outside 1..n is a usage error before any work: the direct sum
    would take j + 1 big powers and (2j)! first."""

    def test_exit_2_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli("clt --report ratio --n 5 --j 100000".split(), capsys)
        assert code == 2
        assert out == ""
        assert "usage error" in err
        assert time.perf_counter() - start < 5


class TestSaddlePoint:
    """A saddle --z that is not a positive number of at most 2^64 is a
    usage error before any work: nan and inf would print a table of nan,
    and at z = 1e3000 printing the exponents alone takes over 30 s."""

    @pytest.mark.parametrize("z", ["nan", "inf", "0", "-1", "1e3000", "2e64"])
    def test_exit_2_at_once(self, z, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(f"asymptotics --report saddle --z {z} --n-list 2".split(), capsys)
        assert code == 2
        assert out == ""
        assert "usage error: z must be positive and at most 2^64" in err
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("z", ["1e-100000000", str(2**64)])
    def test_extremes_accepted(self, z, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(f"asymptotics --report saddle --z {z} --n-list 2".split(), capsys)
        assert code == 0
        assert len(out.splitlines()) == 2
        assert time.perf_counter() - start < 5

    def test_z_one_above_the_cap_is_refused(self, capsys):
        # 2^64 + 1 needs 65 bits; at 53 it would round to 2^64 and pass
        code, out, err = run_cli(
            f"asymptotics --report saddle --z {2**64 + 1} --n-list 2".split(), capsys
        )
        assert code == 2
        assert out == ""
        assert "usage error: z must be positive and at most 2^64" in err

    def test_z_parsed_at_the_command_precision(self, capsys):
        code, out, _ = run_cli("asymptotics --report saddle --z 0.1 --n-list 100".split(), capsys)
        assert code == 0
        with mp.workprec(256):
            z = mp.mpf("0.1")
        q = laplace.saddle_expansion_check(0, z, [100], 256)[0][1]
        printed = out.splitlines()[1].split(",")[1]
        assert printed == mp.nstr(q, print_digits(256))
        # the 53-bit double nearest 0.1 gives ...652008703...
        assert printed.startswith("0.9999932033380652007324")


class TestNegativeNMax:
    @pytest.mark.parametrize(
        "command",
        [
            "table --family chebyshev --n-max -2 --cache-dir {cache}",
            "table --family legendre --n-max -1 --cache-dir {cache}",
        ],
    )
    def test_usage_error_writes_nothing(self, command, tmp_path, capsys):
        argv = command.format(cache=tmp_path).split()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        value = argv[argv.index("--n-max") + 1]
        assert f"argument --n-max: must be non-negative, got {value}" in err
        assert list(tmp_path.iterdir()) == []

    def test_negative_refine_bits_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["roots", "--n", "5", "--refine-bits", "-3"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--refine-bits" in err


class TestDegenerateRows:
    """Rows 0 and 1 have no spread; asking for them is a usage error (exit 2,
    nothing on stdout), as for `clt --report cdf --n 1`."""

    @pytest.mark.parametrize(
        "command",
        [
            "edgeworth --n 0",
            "edgeworth --n 1",
            "clt --report residuals --n-list 1,2",
        ],
    )
    def test_exit_2(self, command, capsys):
        try:
            code = main(command.split())
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "n >= 2" in err


class TestTable:
    def test_csv_row_count_and_determinism(self, tmp_path, capsys):
        argv = ["table", "--family", "legendre", "--n-max", "10", "--format", "csv",
                "--cache-dir", str(tmp_path)]
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "n,j,value"
        assert len(lines) == 1 + 66
        assert "3,2,8" in lines

    def test_json_contains_expected_row(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["table", "--family", "chebyshev", "--n-max", "5", "--format", "json",
             "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert {"n": 3, "j": 2, "value": "5"} in rows
        assert len(rows) == 21

    def test_corruption_exit_4_with_recovery(self, tmp_path, capsys):
        argv = ["table", "--family", "legendre", "--n-max", "6", "--format", "csv",
                "--cache-dir", str(tmp_path)]
        code, clean, _ = run_cli(argv, capsys)
        assert code == 0
        cache_file = next(tmp_path.glob("*.jsonl"))
        data = cache_file.read_text().replace('"value": "8"', '"value": "9"', 1)
        cache_file.write_text(data)
        code, out, err = run_cli(argv, capsys)
        assert code == 4
        assert out == clean  # rebuilt data, not the corrupted bytes
        assert "corrupt" in err.lower()
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out == clean

    @pytest.mark.parametrize(
        "fmt,before_bad_record",
        [("csv", "n,j,value\n0,0,1\n"), ("json", '{"n": 0, "j": 0, "value": "1"}\n')],
        ids=["csv", "json"],
    )
    def test_hash_valid_bad_record_exit_4(self, fmt, before_bad_record, tmp_path, capsys):
        # valid JSON with a valid hash, but not the form cache.triangle_record writes
        argv = ["table", "--family", "legendre", "--n-max", "3", "--format", fmt,
                "--cache-dir", str(tmp_path)]
        assert run_cli(argv, capsys)[0] == 0
        lines = _records(tmp_path)
        lines[1] = '{"n":1, "j": 0, "value": "0"}'
        _rehash(tmp_path, lines)
        code, out, err = run_cli(argv, capsys)
        assert code == 4
        assert out == before_bad_record  # the table streams up to the bad record
        assert "cache error: not a triangle record" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bad_record_past_block_boundary(self, fmt, tmp_path, capsys, monkeypatch):
        """With blocks of 128 bytes, a bad record 60 lines in is many
        blocks past the first: exactly the 60 records before it print."""
        argv = ["table", "--family", "legendre", "--n-max", "12", "--format", fmt,
                "--cache-dir", str(tmp_path)]
        code, clean, _ = run_cli(argv, capsys)
        assert code == 0
        lines = _records(tmp_path)
        lines[60] = lines[60].replace('"j": ', '"j":')
        _rehash(tmp_path, lines)
        monkeypatch.setattr(cache, "BLOCK_SIZE", 128)
        assert len("\n".join(lines[:60])) > 8 * cache.BLOCK_SIZE
        code, out, err = run_cli(argv, capsys)
        assert code == 4
        head = 1 if fmt == "csv" else 0
        assert out == "".join(clean.splitlines(keepends=True)[: head + 60])
        assert "cache error: not a triangle record" in err

    def test_overlong_index_exit_4(self, int_str_limit, tmp_path, capsys):
        """An index of 5000 digits is past int()'s 4300-digit limit, but
        no index has more digits than MAX_ROWS - 1: the record is
        corrupt, not a usage error, and the records before it print."""
        argv = ["table", "--family", "legendre", "--n-max", "3", "--cache-dir", str(tmp_path)]
        code, clean, _ = run_cli(argv, capsys)
        assert code == 0
        lines = _records(tmp_path)
        lines[4] = '{"n": ' + "1" * 5000 + ', "j": 0, "value": "0"}'
        with pytest.raises(CacheCorruptionError):
            parse_record(lines[4])
        _rehash(tmp_path, lines)
        code, out, err = run_cli(argv, capsys)
        assert code == 4
        assert out == "".join(clean.splitlines(keepends=True)[:5])
        assert err.startswith("cache error: not a triangle record")

    @pytest.mark.parametrize(
        "command",
        [
            "table --family legendre --n-max 4 --cache-dir {tmp}/cache",
            "clt --report cdf --n 50",
            "edgeworth --n 20",
            "asymptotics --report mass --n-list 25",
        ],
    )
    def test_out_option_retired(self, command, tmp_path, capsys):
        # every table goes to stdout; redirect it to keep a file
        argv = command.format(tmp=tmp_path).split() + ["--out", str(tmp_path / "out.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--out" in err
        assert list(tmp_path.iterdir()) == []

    def test_cache_dir_under_a_file_is_usage_error(self, tmp_path, capsys):
        blocker = tmp_path / "F"
        blocker.write_bytes(b"a file")
        argv = ["table", "--family", "legendre", "--n-max", "3",
                "--cache-dir", str(blocker / "sub")]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("usage error: ")
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_bytes() == b"a file"

    def test_cache_dir_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        env_dir, flag_dir, home = tmp_path / "env", tmp_path / "flag", tmp_path / "home"
        monkeypatch.setenv("LSLAB_CACHE_DIR", str(env_dir))
        monkeypatch.setenv("HOME", str(home))
        code, _, _ = run_cli(
            ["table", "--family", "legendre", "--n-max", "3", "--cache-dir", str(flag_dir)],
            capsys,
        )
        assert code == 0
        assert len(list(flag_dir.glob("*.jsonl"))) == 1
        assert sorted(tmp_path.iterdir()) == [flag_dir]

    def test_cache_env_var_ignored(self, tmp_path, capsys, monkeypatch):
        # without --cache-dir the cache is ~/.cache/lslab, whatever the
        # retired LSLAB_CACHE_DIR says
        env_dir, home = tmp_path / "env", tmp_path / "home"
        monkeypatch.setenv("LSLAB_CACHE_DIR", str(env_dir))
        monkeypatch.setenv("HOME", str(home))
        code, out, _ = run_cli(["table", "--family", "legendre", "--n-max", "3"], capsys)
        assert code == 0 and out.splitlines()[-2] == "3,2,8"
        assert [p.name for p in (home / ".cache" / "lslab").iterdir()] == [
            "triangle_legendre_n3.jsonl"
        ]
        assert sorted(tmp_path.iterdir()) == [home]


def _table(argv) -> tuple[int, str]:
    # `table` writes bytes to sys.stdout.buffer, which a StringIO lacks
    with io.TextIOWrapper(io.BytesIO(), encoding="utf-8") as buf:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        buf.flush()
        return code, buf.buffer.getvalue().decode()


class TestTableFormats:
    @settings(max_examples=25, deadline=None)
    @given(
        p=st.integers(min_value=0, max_value=12),
        q=st.integers(min_value=1, max_value=12),
        n_max=st.integers(min_value=0, max_value=10),
    )
    def test_csv_matches_json_and_kernel(self, p, q, n_max):
        gamma = f"{p}/{q}"
        with tempfile.TemporaryDirectory() as cache_dir:
            argv = ["table", "--family", "jacobi", "--gamma", gamma,
                    "--n-max", str(n_max), "--cache-dir", cache_dir]
            code, cold = _table(argv + ["--format", "csv"])
            assert code == 0
            code, warm = _table(argv + ["--format", "csv"])
            assert code == 0 and warm == cold
            code, jsonl = _table(argv + ["--format", "json"])
            assert code == 0
        header, *rows = cold.splitlines()
        assert header == "n,j,value"
        records = [json.loads(line) for line in jsonl.splitlines()]
        assert len(rows) == len(records) == (n_max + 1) * (n_max + 2) // 2
        for row, record in zip(rows, records):
            n, j, value = row.split(",")
            assert (int(n), int(j), value) == (record["n"], record["j"], record["value"])
            assert Fraction(value) == jacobi_stirling(int(n), int(j), Fraction(p, q))


class TestRoots:
    def test_certificate_json(self, capsys):
        code, out, _ = run_cli(["roots", "--n", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 3 and len(payload["intervals"]) == 2

    def test_refined_roots(self, capsys):
        code, out, _ = run_cli(["roots", "--n", "2", "--refine-bits", "64"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["roots"]) == 1
        assert abs(float(payload["roots"][0]) + 1 / 6) < 1e-15


class TestCltCommand:
    def test_usage_error_prints_nothing(self, capsys):
        for argv in (
            ["clt", "--report", "cdf"],  # --n missing
            ["clt", "--report", "cdf", "--n", "1"],  # n < 2
        ):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            assert code == 2
            assert capsys.readouterr().out == ""

    def test_ratio_json(self, capsys):
        code, out, _ = run_cli(["clt", "--report", "ratio", "--n", "40", "--j", "36"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 40 and payload["precision_bits"] == 256
        assert payload["ratio"]

    def test_cdf_table(self, capsys):
        code, out, _ = run_cli(
            ["clt", "--report", "cdf", "--n", "50", "--precision-bits", "64"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "y,scaled_cdf,normal_cdf"
        assert len(lines) == 1 + 81

    def test_residuals_table(self, capsys):
        code, out, _ = run_cli(
            ["clt", "--report", "residuals", "--n-list", "10,20", "--precision-bits", "64"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "n,mean_residual,var_residual"


class TestEdgeworthCommand:
    def test_comparison_table(self, capsys):
        code, out, _ = run_cli(
            ["edgeworth", "--n", "20", "--precision-bits", "64"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,x,sigma_p,order2,order3,abs_err2,abs_err3"
        assert len(lines) == 1 + 21


class TestAsymptoticsCommand:
    def test_saddle_table(self, capsys):
        code, out, _ = run_cli(
            ["asymptotics", "--report", "saddle", "--nu", "0", "--z", "w",
             "--n-list", "50,100", "--precision-bits", "64"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,Q,")
        assert len(lines) == 3

    def test_mass_table(self, capsys):
        code, out, _ = run_cli(
            ["asymptotics", "--report", "mass", "--n-list", "25,50", "--precision-bits", "64"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "n,mass_ratio,abs_deviation"

    @pytest.mark.parametrize("bits", ["64", "256", "1024", "2048"])
    def test_mass_exact_fallback_prints_the_same_bytes(self, bits, capsys, monkeypatch):
        argv = ["asymptotics", "--report", "mass", "--n-list", "0,1,2,3,50,1999",
                "--precision-bits", bits]
        fast = run_cli(argv, capsys)
        # ends that round apart on each row's first call: every row takes
        # the second, exact call
        real, seen = triangles.legendre_row_mass_bounds, set()

        def straddling_first(n, bits):
            if n in seen:
                return real(n, bits)
            seen.add(n)
            return -1, 1, 0

        monkeypatch.setattr(clt, "legendre_row_mass_bounds", straddling_first)
        assert run_cli(argv, capsys) == fast
        assert fast[0] == 0

    def test_mass_real_tie_prints_the_same_bytes(self, capsys):
        # M_160(1) is a rounding midpoint at 2064 bits; the sha256 is
        # that of the exact-kernel fallback the bounds kernel replaced
        argv = ["asymptotics", "--report", "mass", "--n-list", "160", "--precision-bits", "2048"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "322f6f6bf08d9a8e570dd59196eb7d7461c8c6e502ee9526af84e9ada6a558cb"
        )

    def test_bad_n_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["asymptotics", "--n-list", "100,50"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestSkippedWork:
    """Work the commands must not do, pinned against golden bytes."""

    def test_mass_report_builds_no_row(self, capsys, monkeypatch):
        def no_rows(*args, **kwargs):
            raise AssertionError("the mass report built a triangle row")

        monkeypatch.setattr(triangles, "_sweep", no_rows)
        code, out, _ = run_cli(["asymptotics", "--report", "mass", "--n-list", "200,1600"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "21e0db405f21e276c21c6de36c27985645c2e252e8ad68f72aef698e44087d4e"
        )

    def test_mass_report_computes_no_exact_mass(self, capsys, monkeypatch):
        # every row's mass is decided by one bounds-kernel call at the
        # default bits, none at the exact bitlen((2n)!)
        real, calls = triangles.legendre_row_mass_bounds, []
        monkeypatch.setattr(
            clt, "legendre_row_mass_bounds", lambda n, bits: calls.append((n, bits)) or real(n, bits)
        )
        argv = ["asymptotics", "--report", "mass", "--n-list", "200,400,800,1600"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert calls == [(200, 272), (400, 272), (800, 272), (1600, 272)]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "260fab2329c51e7aceff8adf0f8bea1bfa7d845da7d91a6a2d9c82a0bc812c5c"
        )

    def test_cdf_report_builds_no_whole_row(self, capsys, monkeypatch):
        # only the top band of row 800 is swept, and its mass is decided
        # by one bounds-kernel call, none at the exact bitlen(1600!)
        real_sweep, sweeps = triangles._sweep, []

        def sweep_spy(gamma, n, j_lo, j_hi, start=None):
            sweeps.append((n, j_lo))
            return real_sweep(gamma, n, j_lo, j_hi, start)

        real_bounds, calls = triangles.legendre_row_mass_bounds, []
        monkeypatch.setattr(triangles, "_sweep", sweep_spy)
        monkeypatch.setattr(
            clt, "legendre_row_mass_bounds", lambda n, bits: calls.append((n, bits)) or real_bounds(n, bits)
        )
        code, out, _ = run_cli(["clt", "--report", "cdf", "--n", "800"], capsys)
        assert code == 0
        assert [j_lo for n, j_lo in sweeps if n == 800] == [716]
        assert calls == [(800, 256 + 16 + clt._CDF_GUARD)]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "880344b7feb148555fb9648b1f7b0298742a895085d1a3f9f997f60ecada7e94"
        )

    @pytest.mark.parametrize(
        "gamma,digest",
        [
            ("1", "8eaf5f065911c342cf8ee7ac72ca2142940e60f84f47861e16de1485b9bbd400"),
            ("2/3", "fe99b0359e9604acb9ba375055603d2bad1f70439d8cb68f8fe497fcf3652b65"),
        ],
    )
    def test_csv_table_parses_no_json_record(self, gamma, digest, tmp_path, capsys, monkeypatch):
        # only the cache header, which carries the hash, goes through json
        def header_only(fn):
            def guarded(obj, *args, **kwargs):
                if "sha256" not in obj:
                    raise AssertionError(f"json used on a triangle record: {obj!r:.60}")
                return fn(obj, *args, **kwargs)
            return guarded

        monkeypatch.setattr(json, "loads", header_only(json.loads))
        monkeypatch.setattr(json, "dumps", header_only(json.dumps))
        argv = ["table", "--family", "jacobi", "--gamma", gamma, "--n-max", "10",
                "--cache-dir", str(tmp_path)]
        for _ in ("cold", "warm"):
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerifyCommand:
    def test_identities_suite_passes_with_empty_stderr(self, capsys):
        # the lines themselves are pinned by digest in test_acceptance
        code, out, err = run_cli(["verify", "identities"], capsys)
        assert code == 0
        assert all(line.startswith("PASS") for line in out.strip().splitlines())
        assert err == ""

    def test_precision_floor(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "identities", "--precision-bits", "32"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_aborted_suite_keeps_its_earlier_lines(self, monkeypatch, capsys):
        def raising(ns, bits):
            raise KernelInvariantError("injected")

        monkeypatch.setattr(clt, "mean_variance_residuals", raising)
        code, out, _ = run_cli(["verify", "clt"], capsys)
        assert code == 1
        first, aborted = out.splitlines()
        assert first.startswith("FAIL pointwise ratio window at (1000, 930)  [computed ")
        assert aborted == "FAIL clt suite aborted  [injected]"

    def test_ratio_target_options_retired(self, capsys):
        # the ratio at any (n, j) is `clt --report ratio`
        with pytest.raises(SystemExit) as exc:
            main(["verify", "clt", "--n", "1000", "--j", "930"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestRootsLinesFailAlone:
    """A raised certification or unimodality error FAILs its own line of
    `verify roots`, with the error text as the detail; the other lines
    still run and pass."""

    @staticmethod
    def _only_failure(capsys):
        code, out, _ = run_cli(["verify", "roots"], capsys)
        lines = out.splitlines()
        assert code == 1
        assert len(lines) == 6
        failed = [line for line in lines if not line.startswith("PASS ")]
        assert len(failed) == 1
        return failed[0]

    def test_row_not_unimodal(self, monkeypatch, capsys):
        # the scan reads the unscaled row T(n, j), so the bump on the
        # scaled row c_j reaches it as the exact Fractions c'_j/(2j)!
        real = genpoly.triangle_row

        def bumpy(gamma, n):
            if n != 17:
                return real(gamma, n)
            row = list(triangles.modified_legendre_row(n))
            row[2], row[3] = row[3], row[2]  # a fall, then a rise
            return tuple(Fraction(c, factorial(2 * j)) for j, c in enumerate(row))

        monkeypatch.setattr(genpoly, "triangle_row", bumpy)
        assert self._only_failure(capsys) == (
            "FAIL unimodality with centered mode 3<=n<=300"
            "  [row 17 is not unimodal: rise or tie at j=3 after the mode]"
        )

    def test_certificate_raises(self, monkeypatch, capsys):
        real = sturm.certify_roots

        def failing(n):
            if n == 7:
                raise CertificationError("zero-root", "injected at n=7")
            return real(n)

        monkeypatch.setattr(sturm, "certify_roots", failing)
        assert self._only_failure(capsys) == (
            "FAIL root certificates 1<=n<=30  [zero-root: injected at n=7]"
        )


class TestOneFormatter:
    def test_only_cli_formats(self):
        # modules return values and rows; cli.py alone turns them into text
        package = os.path.dirname(lslab.__file__)
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py") or name in ("cli.py", "precision.py"):
                continue
            with open(os.path.join(package, name)) as fp:
                text = fp.read()
            assert "print_digits" not in text, name
            assert "def to_csv" not in text and "def to_json" not in text, name


def _child_env() -> dict:
    """The environment of a fresh `python -m lslab.cli`: the child finds
    the package where this process imported it from, also when pytest put
    src/ on sys.path and not in PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(lslab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lslab.cli", "compute", "--family", "legendre",
             "--n", "4", "--j", "2"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "52"

    def test_closed_stdout_exits_141(self, tmp_path):
        """`lslab table ... | head -1`: the reader goes away after one line
        of a table far larger than the pipe holds.  The writer exits 141
        with no traceback, and the cache file it wrote stays valid."""
        argv = [sys.executable, "-m", "lslab.cli", "table", "--family", "legendre",
                "--n-max", "200", "--cache-dir", str(tmp_path)]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=_child_env())
        assert proc.stdout.readline() == b"n,j,value\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert b"Traceback" not in stderr
        warm = subprocess.run(argv, capture_output=True, env=_child_env(), timeout=120)
        assert (warm.returncode, warm.stderr) == (0, b"")
        assert hashlib.sha256(warm.stdout).hexdigest() == (
            "efbdf87c61739802906d61108ef525065e78b7c46e7e45f8cf01d215dcf0dd6e"
        )

    def test_table_and_compute_load_no_mpmath(self, tmp_path):
        """Each command, run on a small input in a fresh interpreter, loads
        only what it runs.  mpmath and the analytic modules are registered
        by `import lslab.cli` but run only when a command reads them, so
        `table`, `compute` and the exact `verify identities` never run
        mpmath; no command loads `dataclasses` or the `inspect` it
        imports; and hashlib, which `cache` imports, is loaded by `table`
        alone.  Together the runs load every lslab module."""
        runs = [  # (argv, start of its stdout)
            (["compute", "--family", "legendre", "--n", "3", "--j", "2"], "8\n"),
            (["table", "--family", "legendre", "--n-max", "5", "--cache-dir", str(tmp_path)],
             "n,j,value\n"),
            (["verify", "roots"], "PASS "),
            (["verify", "identities"], "PASS "),
            (["roots", "--n", "3", "--refine-bits", "64"], '{"n": 3, '),
            (["clt", "--n", "20", "--j", "10"], '{"n": 20, '),
            (["edgeworth", "--n", "10"], "j,x,"),
            (["asymptotics", "--n-list", "10"], "n,Q,"),
        ]
        assert sorted({argv[0] for argv, _ in runs}) == sorted(COMMANDS)
        for argv, head in runs:
            exact = argv[0] in ("table", "compute") or argv == ["verify", "identities"]
            program = (
                "import sys\n"
                "from lslab.cli import main\n"
                f"code = main({argv!r})\n"
                "assert 'lslab.clt' in sys.modules and 'mpmath' in sys.modules\n"
                f"assert ('mpmath.libmp' in sys.modules) == {not exact}\n"
                "assert 'dataclasses' not in sys.modules and 'inspect' not in sys.modules\n"
                f"assert 'hashlib' not in sys.modules or {argv[0] == 'table'}\n"
                "sys.exit(code)\n"
            )
            proc = subprocess.run([sys.executable, "-c", program], capture_output=True,
                                  text=True, env=_child_env())
            assert proc.returncode == 0, (argv, proc.stderr)
            assert proc.stdout.startswith(head), argv


# Runs the CLI, then prints its own peak RSS in kB to stderr.  VmHWM is
# the peak of this program's memory alone; ru_maxrss would also count the
# spawning pytest process, whose pages the child shares until exec.
_PEAK_RSS_PROGRAM = """
import sys
from lslab.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fp:
    print(next(line.split()[1] for line in fp if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
class TestTableMemory:
    """No table is held in memory: the Legendre table to n = 400 (43 MB of
    records) peaks near 22 MB in a fresh interpreter, cold and warm."""

    def test_peak_rss_cold_and_warm(self, tmp_path):
        argv = [sys.executable, "-c", _PEAK_RSS_PROGRAM, "table", "--family", "legendre",
                "--n-max", "400", "--cache-dir", str(tmp_path)]
        for _ in ("cold", "warm"):
            proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, env=_child_env())
            assert proc.returncode == 0
            assert int(proc.stderr) / 1024 < 45
