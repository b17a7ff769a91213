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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lslab
from lslab import cache, triangles
from lslab.cache import parse_record, triangle_record
from lslab.cli import main
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

    def test_usage_errors_exit_2(self, capsys):
        for argv in (
            ["compute", "--family", "jacobi", "--n", "1", "--j", "1"],        # gamma missing
            ["compute", "--family", "legendre", "--gamma", "1", "--n", "1", "--j", "1"],
            ["compute", "--family", "legendre", "--n", "1"],                  # j missing
            ["verify", "nosuch"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            capsys.readouterr()

    def test_resource_limit_exit_3(self, capsys):
        code, _, err = run_cli(
            ["compute", "--family", "legendre", "--n", "2500", "--j", "1"], capsys
        )
        assert code == 3
        assert "resource" in err.lower()


class TestRowCap:
    """Row 2000 is refused with exit 3 by every command that reads rows,
    root work past row 200 by `roots` and `verify roots|all`, and root
    refinement past 2048 bits by `verify edgeworth|all` (and `roots
    --refine-bits`, in test_sturm), before any work is done."""

    @pytest.mark.parametrize(
        "command",
        [
            "clt --report ratio --n 2000 --j 5",
            "clt --report cdf --n 2000",
            "clt --report residuals --n-list 100,2000",
            "table --family legendre --n-max 2000 --cache-dir {cache}",
            "roots --n 2000",
            "edgeworth --n 2000",
            "asymptotics --report mass --n-list 50,2000",
            "asymptotics --report saddle --n-list 2000",
            "verify identities --n-max 2000",
            "asymptotics --report saddle --nu 200000 --n-list 100",
            "compute --family legendre --n 2000 --j 2600",
            "roots --n 1999",
            "verify roots --n-max 1999",
            "verify all --n-max 1999",
            "verify edgeworth --precision-bits 2049",
            "verify all --precision-bits 2049",
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


class TestNegativeNMax:
    @pytest.mark.parametrize(
        "command",
        ["verify identities --n-max -3", "table --family legendre --n-max -1 --cache-dir {cache}"],
    )
    def test_usage_error_writes_nothing(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command.format(cache=tmp_path).split())
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--n-max" in err
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
        cache_file = next(tmp_path.glob("*.jsonl"))
        header, *lines = cache_file.read_text().splitlines()
        lines[1] = '{"n":1, "j": 0, "value": "0"}'
        data = "".join(line + "\n" for line in lines)
        header = json.loads(header)
        header["sha256"] = hashlib.sha256(data.encode()).hexdigest()
        cache_file.write_text(json.dumps(header) + "\n" + data)
        code, out, err = run_cli(argv, capsys)
        assert code == 4
        assert out == before_bad_record  # the table streams up to the bad record
        assert "cache error: not a triangle record" in err

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
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


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
    def test_small_identities_suite(self, capsys):
        code, out, _ = run_cli(["verify", "identities", "--n-max", "8"], capsys)
        assert code == 0
        assert all(line.startswith("PASS") for line in out.strip().splitlines())

    def test_precision_floor(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "identities", "--precision-bits", "32"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_ratio_target_options_retired(self, capsys):
        # the ratio at any (n, j) is `clt --report ratio`
        with pytest.raises(SystemExit) as exc:
            main(["verify", "clt", "--n", "1000", "--j", "930"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


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

    def test_table_and_compute_load_no_mpmath(self, tmp_path):
        """mpmath and the analytic modules are registered by `import
        lslab.cli` but run only when a command reads them."""
        program = (
            "import sys\n"
            "from lslab.cli import main\n"
            "main(['table', '--family', 'legendre', '--n-max', '5',"
            f" '--cache-dir', {str(tmp_path)!r}])\n"
            "main(['compute', '--family', 'legendre', '--n', '3', '--j', '2'])\n"
            "assert 'lslab.clt' in sys.modules and 'mpmath' in sys.modules\n"
            "assert 'mpmath.libmp' not in sys.modules\n"
            "main(['roots', '--n', '3', '--refine-bits', '64'])\n"
            "assert 'mpmath.libmp' in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                              env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].startswith('{"n": 3, ')


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
    records) peaks near 23 MB in a fresh interpreter, cold and warm."""

    def test_peak_rss_cold_and_warm(self, tmp_path):
        argv = [sys.executable, "-c", _PEAK_RSS_PROGRAM, "table", "--family", "legendre",
                "--n-max", "400", "--cache-dir", str(tmp_path)]
        for _ in ("cold", "warm"):
            proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, env=_child_env())
            assert proc.returncode == 0
            assert int(proc.stderr) / 1024 < 45
