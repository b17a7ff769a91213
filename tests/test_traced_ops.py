"""The benchmark's tracer (perfbench/launch.py) run against the package in
a fresh process, as the benchmark runs each op: the generator suites,
`verify.run_suites` and the cache hooks must still be found and
counted."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# Tracer targets that name functions deleted from the package since the
# benchmark was declared; no other target may be missing.
KNOWN_ABSENT = {
    "legendre_stirling_altsum",
    "modified_legendre",
    "legendre_from_chebyshev_odd",
    "legendre_from_chebyshev_even",
    "legendre_genpoly",
    "legendre_genpoly_fast",
    "chebyshev_genpoly",
    "genpoly_from_connection",
    "sturm_chain",
    "scaled_cdf_detail",
}


def _traced(argv, tmp_path):
    """(exit code, stdout, tracer summary) of `lslab argv` under launch.py."""
    summary_path = tmp_path / "summary.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "launch.py"), str(summary_path), *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    summary = json.loads(summary_path.read_text())
    assert {name.rsplit(".", 1)[-1] for name in summary["absent"]} <= KNOWN_ABSENT
    return proc.returncode, proc.stdout, summary


def test_verify_roots_is_traced(tmp_path):
    code, out, summary = _traced(["verify", "roots"], tmp_path)
    golden = json.loads((PERFBENCH / "golden.json").read_text())["ops"]["verify roots"]
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (golden["exit"], golden["sha256"])
    assert summary["counters"]["verify.checks"] == 6
    assert summary["calls"]["verify.roots"] == 1


def test_table_cache_is_traced(tmp_path):
    argv = ["table", "--family", "legendre", "--n-max", "10", "--cache-dir", str(tmp_path / "cache")]
    code, out, cold = _traced(argv, tmp_path)
    assert code == 0 and out
    assert cold["counters"]["cache.misses"] == 1
    assert cold["counters"]["cache.bytes_written"] > 0
    code, warm_out, warm = _traced(argv, tmp_path)
    assert (code, warm_out) == (0, out)
    assert warm["counters"]["cache.hits"] == 1


def test_verify_clt_is_traced(tmp_path):
    # a decorated or renamed kernel would leave clt.residual_s or
    # clt.cdf_s at zero without failing any op
    code, out, summary = _traced(["verify", "clt"], tmp_path)
    golden = json.loads((PERFBENCH / "golden.json").read_text())["ops"]["verify clt"]
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (golden["exit"], golden["sha256"])
    # mean_variance_residuals and max_density_residual at n = 100 and 400
    assert summary["calls"]["clt.residual"] == 3
    # scaled_cdf for the grids at n = 100 and 400 and for the far-tail
    # line, and one normal_cdf per point of the one normal grid the two
    # grids share
    assert summary["calls"]["clt.cdf"] == 3 + 81
    assert summary["self_s"]["clt.residual"] > 0 and summary["self_s"]["clt.cdf"] > 0
