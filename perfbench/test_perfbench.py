"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fake_program(tmp_path, body: str) -> list[str]:
    script = tmp_path / "fake_lslab.py"
    script.write_text(body)
    return [sys.executable, str(script)]


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0])
    rec = tracer.Recorder(clock=lambda: next(ticks))
    rec.enter("a")  # 0
    rec.enter("b")  # 1
    rec.enter("c")  # 2
    rec.exit()  # 3: c spans 1
    rec.exit()  # 4: b spans 3, 1 of it in c
    rec.enter("b")  # 5
    rec.exit()  # 7: b spans 2
    rec.exit()  # 10: a spans 10, 5 of it in b
    assert rec.summary()["self_s"] == {"c": 1.0, "b": 4.0, "a": 5.0}


def test_layer_metrics_sum_ops_and_take_max_of_maxima():
    one = {"calls": {"sturm.sign_at": 5}, "self_s": {"sturm.certify": 1.5}, "counters": {},
           "maxima": {"sturm.chain_max_bits": 700}, "distinct": {}, "absent": []}
    two = {"calls": {"sturm.sign_at": 2}, "self_s": {"sturm.certify": 0.5}, "counters": {},
           "maxima": {"sturm.chain_max_bits": 900}, "distinct": {}, "absent": []}
    metrics = tracer.layer_metrics([one, two])
    assert metrics["sturm.sign_at_calls"]["value"] == 7
    assert metrics["sturm.certify_s"]["value"] == 2.0
    assert metrics["sturm.chain_max_bits"]["value"] == 900
    assert metrics["eisenstein.zeta_s"]["value"] == 0


def test_install_rebinds_imported_names_and_records_absent(monkeypatch):
    def zeta_series(s, precision_bits=256):
        return 2 * s

    def rows(n):
        yield from range(n)

    kernels = types.ModuleType("fakepkg.kernels")
    kernels.zeta_series, kernels.rows = zeta_series, rows
    user = types.ModuleType("fakepkg.user")
    user.zeta_series = zeta_series  # as left by `from .kernels import zeta_series`
    user.TABLE = {"zeta": zeta_series}
    for module in (types.ModuleType("fakepkg"), kernels, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)

    rec = tracer.Recorder()
    tracer.install(rec, "fakepkg", targets=(
        ("eisenstein.zeta", "kernels", "zeta_series", tracer.SPAN),
        ("triangles.export", "kernels", "rows", tracer.SPAN),
        ("sturm.sign_at", "kernels", "sign_at", tracer.COUNT),  # deleted
        ("sturm.certify", "sturm", "certify_roots", tracer.SPAN),  # module gone
    ))
    assert rec.absent == ["kernels.sign_at", "sturm.certify_roots"]
    assert user.zeta_series(3) == 6 and user.TABLE["zeta"](1, 64) == 2 and kernels.zeta_series(3) == 6
    assert list(kernels.rows(4)) == [0, 1, 2, 3]
    summary = rec.summary()
    assert summary["calls"] == {"eisenstein.zeta": 3, "triangles.export": 1}
    assert summary["distinct"] == {"eisenstein.zeta": 2}
    metrics = tracer.layer_metrics([summary])
    assert metrics["sturm.sign_at_calls"]["value"] == 0
    assert metrics["eisenstein.zeta_calls"]["value"] == 3


def test_launcher_keeps_stdout_and_reports_only_missing_names_absent(tmp_path):
    summary_path = tmp_path / "summary.json"
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "launch.py"), str(summary_path),
         "compute", "--family", "legendre", "--n", "3", "--j", "2"],
        env=run.child_env(ROOT), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "8\n")
    summary = json.loads(summary_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    try:
        missing = [
            f"{module}.{attr}"
            for _, module, attr, _ in tracer.TARGETS
            if not hasattr(importlib.import_module(f"lslab.{module}"), attr)
        ]
    finally:
        sys.path.remove(str(ROOT / "src"))
    assert summary["absent"] == missing
    assert summary["calls"]["triangles.entry"] == 1


def test_golden_mismatch_is_a_failed_op(tmp_path):
    program = _fake_program(tmp_path, "import sys\nprint(' '.join(sys.argv[1:]))\n")
    ops = [workloads.Op(("compute", "--n", "1")), workloads.Op(("compute", "--n", "2"))]
    golden = {
        ops[0].key: {"exit": 0, "sha256": _sha("compute --n 1\n")},
        ops[1].key: {"exit": 0, "sha256": _sha("compute --n 3\n")},
    }
    results = run.run_cycle(ops, program, dict(os.environ), tmp_path / "w", time.monotonic() + 60, golden)
    assert [r.failure for r in results] == [None, "stdout differs from golden"]
    assert results[0].stdout_bytes == len("compute --n 1\n")


def test_end_to_end_times_scale_by_the_mean_calibration_sample(tmp_path):
    program = _fake_program(tmp_path, "print('ok')\n")
    ops = [workloads.Op(("compute", "--n", "1")), workloads.Op(("compute", "--n", "2"))]
    calib = []
    results = run.run_cycle(ops, program, dict(os.environ), tmp_path / "w", time.monotonic() + 60, {},
                            calib=calib)
    assert len(calib) == len(ops)
    op = run.OpResult("compute --n 1", "compute", 1.0, 0.8, 30.0, 0, "", 3, None)
    e2e = run.end_to_end([[op]], setup_s=0.2, calib=[run.CALIB_REF_S * f for f in (1, 3)])
    assert e2e["wall_ref_s"]["value"] == 0.5 and e2e["cpu_ref_s"]["value"] == 0.4
    assert len(results) == 2


def test_timeout_is_a_failed_op_and_ends_the_cycle(tmp_path):
    program = _fake_program(tmp_path, "import time\ntime.sleep(30)\n")
    ops = [workloads.Op(("verify", "clt")), workloads.Op(("verify", "roots"))]
    start = time.monotonic()
    results = run.run_cycle(ops, program, dict(os.environ), tmp_path / "w", start + 0.5, {})
    assert time.monotonic() - start < 10
    assert [r.failure for r in results] == ["timeout"]


def test_corrupt_cache_op_expects_exit_4(tmp_path):
    # A stand-in for `lslab table`: rebuilds a cache file it finds damaged
    # and then exits 4, printing the same table either way.
    program = _fake_program(tmp_path, (
        "import pathlib, sys\n"
        "path = pathlib.Path(sys.argv[sys.argv.index('--cache-dir') + 1]) / 't.jsonl'\n"
        "body = 'header\\n' + 'row\\n' * 50\n"
        "damaged = path.exists() and path.read_text() != body\n"
        "path.write_text(body)\n"
        "print('table')\n"
        "sys.exit(4 if damaged else 0)\n"
    ))
    table = ("table", "--cache-dir", workloads.CACHE_DIR)
    ops = [workloads.Op(table), workloads.Op(table), workloads.Op(table, corrupt_cache=True)]
    golden = {op.key: {"exit": 4 if op.corrupt_cache else 0, "sha256": _sha("table\n")} for op in ops}
    results = run.run_cycle(ops, program, dict(os.environ), tmp_path / "w", time.monotonic() + 60, golden)
    assert [(r.exit, r.failure) for r in results] == [(0, None), (0, None), (4, None)]

    wrong = dict(golden, **{ops[2].key: {"exit": 0, "sha256": _sha("table\n")}})
    results = run.run_cycle(ops, program, dict(os.environ), tmp_path / "w", time.monotonic() + 60, wrong)
    assert results[2].failure == "exit 4, golden 0"


def test_rows_cache_golden_has_exit_4_and_cold_stdout_for_the_corrupt_table():
    golden = json.loads(run.GOLDEN.read_text())["ops"]
    ops = workloads.ops_for("rows-cache", 0)
    corrupt = [op for op in ops if op.corrupt_cache]
    assert len(corrupt) == 1
    cold = golden[workloads.Op(corrupt[0].argv).key]
    assert golden[corrupt[0].key] == {"exit": 4, "sha256": cold["sha256"]}


def test_every_seed_gives_fixed_ops_with_golden_outputs():
    golden = json.loads(run.GOLDEN.read_text())["ops"]
    assert set(golden) == {op.key for name in workloads.WORKLOADS for op in workloads.op_space(name)}
    for name in workloads.WORKLOADS:
        for seed in range(50):
            ops = workloads.ops_for(name, seed)
            assert ops == workloads.ops_for(name, seed)
            assert all(op.key in golden for op in ops)
    # verify clt keeps its one failing check: golden exit 1
    assert golden["verify clt"]["exit"] == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    op = run.OpResult("compute --n 1", "compute", 1.0, 0.9, 30.0, 0, "", 10, None)
    e2e = run.end_to_end([[op]], setup_s=0.2, calib=[0.3])
    layers = run.per_layer([[op]], [op], [], calib=[0.1, 0.2])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    for metrics, specs in ((e2e, spec["end_to_end"]), (layers, spec["per_layer"])):
        assert [metrics[m["name"]]["unit"] for m in specs] == [m["unit"] for m in specs]


def test_child_env_drops_inherited_cache_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("LSLAB_CACHE_DIR", str(tmp_path / "user-cache"))
    env = run.child_env(tmp_path)
    assert "LSLAB_CACHE_DIR" not in env
    assert env["PYTHONPATH"] == str(tmp_path / "src")


def test_refuses_to_run_outside_a_checkout(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "analytic", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
