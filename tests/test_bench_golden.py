"""Replay of the benchmark's golden outputs: every op any seed of any
workload in `perfbench/workloads.py` can generate, run in process in the
workload's order against one fresh cache directory per workload, must
give the exit code and the stdout sha256 recorded in
`perfbench/golden.json`.  An op marked `corrupt_cache` first cuts every
cache file to half its length, as the benchmark runner does, so the
table it prints is rebuilt and the command exits 4."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from lslab.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = json.loads((BENCH / "golden.json").read_text())["ops"]

_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def test_every_golden_op_is_replayed():
    keys = [op.key for name in workloads.WORKLOADS for op in workloads.op_space(name)]
    assert sorted(keys) == sorted(GOLDEN)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_replays_golden(workload, tmp_path, capsys):
    mismatches = []
    for op in workloads.op_space(workload):
        if op.corrupt_cache:
            for path in sorted(tmp_path.iterdir()):
                with open(path, "r+b") as fp:
                    fp.truncate(path.stat().st_size // 2)
        argv = [arg.replace(workloads.CACHE_DIR, str(tmp_path)) for arg in op.argv]
        code = main(argv)
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        if {"exit": code, "sha256": digest} != GOLDEN[op.key]:
            mismatches.append((op.key, code, digest))
    assert mismatches == []
