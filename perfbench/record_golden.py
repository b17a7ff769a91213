"""Record golden outputs: exit code and stdout sha256 of every op any seed
of any workload can generate (workloads.op_space), into golden.json.

Usage, from the root of a source checkout at the reference commit:

    python3 perfbench/record_golden.py

It refuses to write when the corrupt-cache op does not exit 4 with the
same stdout as the cold table build before it.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    env = run.child_env(root)
    info = run.environment(root, env)
    golden = {}
    workdir = root / ".bench_tmp" / "golden"
    workdir.mkdir(parents=True)
    try:
        for name in workloads.WORKLOADS:
            ops = workloads.op_space(name)
            results = run.run_cycle(
                ops, [sys.executable, "-m", "lslab.cli"], env, workdir / name,
                time.monotonic() + 3600, {},
            )
            for op, result in zip(ops, results):
                golden[op.key] = {"exit": result.exit, "sha256": result.sha256}
                print(f"{result.wall_s:7.2f}s exit {result.exit}  {op.key}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir)
    for key, want in golden.items():
        if key.startswith("corrupt-cache: "):
            cold = golden[key.removeprefix("corrupt-cache: ")]
            if want != {"exit": 4, "sha256": cold["sha256"]}:
                print(f"refusing to record: {key} gave {want}", file=sys.stderr)
                return 1
    run.GOLDEN.write_text(json.dumps({"env": info, "ops": golden}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
