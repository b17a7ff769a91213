"""Benchmark of the `lslab` command line.

Usage, from the root of a source checkout (the directory holding
`src/lslab`):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark drives the CLI from outside in one closed loop with one
client: each op is a fresh `python -m lslab.cli ...` process, started only
after the previous one ended, with `LSLAB_CACHE_DIR` removed from its
environment and a private cache directory.  A cycle runs the workload's
ops once (see workloads.py); after one whole cycle, ops go on in cycle
order until `--seconds` have passed.  Every op's exit code
and stdout sha256 must equal the golden values in golden.json, recorded
at a reference commit by record_golden.py; any other outcome, a timeout
or a crash counts as a failed op.

With `--trace 0` the last stdout line reports the end-to-end metrics:
wall_ref_s and cpu_ref_s (sum over the cycle's ops of each op's mean wall
time and mean user + sys CPU time over the run, scaled to the reference
host speed, see host_scale), setup_s (median over fresh interpreters of
start-up plus `import lslab.cli`, the fixed cost every op pays) and
peak_rss_mb (largest ru_maxrss of any op).  With `--trace 1` it reports
the per-layer metrics instead: one untraced cycle gives cli.<command>_s
and the tracing overhead base, then one cycle runs every op under
launch.py and tracer.py.  The line before the last one records the
environment, the host.calib_s samples and every op with its unscaled
times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
RUN_DEADLINE_S = 170  # every run must end within 180 s
SETUP_PROBES = 11
# Mean of calibrate() on the reference host, a 2-vCPU Intel Xeon VM with
# CPython 3.11.7: wall_ref_s and cpu_ref_s read as seconds there.
CALIB_REF_S = 0.25
CALIB_SHARE = 0.2  # calibration time over op time
COMMANDS = ("compute", "table", "verify", "roots", "clt", "edgeworth", "asymptotics")

# A fixed pure-Python workload that does not touch lslab.  Like an op, it
# starts an interpreter, allocates some 20 MB of Fractions and does
# big-int arithmetic, so it slows with the ops when the host does.
CALIB_PROGRAM = """\
from fractions import Fraction
xs = [Fraction(3**(k % 97) + k, 2*k + 1) for k in range(1, 60000)]
coeffs = [(3**(5*k) + k) * (-1)**k for k in range(60)]
for num in range(1, 300):
    x, v = Fraction(num, 97), 0
    for c in coeffs:
        v = v*x + c
"""

ENV_PROBE = """\
import json, os, sys
import mpmath, mpmath.libmp
import lslab.cli
print(json.dumps({
    "python": sys.version.split()[0],
    "implementation": sys.implementation.name,
    "mpmath": mpmath.__version__,
    "mpmath_backend": mpmath.libmp.BACKEND,
    "nproc": os.cpu_count(),
}))
"""


@dataclass
class OpResult:
    key: str
    command: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int | None
    sha256: str
    stdout_bytes: int
    failure: str | None


def child_env(root: Path) -> dict:
    """Environment of every op: lslab from the checkout's sources and no
    inherited LSLAB_CACHE_DIR, which would override --cache-dir."""
    env = dict(os.environ)
    env.pop("LSLAB_CACHE_DIR", None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap proc, killing it after `timeout` seconds; returns (exit code,
    rusage of that one process, whether it was killed)."""
    killed = threading.Event()

    def kill():
        killed.set()
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, killed.is_set()


def truncate_cache_files(cache_dir: Path) -> None:
    """Cut every cache file to half its length: the header survives, the
    content hash no longer matches."""
    for path in sorted(cache_dir.iterdir()):
        with open(path, "r+b") as fp:
            fp.truncate(path.stat().st_size // 2)


def judge(op: workloads.Op, exit_code, digest: str, golden: dict, timed_out: bool):
    """None when the op matched its golden output, else the reason."""
    if timed_out:
        return "timeout"
    want = golden.get(op.key)
    if want is None:
        return "no golden output"
    if exit_code != want["exit"]:
        return f"exit {exit_code}, golden {want['exit']}"
    if digest != want["sha256"]:
        return "stdout differs from golden"
    return None


def run_op(op, program, env, cache_dir: Path, scratch: Path, deadline: float, golden) -> OpResult:
    argv = [arg.replace(workloads.CACHE_DIR, str(cache_dir)) for arg in op.argv]
    if op.corrupt_cache:
        truncate_cache_files(cache_dir)
    out_path = scratch / "stdout"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([*program, *argv], stdout=out, stderr=subprocess.DEVNULL, env=env)
        exit_code, usage, timed_out = _wait(proc, deadline - time.monotonic())
        wall = time.perf_counter() - start
    digest, size = hashlib.sha256(), 0
    with open(out_path, "rb") as fp:
        for block in iter(lambda: fp.read(1 << 20), b""):
            digest.update(block)
            size += len(block)
    return OpResult(
        key=op.key,
        command=op.command,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        exit=exit_code,
        sha256=digest.hexdigest(),
        stdout_bytes=size,
        failure=judge(op, exit_code, digest.hexdigest(), golden, timed_out),
    )


def run_cycle(ops, program, env, workdir: Path, deadline: float, golden, trace_dir=None, stop_at=None,
              calib=None):
    """Run the ops once, in order, sharing one fresh cache directory.
    With trace_dir, op i writes its tracer summary to trace_dir/i.json.
    With calib, a list, appends calibrate() samples after each op: at
    least one, and until they add up to CALIB_SHARE of the op's wall time,
    so that the samples weigh host spells as the ops do.
    Stops after an op that times out at the deadline, or that ends after
    stop_at (a time.perf_counter value)."""
    cache_dir = workdir / "cache"
    cache_dir.mkdir(parents=True)
    results = []
    try:
        for i, op in enumerate(ops):
            cmd = program if trace_dir is None else [*program, str(trace_dir / f"{i}.json")]
            results.append(run_op(op, cmd, env, cache_dir, workdir, deadline, golden))
            if results[-1].failure == "timeout":
                break
            if calib is not None:
                first = len(calib)
                while sum(calib[first:]) <= CALIB_SHARE * results[-1].wall_s:
                    calib.append(calibrate(deadline))
            if stop_at is not None and time.perf_counter() >= stop_at:
                break
    finally:
        shutil.rmtree(cache_dir)
    return results


def setup_time(env, deadline: float) -> float:
    """Median start-up plus `import lslab.cli` of fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import lslab.cli"], env=env)
        exit_code, _, _ = _wait(proc, deadline - time.monotonic())
        samples.append(time.perf_counter() - start)
        if exit_code != 0:
            raise SystemExit(f"`import lslab.cli` exited {exit_code}")
    return statistics.median(samples)


def calibrate(deadline: float) -> float:
    """Wall time of CALIB_PROGRAM in a fresh interpreter: host speed, not
    lslab."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CALIB_PROGRAM])
    exit_code, _, _ = _wait(proc, deadline - time.monotonic())
    if exit_code != 0:
        raise SystemExit(f"calibration program exited {exit_code}")
    return time.perf_counter() - start


def environment(root: Path, env) -> dict:
    """Interpreter, mpmath version and backend and nproc as the ops see
    them, and what identifies the code under test.  Also compiles the
    checkout's bytecode before anything is timed."""
    probe = subprocess.run(
        [sys.executable, "-c", ENV_PROBE], env=env, check=True, capture_output=True, text=True,
        timeout=60,
    )
    info = json.loads(probe.stdout)
    commit = "unknown"  # the benchmark's checkout need not be a git repository
    if (root / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        ).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((root / "src" / "lslab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    info.update(commit=commit, src_sha256=src.hexdigest())
    return info


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def mean_cycle(cycles) -> list[OpResult]:
    """The first cycle, each op carrying its mean wall and CPU time over
    every run of it; later cycles may have stopped early.  Host speed here
    switches between fast and slow spells lasting seconds; a mean weighs
    the spells by their share of the run, where a median of two or three
    cycles picks one of them."""
    return [
        replace(
            op,
            wall_s=statistics.fmean(c[i].wall_s for c in cycles if len(c) > i),
            cpu_s=statistics.fmean(c[i].cpu_s for c in cycles if len(c) > i),
        )
        for i, op in enumerate(cycles[0])
    ]


def host_scale(calib) -> float:
    """Factor from this run's host speed to the reference host's.  Host
    speed here drifts by 20-50% in spells of seconds to minutes, and a
    36 s run can sit in one.  The calibration program, timed after every
    op, slows with the ops; like mean_cycle, its mean weighs the spells by
    their share of the run.  Without samples (the first op timed out, so
    the run has failed) the times stay unscaled."""
    return CALIB_REF_S / statistics.fmean(calib) if calib else 1.0


def end_to_end(cycles, setup_s: float, calib) -> dict:
    typical = mean_cycle(cycles)
    scale = host_scale(calib)
    return {
        "wall_ref_s": _metric(scale * sum(r.wall_s for r in typical), "s"),
        "cpu_ref_s": _metric(scale * sum(r.cpu_s for r in typical), "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(max(r.rss_mb for c in cycles for r in c), "MB"),
    }


def per_layer(cycles, traced, summaries, calib) -> dict:
    metrics = tracer.layer_metrics(summaries)
    typical = mean_cycle(cycles)
    for command in COMMANDS:
        seconds = sum(r.wall_s for r in typical if r.command == command)
        metrics[f"cli.{command}_s"] = _metric(seconds, "s")
    metrics["cli.stdout_bytes"] = _metric(sum(r.stdout_bytes for r in typical), "bytes")
    untraced_wall = sum(r.wall_s for r in typical)
    metrics["trace.overhead_ratio"] = _metric(sum(r.wall_s for r in traced) / untraced_wall, "ratio")
    metrics["trace.absent"] = _metric(len(tracer.absent(summaries)), "count")
    metrics["host.calib_s"] = _metric(statistics.fmean(calib), "s")
    return metrics


def bench(args, root: Path, workdir: Path, golden: dict):
    """(result line, detail record) of one run."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = child_env(root)
    info = dict(environment(root, env), seed=args.seed)
    if info["mpmath_backend"] != "python":
        raise SystemExit(
            f"mpmath backend is {info['mpmath_backend']!r}; this benchmark runs only "
            "on the pure-Python backend (set MPMATH_NOGMPY=1)"
        )
    setup_s = setup_time(env, deadline)
    calib = []
    ops = workloads.ops_for(args.workload, args.seed)
    program = [sys.executable, "-m", "lslab.cli"]
    # The first cycle runs whole; then ops go on in cycle order until
    # --seconds have passed.
    cycles = []
    end = time.perf_counter() + args.seconds
    while True:
        stop_at = end if cycles else None
        cycles.append(
            run_cycle(
                ops, program, env, workdir / f"c{len(cycles)}", deadline, golden, stop_at=stop_at,
                calib=calib,
            )
        )
        if args.trace or time.perf_counter() >= end or cycles[-1][-1].failure == "timeout":
            break
    traced, summaries = [], []
    if args.trace and len(cycles[-1]) == len(ops):
        trace_dir = workdir / "trace"
        trace_dir.mkdir()
        traced = run_cycle(
            ops, [sys.executable, str(HERE / "launch.py")], env, workdir / "traced", deadline,
            golden, trace_dir,
        )
        for i in range(len(traced)):
            path = trace_dir / f"{i}.json"
            if path.exists():
                summaries.append(json.loads(path.read_text()))

    results = [r for c in cycles for r in c] + traced
    failed = sum(1 for r in results if r.failure)
    if args.trace:
        metrics = per_layer(cycles, traced, summaries, calib)
    else:
        metrics = end_to_end(cycles, setup_s, calib)
    line = {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}
    detail = {
        "workload": args.workload,
        "env": info,
        "host_calib_s": calib,
        "cycles": len(cycles),
        "absent": tracer.absent(summaries),
        "ops": [asdict(r) for r in results],
    }
    return line, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "lslab" / "cli.py").is_file():
        print(f"no lslab sources under {root}/src; run from a checkout root", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())["ops"]
    workdir = root / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        line, detail = bench(args, root, workdir, golden)
    finally:
        shutil.rmtree(workdir)
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C, so the running op is killed and reaped
    # and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
