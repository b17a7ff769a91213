"""Run one `lslab` command line in-process under the tracer.

Usage: python3 launch.py SUMMARY_JSON ARGV...

Exit code and stdout are those of `lslab ARGV...`; the per-layer summary
of the op (see tracer.Recorder.summary) is written to SUMMARY_JSON.
`lslab` must be importable, e.g. with PYTHONPATH pointing at `src`.
"""

import json
import sys

import tracer


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    from lslab import cli  # imports every module the CLI uses

    rec = tracer.Recorder()
    tracer.install(rec)
    try:
        return cli.main(argv)
    finally:
        with open(summary_path, "w") as fp:
            json.dump(rec.summary(), fp)


if __name__ == "__main__":
    sys.exit(main())
