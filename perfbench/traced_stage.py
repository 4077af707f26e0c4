"""Run one bnsquat CLI stage with the benchmark's spans around its modules.

Usage: python3 traced_stage.py SPANS_FILE STAGE [ARGS...]

The spans go to SPANS_FILE as JSON lines when the stage returns; the exit code
is the stage's own.
"""

import sys

import tracing


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    from bnsquat import cli

    code = cli.main(argv)
    tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
