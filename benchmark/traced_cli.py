"""Run one lineembed CLI command with its layers traced.

    PYTHONPATH=src python benchmark/traced_cli.py SPAWNED SPANS_OUT ID_PREFIX PARENT -- ARGS...

SPAWNED is the monotonic time at which the caller started this process, so
the first span, cli.import, covers interpreter start plus
``import lineembed.cli``.  The command then runs through ``lineembed.cli.main``
as it would from the command line, and the spans are written to SPANS_OUT
as JSON when it is done.  Exits with the command's exit code.
"""

import sys
import time

import lineembed.cli as cli

IMPORTED = time.monotonic()

from spans import Tracer, instrument  # noqa: E402  (after the timed import)


def main() -> int:
    spawned, out, prefix, parent, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPAWNED SPANS_OUT ID_PREFIX PARENT -- ARGS...")
    tracer = Tracer(prefix=prefix, parent=parent)
    tracer.add("cli.import", float(spawned), IMPORTED)
    instrument(tracer)
    try:
        return cli.main(args)
    finally:
        sys.stdout.flush()
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main())
