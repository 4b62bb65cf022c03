"""Child process for one benchmark CLI request.

    python3 bench/launcher.py SPANS_PATH ARG...

runs ``coorbit2d.cli.main([ARG...])`` and exits with its code.  With a
non-empty SPANS_PATH it first installs the span wrappers and, after the
request, writes the recorded spans there as JSON; with an empty one it runs
the command untouched, so traced and untraced requests differ only by the
wrappers.  The coorbit2d sources must be importable (PYTHONPATH).
"""

import json
import sys


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from coorbit2d import cli

    if not spans_path:
        return cli.main(argv)
    from spans import CLI_TARGETS, Tracer

    tracer = Tracer()
    tracer.install(CLI_TARGETS)
    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
