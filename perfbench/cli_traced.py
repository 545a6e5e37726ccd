"""Child process for one traced CLI op.

Usage: python3 cli_traced.py SPANS_FILE CLI_ARG...

Installs the span tracer, calls ``flipproc.cli.main`` with the CLI
arguments (flipproc must be importable, e.g. through PYTHONPATH), writes
the recorded spans to SPANS_FILE as JSON and exits with main's code.
"""

import json
import sys

import tracer


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    import flipproc.cli

    spans = tracer.Tracer()
    spans.install()
    try:
        code = flipproc.cli.main(cli_args)
    finally:
        spans.uninstall()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(spans.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
