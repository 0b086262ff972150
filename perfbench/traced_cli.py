"""Entry point of each fresh process in the traced rounds of cli_cold.

Times the import of the package, ``cli.main`` and the library calls that
``main`` makes, and writes the spans and counts as JSON to SPANS_FILE.
Standard output is exactly that of ``python -m recur_moments.cli ARGS``.

Usage: python3 perfbench/traced_cli.py SPANS_FILE (--import-only | ARGS...)
with the package's ``src`` directory on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys

from tracing import Tracer, instrument


def main(argv: list[str]) -> int:
    spans_file, args = argv[0], argv[1:]
    tracer = Tracer()
    rc = 0
    if args == ["--import-only"]:
        with tracer.span("cli.import"):
            import recur_moments  # noqa: F401
    else:
        with tracer.span("cli.import"):
            import recur_moments.cli as cli
        with instrument(tracer), tracer.span("cli.main"):
            rc = cli.main(args)
    sys.stdout.flush()
    with open(spans_file, "w") as fh:
        json.dump(tracer.to_json(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
