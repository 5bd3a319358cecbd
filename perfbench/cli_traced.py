"""Run one lst command-line call with the tracer installed.

Usage: ``python3 perfbench/cli_traced.py RAW_JSON -- <lst arguments>``.
Stdout and the exit code are lst's own; the tracer's totals and spans go to
RAW_JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import tracing


def main() -> int:
    raw_path, argv = Path(sys.argv[1]), sys.argv[3:]
    import lst.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = lst.cli.main(argv)
    finally:
        sys.stdout.flush()
        raw_path.write_text(json.dumps(dict(raw=tracer.raw(), spans=tracer.spans())))
    return code


if __name__ == "__main__":
    sys.exit(main())
