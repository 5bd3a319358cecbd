"""Set-up probe: a fresh interpreter imports lst, loads the workload's inputs
and makes one warm-up call of each lst function the workload uses, then exits.

``run.py`` times it from spawn to exit. Usage:
``python3 perfbench/probe.py ROOT WORKDIR``
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main() -> int:
    root, work = Path(sys.argv[1]), Path(sys.argv[2])
    import lst  # noqa: F401 - the import is what is being timed
    import workloads

    manifest = json.loads((work / "manifest.json").read_text())
    workloads.make(manifest, root, work).warmup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
