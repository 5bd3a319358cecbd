"""Record the reference stdout of every cli-daily catalogue entry.

Run once from the root of a checkout of the commit whose CLI output is the
reference (the benchmark's seed commit)::

    PYTHONPATH=src python3 perfbench/make_expected.py

It writes ``perfbench/expected_cli.json``: per entry the exit code, the
SHA-256 of stdout and of each file written to ``--out-dir``, plus the SHA-256
of every generated input file so a changed generator is caught.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench_work" / "expected"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        catalogue = gen.cli_catalogue(work, root / "src" / "lst" / "data")
        env = gen.program_env(root, os.environ)
        outputs = {}
        for i, entry in enumerate(catalogue):
            out_dir = work / f"out_{i}" if entry["out_dir"] else None
            argv = list(entry["argv"]) + (["--out-dir", str(out_dir)] if out_dir else [])
            proc = subprocess.run([sys.executable, "-m", "lst.cli", *argv], cwd=root, env=env,
                                  capture_output=True, timeout=120)
            outputs[entry["key"]] = dict(code=proc.returncode,
                                         **workloads.hash_outputs(proc.stdout, out_dir))
            print(entry["key"], proc.returncode, len(proc.stdout), proc.stderr.decode()[:200])
        doc = dict(inputs=workloads.input_digests(work), outputs=outputs)
        (HERE / "expected_cli.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
