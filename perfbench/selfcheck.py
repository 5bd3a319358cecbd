"""Self-check of the benchmark itself (not of lst). Run from the checkout root::

    python3 perfbench/selfcheck.py

For every workload, including buffer-sizing and policy-optimize which
BENCHMARK.json does not list, at a tiny size and one block, it asserts that:

* an untraced run emits exactly BENCHMARK.json's end-to-end metrics, with
  their units, positive and finite, and every output passes its check;
* a traced run emits exactly the per-layer metrics, with their units, the
  layers the workload calls have non-zero counts, and two traced runs with
  the same seed give identical counts;
* a run that corrupts every output before its check counts every task as
  failed, so the checks are live.

Last, it asserts that the benchmark exits non-zero without a result line in a
directory holding only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: A count per workload that must be non-zero when its layers are traced.
CALLED = {
    "stress-report": ("core.load_portfolio.calls", "liquidation.build_schedule.calls",
                      "rcr.rcr_report.calls", "reverse.asset_rst.calls", "hqla.ccf_parametric.calls"),
    "buffer-sizing": ("buffer.net_buffer_cost.calls", "buffer.expected_lg_quadrature.calls",
                      "buffer.tc_asset_sqrt.calls", "specialfuncs.hyp2f1_family.calls"),
    "policy-optimize": ("optimizer.optimize_policy.calls", "optimizer.slsqp.nfev",
                        "liquidation.build_schedule.calls", "core.column_reads"),
    "cli-daily": ("swing.gate_schedule.calls", "swing.gate_fills", "optimizer.slsqp.runs",
                  "buffer.expected_lg_quadrature.calls"),
}


def run(root: Path, *args, check=True) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), *args]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
    if check and proc.returncode != 0:
        raise AssertionError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def expect_metrics(result: dict, spec: list, what: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    names = [m["name"] for m in spec]
    assert sorted(result["metrics"]) == sorted(names), f"{what}: metric names differ"
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{what}: unit of {m['name']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seed = ["--seed", "11", "--seconds", "0", "--tiny", "--blocks", "1"]
    assert {x["name"] for x in bench["workloads"]} <= set(CALLED), "a workload has no self-check"
    for w in CALLED:
        _, res = run(root, "--workload", w, "--trace", "0", *seed)
        expect_metrics(res, bench["end_to_end"], w)
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{w}: {res}"
        assert all(v["value"] > 0 for v in res["metrics"].values()), f"{w}: a zero end-to-end metric"

        counts = []
        for _ in range(2):
            _, res = run(root, "--workload", w, "--trace", "1", *seed)
            expect_metrics(res, bench["per_layer"], f"{w} traced")
            assert res["correct"], f"{w} traced: {res['failed']} failed"
            counts.append({k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"})
        assert counts[0] == counts[1], f"{w}: traced counts differ between identical runs"
        for name in CALLED[w]:
            assert counts[0][name] > 0, f"{w}: {name} is zero"

        _, res = run(root, "--workload", w, "--trace", "0", "--corrupt", *seed)
        assert not res["correct"] and res["failed"] == res["attempted"], f"{w}: corruption missed: {res}"
        print(f"{w}: ok ({res['attempted']} tasks per block)")

    bare = root / ".perfbench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    try:
        proc, res = run(bare, "--workload", "stress-report", "--seed", "1", "--seconds", "1",
                        "--trace", "0", check=False)
        assert proc.returncode != 0 and res is None, "ran without the lst sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare directory: exits", proc.returncode, "without a result")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
