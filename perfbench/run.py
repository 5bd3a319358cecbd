"""lst benchmark: run one workload from a seed, check every output, print metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload stress-report --seed 1 --seconds 50 --trace 0

Workloads: stress-report and cli-daily (see BENCHMARK.json for why each
exists), and buffer-sizing and policy-optimize, which run by hand only: on a
noisy 2-core host their run-to-run spread stayed too close to the largest
bound BENCHMARK.json allows. cli-daily still reaches the buffer, specialfuncs
and optimizer code through its buffer, optimize and goldens calls.
The program under test is the ``lst`` package in ``src/``; it is imported
from there, never from an installed copy.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are the
end-to-end ones: ``setup_s`` (median of fresh interpreters that import lst,
load the inputs and warm up), ``task_p50_ms``, ``task_p90_ms``,
``tasks_per_s`` (one client, closed loop, tasks over the summed task time;
each task's time is its median over several rounds, see ``worker.py``) and
``peak_rss_mb``. ``failed`` over ``attempted`` is the failed fraction.
Every time is scaled to a reference core speed by a kernel timed around each
step (see ``speed.py``); the raw times are printed and recorded beside them.
The benchmark's processes run pinned to one core.
With ``--trace 1`` the metrics are the per-layer ones of ``tracing.PER_LAYER``.
Lines before the last give sample counts, the failed fraction and the
environment; the same record is written to ``.perfbench_out/``.

Options ``--tiny``, ``--blocks`` and ``--corrupt`` serve the self-check
(``perfbench/selfcheck.py``).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import gen
import speed
import tracing

HERE = Path(__file__).resolve().parent
WORKLOADS = ("stress-report", "buffer-sizing", "policy-optimize", "cli-daily")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
WORKER_TIMEOUT_S = 150.0


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(src.rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts and ".egg-info" not in str(f):
            h.update(str(f.relative_to(src)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return dict(
        commit=commit, source_sha256_16=source_digest(root / "src"),
        python=platform.python_version(), numpy=metadata.version("numpy"),
        scipy=metadata.version("scipy"), nproc=os.cpu_count(),
        affinity=sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        threads={v: os.environ[v] for v in gen.THREAD_VARS}, machine=platform.machine(),
        reference_kernel_ms=speed.REFERENCE_MS,
    )


def import_times(stderr: str) -> tuple:
    """(lst_ms, scipy_ms) from ``-X importtime``: cumulative time of each outermost lst/scipy import."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        parts = line.split("|")
        cum, name = parts[1], parts[2]
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((int(cum), depth, name.strip()))
    totals = {"lst": 0, "scipy": 0}
    stack = []
    for cum, depth, name in reversed(rows):  # post-order reversed: parents come first
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        for root in totals:
            if name.split(".")[0] == root and parent.split(".")[0] != root:
                totals[root] += cum
        stack.append((depth, name))
    return totals["lst"] / 1e3, totals["scipy"] / 1e3


def quantile(values, q: int) -> float:
    """The q-th decile (q in 1..9), Python's default exclusive method."""
    return statistics.quantiles(values, n=10)[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs (self-check)")
    ap.add_argument("--blocks", type=int, default=0, help="exactly this many task blocks (self-check)")
    ap.add_argument("--corrupt", action="store_true", help="corrupt outputs before checking (self-check)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lst" / "__init__.py").is_file():
        return fail(f"no lst sources under {root / 'src'}; run from the root of a checkout")
    if not (HERE / "expected_cli.json").is_file():
        return fail("perfbench/expected_cli.json is missing")

    os.environ.update(gen.program_env(root, os.environ))
    speed.pin()
    out_dir = root / ".perfbench_out"
    work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    try:
        return measure(args, root, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root: Path, work: Path, out_dir: Path) -> int:
    t0 = time.perf_counter()
    gen.make(args.workload, args.seed, work, root / "src" / "lst" / "data", tiny=args.tiny)
    gen_s = time.perf_counter() - t0
    compileall.compile_dir(str(root / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    py = sys.executable

    setup, setup_raw, imports = [], [], []
    if args.trace == 0:
        probe = [py, str(HERE / "probe.py"), str(root), str(work)]
        before = speed.kernel_ms()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            proc = subprocess.run(probe, cwd=root, capture_output=True, text=True, timeout=120)
            setup_raw.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return fail("set-up probe failed")
            after = speed.kernel_ms()
            setup.append(setup_raw[-1] * speed.factor(before, after))
            before = after
    else:
        for _ in range(IMPORT_REPEATS):
            proc = subprocess.run([py, "-X", "importtime", "-c", "import lst"], cwd=root,
                                  capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return fail("import probe failed")
            imports.append(import_times(proc.stderr))

    spans = out_dir / f"spans-{args.workload}.json"  # last traced run only
    cmd = [py, str(HERE / "worker.py"), "--root", str(root), "--work", str(work),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", str(spans),
           "--blocks", str(args.blocks)] + (["--corrupt"] if args.corrupt else [])
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return fail("workload process timed out")
    if proc.returncode != 0 or not stdout.strip():
        return fail(f"workload process exited with {proc.returncode}")
    res = json.loads(stdout.strip().splitlines()[-1])

    lat, raw_lat = res["scaled_s"], res["latencies_s"]
    n = len(lat)
    if args.trace == 0:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "task_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
            "task_p90_ms": {"value": 1e3 * quantile(lat, 9), "unit": "ms"},
            "tasks_per_s": {"value": n / sum(lat), "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
        beyond = sum(x > quantile(lat, 9) for x in lat)
        counts = dict(setup_s=len(setup), task_p50_ms=n, task_p90_ms=n, tasks_per_s=n, peak_rss_mb=1)
        print(f"# {args.workload} seed={args.seed}: {n} tasks, median of {res['rounds']} rounds, "
              f"{beyond} beyond p90, loop {res['wall_s']:.1f} s, inputs {gen_s:.2f} s")
        print(f"# raw (unscaled) setup_s {statistics.median(setup_raw):.6g} s, "
              f"task_p50_ms {1e3 * statistics.median(raw_lat):.6g} ms, "
              f"task_p90_ms {1e3 * quantile(raw_lat, 9):.6g} ms, tasks_per_s {n / sum(raw_lat):.6g} 1/s")
    else:
        extras = dict(res["extras"])
        extras["import.lst_ms"] = statistics.median(x for x, _ in imports)
        extras["import.scipy_ms"] = statistics.median(y for _, y in imports)
        metrics = tracing.per_layer_metrics(res["raw"], extras)
        counts = {k: (n if k != "trace.overhead_frac" else 2 * n) for k in metrics}
        print(f"# {args.workload} seed={args.seed}: traced pass of {n} tasks; spans in {spans.name}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"# failed_frac {failed / attempted:.6g} ({failed} of {attempted} tasks)")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']} (n={counts[name]})")
    env = environment(root)
    print("# env " + json.dumps(env, sort_keys=True))
    record = dict(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  attempted=attempted, failed=failed, metrics=metrics, samples=counts, env=env,
                  latencies_ms=[1e3 * x for x in lat], raw_latencies_ms=[1e3 * x for x in raw_lat],
                  setup_s=setup, raw_setup_s=setup_raw, imports_ms=imports)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
