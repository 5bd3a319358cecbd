"""Workload process: runs one workload's closed loop and prints its raw result as JSON.

Started by ``run.py``; not meant to be run by hand. With ``--trace 0`` it runs
one fixed round of tasks repeatedly for about ``--seconds`` and keeps each
task's median time (see ``closed_loop``). With ``--trace 1`` it runs a fixed task list
twice, untraced then traced, so that counts repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import oracles
import speed
import tracing
import workloads

#: Stop adding rounds after this long, whatever MIN_ROUNDS says.
HARD_CAP_S = 90.0
MIN_ROUNDS = 3


def run_task(w, task, corrupt: bool, tracer=None):
    """(latency_s, failed) for one task; untyped exceptions and wrong outputs fail.

    With a tracer, only the timed call is traced, never the check.
    """
    t0 = time.perf_counter()
    try:
        out = w.run(task)
    except Exception:  # noqa: BLE001 - every untyped error is a counted failure
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, True
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
    try:
        w.check(task, w.corrupt(out) if corrupt else out)
    except oracles.CheckFailed as exc:
        if not corrupt:
            print(f"check failed: {exc}", file=sys.stderr)
        return latency, True
    finally:
        if tracer is not None:
            tracer.enabled = True
    return latency, False


def timed_tasks(w, tasks, corrupt: bool):
    """Run tasks in order with the reference kernel timed between them (see ``speed``).

    Yields (index, raw_s, scaled_s, failed); a task's time is scaled by the
    kernel timings just before and just after it.
    """
    before = speed.kernel_ms()
    for i, task in enumerate(tasks):
        latency, bad = run_task(w, task, corrupt)
        after = speed.kernel_ms()
        yield i, latency, latency * speed.factor(before, after), bad
        before = after


def closed_loop(w, rng, seconds: float, blocks: int, corrupt: bool) -> dict:
    """Run one round of tasks (``w.round_blocks`` blocks) again and again.

    A task's time is its median over the rounds. At least MIN_ROUNDS rounds
    run, and as many as end nearest to ``seconds``; with ``blocks`` set, one
    round of that many blocks.
    """
    tasks = [t for _ in range(blocks or w.round_blocks) for t in w.block(rng)]
    raw = [[] for _ in tasks]
    scaled = [[] for _ in tasks]
    failed, rounds = 0, 0
    start = time.perf_counter()
    while True:
        for i, latency, scaled_s, bad in timed_tasks(w, tasks, corrupt):
            raw[i].append(latency)
            scaled[i].append(scaled_s)
            failed += bad
        rounds += 1
        elapsed = time.perf_counter() - start
        if blocks or elapsed >= HARD_CAP_S:
            break
        if rounds >= MIN_ROUNDS and elapsed + 0.5 * elapsed / rounds > seconds:
            break
    return dict(latencies_s=[statistics.median(x) for x in raw],
                scaled_s=[statistics.median(x) for x in scaled],
                attempted=rounds * len(tasks), failed=failed, rounds=rounds,
                wall_s=time.perf_counter() - start)


def traced_passes(w, rng, blocks: int, corrupt: bool, spans_path: Path) -> dict:
    tasks = [t for _ in range(blocks or w.trace_blocks) for t in w.block(rng)]
    run_task(w, tasks[0], corrupt)  # warm caches before either pass
    plain = [(latency, scaled, bad) for _, latency, scaled, bad in timed_tasks(w, tasks, corrupt)]
    wall = {}
    if isinstance(w, workloads.CliDaily):
        for t, (_, scaled, _) in zip(tasks, plain):
            kind = w.catalogue[t["entry"]]["kind"]
            wall.setdefault(kind, []).append(1e3 * scaled)
        w.traced = True
        tracer = None
    else:
        tracer = tracing.Tracer()
        tracer.install()
    traced = []
    for i, t in enumerate(tasks):
        if tracer is not None:
            tracer.task_id = i
        traced.append(run_task(w, t, corrupt, tracer))
    if tracer is not None:
        raw = tracer.raw()
        spans = [tracer.spans()]
    else:
        raw = tracing.merge(r["raw"] for r in w.raws)
        spans = [r["spans"] for r in w.raws]
    tracing.write_spans(spans_path, spans)
    extras = {f"cli.{k}.wall_ms": float(np.median(v)) for k, v in wall.items()}
    # both passes run back to back, so raw times compare directly
    extras["trace.overhead_frac"] = sum(x for x, _ in traced) / sum(x for x, _, _ in plain) - 1.0
    failed = sum(b for *_, b in plain) + sum(b for _, b in traced)
    return dict(raw=raw, extras=extras, attempted=2 * len(tasks), failed=failed,
                latencies_s=[x for x, _, _ in plain], scaled_s=[x for _, x, _ in plain])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blocks", type=int, default=0, help="run exactly this many blocks")
    ap.add_argument("--corrupt", action="store_true", help="corrupt every output before its check")
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)
    root, work = Path(args.root), Path(args.work)
    manifest = json.loads((work / "manifest.json").read_text())
    w = workloads.make(manifest, root, work)
    rng = np.random.default_rng([manifest["seed"], 7])
    if args.trace:
        result = traced_passes(w, rng, args.blocks, args.corrupt, Path(args.spans))
    else:
        result = closed_loop(w, rng, args.seconds, args.blocks, args.corrupt)
    who = resource.RUSAGE_CHILDREN if isinstance(w, workloads.CliDaily) else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
