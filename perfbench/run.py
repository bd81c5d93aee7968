"""Benchmark entry point.

    python3 perfbench/run.py --workload content --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. With ``--trace 0`` it runs one workload
end to end on a local Ray cluster and prints the end-to-end metrics; with
``--trace 1`` it replays the workload in this process with spans around
each layer's calls and prints the per-layer metrics. The metric names and
units come from BENCHMARK.json. The last stdout line is the result
object; the line before it records the inputs the result was measured on.
Scratch files go under ``.pbw/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARD_CAP_S = 170.0   # the whole run, set-up and checks included


def _fail_fast(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _result(correct: bool, attempted: int, failed: int, metrics: dict,
            spec: list[dict]) -> str:
    units = {m["name"]: m["unit"] for m in spec}
    return json.dumps({
        "correct": correct, "attempted": int(attempted), "failed": int(failed),
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]}
                    for n in units}})


def _watchdog(spec: list[dict]) -> threading.Timer:
    """Past HARD_CAP_S, report the run as failed, stop every process it
    started and exit: a hung run must still end within its time limit."""
    def fire():
        from perfbench.proctree import stop_descendants

        print(_result(False, 1, 1, {m["name"]: 0.0 for m in spec}, spec),
              flush=True)
        stop_descendants(timeout_s=1.0)
        os._exit(0)

    timer = threading.Timer(HARD_CAP_S, fire)
    timer.daemon = True
    timer.start()
    return timer


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_json):
        _fail_fast(f"{bench_json} not found; run from the repository root")
    with open(bench_json) as f:
        bench = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        _fail_fast(f"unknown workload {args.workload!r}")
    for need in ("akf_cdparser_ray/__init__.py", "__ray_entry__.py"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            _fail_fast(f"engine source {need} missing under {ROOT}")
    spec = bench["per_layer" if args.trace else "end_to_end"]

    # Ray workers import the package and this benchmark from the checkout
    # instead of receiving them pickled by value.
    os.environ["PYTHONPATH"] = ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")
    os.environ["AKF_PICKLE_BY_VALUE"] = "0"
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"   # no usage reporting
    sys.path.insert(0, ROOT)
    # Scratch files, temp files and Ray's session dir stay in the checkout,
    # unless its path is too long for Ray's unix sockets (107 bytes with
    # about 68 taken by Ray's own suffix); Ray then keeps its default.
    base = os.path.join(ROOT, ".pbw")
    work = os.path.join(base, f"run-{os.getpid()}")
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    os.environ["RAY_TMPDIR"] = (base if len(base) <= 38
                                else os.environ.get("RAY_TMPDIR", "/tmp"))
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)

    from perfbench import inputs, replay, workloads

    timer = _watchdog(spec)
    # a plain SIGTERM unwinds like an error, so Ray is shut down on the way
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    t_start = time.perf_counter()
    try:
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "ray_cpus": inputs.RAY_CPUS,
            "dictionaries": inputs.dictionary_record(),
            **inputs.source_record(ROOT),
        }
        if args.trace:
            metrics, attempted, failed, extra = replay.traced(
                args.workload, args.seed, args.seconds, work,
                os.path.join(base, "trace",
                             f"{args.workload}-seed{args.seed}.json"),
                [m["name"] for m in spec])
        else:
            samples = workloads.WORKLOADS[args.workload](
                args.seed, args.seconds, work)
            metrics = samples.end_to_end()
            attempted, failed = samples.attempted, samples.failed
            extra = {"rates": samples.rates, "ray_starts": samples.ray_starts,
                     "setups": samples.setups, **samples.extra}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(os.path.join(base, "ray"), ignore_errors=True)
    record["counts"] = extra
    record["wall_s"] = time.perf_counter() - t_start
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        _fail_fast(f"metrics not produced: {missing}")
    line = _result(failed == 0 and attempted > 0, max(1, attempted), failed,
                   metrics, spec)
    workloads.dump(os.path.join(
        base, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        {"inputs": record, "result": json.loads(line)})
    timer.cancel()
    print(json.dumps({"inputs": record}, default=str))
    print(line, flush=True)


if __name__ == "__main__":
    main()
