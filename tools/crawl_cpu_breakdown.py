"""CPU per fetched page of a benchmark crawl, split by Ray process class.

    python tools/crawl_cpu_breakdown.py --workload crawl_wave_polite --seed 7
    python tools/crawl_cpu_breakdown.py --workload crawl_stream --seed 7 --jobs 3

(``--verbose`` also lists each process with its class and titles.)

Runs the perfbench crawl config of the workload (``perfbench.workloads``)
on a local Ray cluster of ``perfbench.inputs.RAY_CPUS`` logical CPUs, as
``perfbench/run.py`` does, ``--jobs`` times. Each job's set-up (actor
spawn, fleet warm-up, stream prime) is not measured; its ``run()`` is.
Over the measured runs it reads every process's CPU time below this one
(``perfbench.proctree``) and prints CPU ms per fetched page for each
process class:

- ``task workers``: Ray workers that ran tasks (or stayed idle);
- one row per actor class (``FrontierShard``, ``PolitenessShard``, ...);
- ``Ray Data helpers``: the actors Ray Data starts for itself;
- ``driver`` (less the title sampler's own CPU), ``raylet``,
  ``gcs_server``, and ``other`` (Ray's agents and log monitor).

A worker is classed by the process titles Ray gives it (``ray::IDLE``,
``ray::<task>``, ``ray::<ActorClass>.<method>``), sampled every 20 ms; a
worker that ever served an actor counts as that actor. A process that
exits inside a measured run loses its CPU since the run started, as in
``perfbench.proctree``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# actors this engine defines, and the ones Ray Data starts for itself
ENGINE_ACTORS = ("FrontierShard", "PolitenessShard", "StreamWorker",
                 "StreamCoordinator")
RAY_DATA_ACTORS = ("_StatsActor", "AutoscalingRequester", "SplitCoordinator")

def _title(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return ""


def _comm(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/comm") as f:
            return f.read().strip()
    except OSError:
        return ""


class TitleSampler:
    """Every title each process of the tree showed while running, and the
    CPU seconds the sampling thread itself burnt (charged to the driver
    process, so the report takes it out)."""

    def __init__(self, tree_pids, every_s: float = 0.02):
        self.tree_pids = tree_pids
        self.every_s = every_s
        self.titles: dict[int, set[str]] = {}
        self.cpu_s = 0.0
        self._stop = threading.Event()
        self._th = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        t0 = time.thread_time()
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(self.every_s)
        self.cpu_s = time.thread_time() - t0

    def sample(self) -> None:
        for pid in self.tree_pids():
            t = _title(pid)
            if t:
                self.titles.setdefault(pid, set()).add(t)

    def start(self) -> None:
        self._th.start()

    def stop(self) -> None:
        self._stop.set()
        self._th.join()
        self.sample()


def classify(pid: int, titles: set[str], driver: int) -> str:
    if pid == driver:
        return "driver"
    comm = _comm(pid)
    if comm in ("raylet", "gcs_server"):
        return comm
    names = {t[len("ray::"):].split(".")[0].split("(")[0].split()[0]
             for t in titles if t.startswith("ray::") and len(t) > 5}
    if not names:
        return "other"
    for actor in ENGINE_ACTORS:
        if actor in names:
            return actor
    if names.intersection(RAY_DATA_ACTORS):
        return "Ray Data helpers"
    return "task workers"

def _job_runner(workload: str, seed: int, work: str):
    """(set-up → job, run(job) → fetched pages) for the workload."""
    from perfbench import workloads

    if workload == "crawl_wave_polite":
        from akf_cdparser_ray.pipelines.crawl import CrawlJob

        cfg = workloads.wave_config(seed, os.path.join(work, "wave"))

        def setup():
            shutil.rmtree(cfg.out_dir, ignore_errors=True)
            return CrawlJob(cfg)

        def run(job):
            return sum(c["fetched"] for c in job.run()["counters"])
    elif workload == "crawl_stream":
        from akf_cdparser_ray.pipelines.stream_crawl import StreamCrawlJob

        cfg, _seeds = workloads.stream_config(seed, os.path.join(work, "stream"))

        def setup():
            shutil.rmtree(cfg.out_dir, ignore_errors=True)
            job = StreamCrawlJob(cfg)
            job.prime()
            return job

        def run(job):
            return job.run()["counters"]["fetched"]
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return setup, run


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["crawl_wave_polite", "crawl_stream"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--jobs", type=int, default=3)
    ap.add_argument("--verbose", action="store_true",
                    help="print each process's class and titles")
    args = ap.parse_args()

    os.environ["PYTHONPATH"] = ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")
    os.environ["AKF_PICKLE_BY_VALUE"] = "0"
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    sys.path.insert(0, ROOT)
    from perfbench import inputs, proctree, workloads

    work = tempfile.mkdtemp(prefix="cpu_breakdown_")
    session = workloads.RaySession()
    session.start()
    cpu: dict[str, float] = {}
    fetched = 0
    try:
        setup, run = _job_runner(args.workload, args.seed, work)
        driver = os.getpid()
        for _ in range(args.jobs):
            job = setup()
            sampler = TitleSampler(proctree.tree_pids)
            sampler.sample()
            before = proctree.cpu_seconds(proctree.tree_pids())
            sampler.start()
            try:
                fetched += run(job)
            finally:
                sampler.stop()
                after = proctree.cpu_seconds(proctree.tree_pids())
                job.shutdown()
            for pid, sec in after.items():
                cls = classify(pid, sampler.titles.get(pid, set()), driver)
                cpu[cls] = cpu.get(cls, 0.0) + sec - before.get(pid, 0.0)
            cpu["driver"] -= sampler.cpu_s
            if args.verbose:
                for pid, titles in sorted(sampler.titles.items()):
                    print(pid, classify(pid, titles, driver), sorted(titles)[:4])
    finally:
        session.stop()
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {args.jobs} jobs, {fetched} "
          f"fetched pages, {inputs.RAY_CPUS} Ray CPUs, dictionaries "
          f"{inputs.dictionary_record()}")
    print(f"{'process class':<22} {'CPU ms/page':>12}")
    for cls, sec in sorted(cpu.items(), key=lambda kv: -kv[1]):
        print(f"{cls:<22} {1000.0 * sec / max(1, fetched):>12.2f}")
    total = sum(cpu.values())
    print(f"{'total':<22} {1000.0 * total / max(1, fetched):>12.2f}")


if __name__ == "__main__":
    main()
