#!/usr/bin/env python3
"""Repo benchmark: closed-loop workloads over the public q_digest_ray API.

    python3 perfbench/run.py --workload cc_build --seed 1 --seconds 25 --trace 0

One client, one job in flight, one Ray session with ``num_cpus`` = the
CPUs this process may run on.  ``--seed`` picks the synthesized cc_pages
inputs (cached under ``perfbench/.cache``) and the order of the query mix;
every job's output is checked against exact answers, and the last stdout
line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics of the named workload's timed
loop.  ``--trace 1`` reports the per-layer metrics instead (see
perfbench/README.md): one traced run covers every workload -- it replays
cc_build and merge_fanin in-process and times each query of the mix -- so
``--workload`` is only checked for a valid name.  Everything else, Ray and
Ray Data logs included, goes to stderr.  Exit status is 0 only when every
job ran and passed its checks.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

JOB_TIMEOUT_S = 60.0
SETUP_REPEATS = 2
# the watchdog allows this much for imports, input preparation and the set-up
# sessions, on top of --seconds and one job timeout
WATCHDOG_SETUP_S = 60
OBJECT_STORE_BYTES = 256 << 20
# after ray.shutdown, how long the session's processes get to exit on their
# own before they are killed
REAP_GRACE_S = 10.0
# job_tail_s is p75, and the timed loop runs at least MIN_JOBS jobs, so at
# least 10 samples lie beyond it in every run; a percentile fixed for all
# runs, rather than read from each run's sample count, keeps runs comparable
TAIL_PCT = 75
MIN_JOBS = 40

END_TO_END_UNITS = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}


def nproc() -> int:
    """What coreutils ``nproc`` prints: OMP_NUM_THREADS, capped by
    OMP_THREAD_LIMIT, else the CPUs this process may run on."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    if omp.isdigit() and int(omp) > 0:
        n = int(omp)
    limit = os.environ.get("OMP_THREAD_LIMIT", "").strip()
    if limit.isdigit() and int(limit) > 0:
        n = min(n, int(limit))
    return n


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes", "bytes_read")):
        return "bytes"
    if ".share." in name or name.endswith(("per_row", "_err")):
        return "ratio"
    return "count"


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# -- Ray session ------------------------------------------------------------


RAY_TMP = os.path.join(HERE, ".ray")
# a Ray session's socket paths add ~64 characters to its temp dir and AF_UNIX
# allows 107: in a deeper checkout Ray keeps its default temp dir instead
RAY_TMP_FITS = len(RAY_TMP) <= 42


def start_ray():
    import ray

    ray.init(
        num_cpus=nproc(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=RAY_TMP if RAY_TMP_FITS else None,
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_operator_progress_bars = False
    ctx.print_on_execution_start = False
    ctx.enable_auto_log_stats = False
    return ray


def _stat(pid) -> tuple[int, str]:
    """(parent pid, state letter) of a process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as f:
        stat = f.read()
    state, ppid = stat[stat.rindex(")") + 2 :].split()[:2]
    return int(ppid), state


def _descends(pid: int, parent: dict[int, int], root: int) -> bool:
    p, depth = parent.get(pid), 0
    while p not in (None, 0, 1, root) and depth < 16:
        p, depth = parent.get(p), depth + 1
    return p == root


def live_descendants() -> list[int]:
    """Pids of this process's descendants that have not exited.  Exited
    children of this process are reaped on the way."""
    me = os.getpid()
    parent, ended = {}, set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                parent[int(entry)], state = _stat(entry)
            except OSError:  # exited meanwhile
                continue
            if state in "ZX":
                ended.add(int(entry))
    for pid in ended:
        if parent[pid] == me:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:  # reaped by its Popen meanwhile
                pass
    return [pid for pid in parent if pid not in ended and _descends(pid, parent, me)]


def stop_ray(ray) -> None:
    """Shut the session down and wait until every process it started has
    ended: ``ray.shutdown`` signals them but does not wait, and the set-up's
    next session should not start beside the last one's processes, nor the
    benchmark exit while they run.  Processes still alive after
    ``REAP_GRACE_S`` are killed."""
    ray.shutdown()
    deadline = time.monotonic() + REAP_GRACE_S
    while left := live_descendants():
        if time.monotonic() > deadline:
            log(f"killing {len(left)} processes left by the Ray session")
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)
    shutil.rmtree(RAY_TMP, ignore_errors=True)


class JobTimeout(Exception):
    pass


def run_with_timeout(fn, timeout: float):
    """Run ``fn`` in a daemon thread; raise JobTimeout if it overruns.  A
    timed-out job cannot be cancelled from here, so the caller stops the loop
    and the session shutdown reaps its tasks."""
    box: dict = {}

    def target():
        try:
            box["out"] = fn()
        except BaseException as e:  # handed to the caller below
            box["err"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        raise JobTimeout(f"job exceeded {timeout:.0f} s")
    if "err" in box:
        raise box["err"]
    return box["out"]


class PeakRss:
    """Peak summed RSS of this process and its Ray worker processes, sampled
    from /proc every ``period`` seconds on a background thread.

    A process's parent is read once, when its pid first appears, so a sample
    costs one listing of /proc plus ``statm`` reads of the descendants that
    are Ray workers.  A descendant's command line is re-read until it names
    a worker, because Ray renames a worker only after it has started."""

    def __init__(self, period: float = 0.2):
        self.period = period
        self.peak = 0
        self._parent: dict[int, int] = {}
        self._workers: set[int] = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)

    def _rss(self, pid: int) -> int:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * self._page

    def _is_worker(self, pid: int) -> bool:
        if pid not in self._workers:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
            if cmd.startswith(b"ray::") or b"default_worker.py" in cmd:
                self._workers.add(pid)
        return pid in self._workers

    def sample(self) -> int:
        me = os.getpid()
        pids = {int(e) for e in os.listdir("/proc") if e.isdigit()}
        for pid in self._parent.keys() - pids:
            del self._parent[pid]
            self._workers.discard(pid)
        for pid in pids - self._parent.keys():
            try:
                self._parent[pid] = _stat(pid)[0]
            except OSError:  # exited meanwhile
                continue
        total = self._rss(me)
        for pid in self._parent:
            if not _descends(pid, self._parent, me):
                continue
            try:
                if self._is_worker(pid):
                    total += self._rss(pid)
            except OSError:
                continue
        return total

    def _run(self):
        while not self._stop.is_set():
            self.peak = max(self.peak, self.sample())
            self._stop.wait(self.period)


# -- timed run ----------------------------------------------------------------


def timed_run(wl, seconds: float) -> dict:
    import numpy as np

    from perfbench.checks import CheckFailed, Errors

    wl.inputs()
    wl.prepare()
    errs = Errors()
    attempted = failed = 0

    def attempt(i: int):
        """One job; returns its latency, or None when it failed."""
        nonlocal attempted, failed
        attempted += 1
        t0 = time.perf_counter()
        try:
            out = run_with_timeout(lambda: wl.job(i), JOB_TIMEOUT_S)
            dt = time.perf_counter() - t0
            wl.check(out, errs)
            return dt
        except JobTimeout:
            failed += 1
            raise
        except CheckFailed as e:
            log(f"check failed on job {i}: {e}")
        except Exception:
            log(f"job {i} failed:\n{traceback.format_exc()}")
        failed += 1
        return None

    ray = None
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            if ray is not None:
                stop_ray(ray)
            t0 = time.perf_counter()
            ray = start_ray()
            wl.inputs()
            run_with_timeout(lambda: wl.job(0), JOB_TIMEOUT_S)
            setups.append(time.perf_counter() - t0)
        latencies, rows = [], 0
        with PeakRss() as rss:
            start = time.perf_counter()
            i = 0
            while time.perf_counter() - start < seconds or i < MIN_JOBS or i % wl.round_len:
                try:
                    dt = attempt(i)
                except JobTimeout:
                    break
                if dt is not None:
                    latencies.append(dt)
                    rows += wl.job_rows(i)
                i += 1
    finally:
        if ray is not None:
            stop_ray(ray)
    if not latencies:
        raise RuntimeError("no job completed")
    metrics = {
        "setup_s": statistics.median(setups),
        "rows_per_s": rows / sum(latencies),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": float(np.percentile(latencies, TAIL_PCT)),
        "peak_rss_mb": rss.peak / (1 << 20),
    }
    log(
        f"{wl.name}: {len(latencies)} jobs, job_tail_s is p{TAIL_PCT} over {len(latencies)} samples; "
        f"error_rate {failed}/{attempted}; setups {[round(s, 3) for s in setups]}; "
        f"max q-digest rank error {max(errs.qdigest_rank, default=0):.4f}, "
        f"max distinct relative error {max(errs.distinct_rel, default=0):.4f}"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


# -- traced run ---------------------------------------------------------------


def traced_run(seed: int) -> dict:
    from perfbench import tracing
    from perfbench.checks import CheckFailed, Errors
    from perfbench.data import CACHE
    from perfbench.workloads import CcBuild, MergeFanin, SketchQueries
    from q_digest_ray.pipelines import queries
    from q_digest_ray.sources.tables import read_table

    cc, mf, sq = CcBuild(seed), MergeFanin(seed), SketchQueries(seed)
    for wl in (cc, mf, sq):
        wl.inputs()
        wl.prepare()
    tr = tracing.Tracer()
    m = {}
    m.update(tracing.traced_replay(tr, cc.name, cc.dir, ["url", "html", "lang"], cc.specs, True))
    m.update(tracing.traced_replay(tr, mf.name, mf.dir, ["url", "text", "lang"], mf.specs, False))
    m.update(tracing.family_metrics(tr, sorted({s.kind for s in cc.specs + mf.specs})))
    errs = Errors()
    attempted = 0
    ray = start_ray()
    try:
        for wl in (cc, mf):
            walls = []
            for i in range(3):  # the first job pays worker start-up
                t0 = time.perf_counter()
                out = run_with_timeout(lambda: wl.job(i), JOB_TIMEOUT_S)
                walls.append(time.perf_counter() - t0)
                wl.check(out, errs)
                attempted += 1
            m[f"{wl.name}.ray_data.overhead_s"] = statistics.median(walls[1:]) - m[f"{wl.name}.replay_s"]
        for q in sq.MIX:
            t0 = time.perf_counter()
            out = run_with_timeout(lambda: queries.SKETCH_QUERIES[q](sq.dir), JOB_TIMEOUT_S)
            m[f"queries.{q}_s"] = time.perf_counter() - t0
            sq.check((q, out), errs)
            attempted += 1

        def empty_job():
            ds = read_table(sq.dir, "documents", columns=["doc_id", "lang"])
            rows = ds.map_batches(lambda b: b, batch_format="pyarrow").take_all()
            if len(rows) != sq.docs:
                raise CheckFailed(f"empty job returned {len(rows)} rows")

        m["ray_data.empty_job_s"] = tracing.timed(empty_job, 5)
        attempted += 5
        m["checks.qdigest_rank_err"] = max(errs.qdigest_rank)
        m["checks.distinct_rel_err"] = max(errs.distinct_rel)
    finally:
        stop_ray(ray)
    tr.dump(os.path.join(CACHE, "trace.json"))
    log(
        "replay shares: cc_build read+extract+build "
        f"{m['cc_build.share.read_extract_build']:.2f}, merge_fanin merge "
        f"{m['merge_fanin.share.merge']:.2f}"
    )
    return {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(m.items())},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # stdout carries only the result line: send everything else to stderr,
    # including output written at the file-descriptor level
    sys.stdout.flush()
    result_fd = os.dup(1)
    os.dup2(2, 1)
    faulthandler.dump_traceback_later(WATCHDOG_SETUP_S + args.seconds + JOB_TIMEOUT_S, exit=True)
    sys.path.insert(0, ROOT)
    # Ray workers import the package through PYTHONPATH, not sys.path
    os.environ["PYTHONPATH"] = ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.trace:
        result = traced_run(args.seed)
    else:
        result = timed_run(WORKLOADS[args.workload](args.seed), args.seconds)
    faulthandler.cancel_dump_traceback_later()
    with os.fdopen(result_fd, "w") as out:
        out.write(json.dumps(result) + "\n")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
