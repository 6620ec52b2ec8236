"""Run a workload's job and print raw results as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR --seconds S
    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR [--inprocess] [--trace]
    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR --reference

A job is the workload's fixed number of periods for the seed, built once in
this process before any linesurf call.  With ``--seconds`` the job is
repeated until that many seconds have passed.  Each repeat runs in a child
forked from this process, so it starts cold: linesurf imported, nothing
computed, no cache filled.  On cli every operation is a fresh process
already, so the repeats run here.  Between repeats the worker times fresh
imports of the workload's module for ``setup_s``.  Without ``--seconds`` the
job runs once in this process, traced with ``--trace``.  run.py starts this
script and turns its output into metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from itertools import islice
from pathlib import Path
from time import perf_counter

import reference
import spans
import workloads

MIN_JOBS = 3
SETUP_SAMPLES = 21
REFERENCE_N = 14
REFERENCE_S = 0.001  # about reference_seconds() in the fast state of the machine it was tuned on
PROCESS_S = 0.07  # about process_seconds() in that state
# Seconds between samples of the machine's speed within a job.  A reference
# process runs before and after every call: the speed at process work changes
# within the length of one call, and a sample taken a few calls away from an
# operation scales it by the wrong speed.
SAMPLE_EVERY, PROCESS_SAMPLE_EVERY = 0.05, 0.0


def reference_seconds() -> float:
    """The fastest of two timings of a fixed Fraction elimination in this
    process: the machine's current speed.  It uses only the standard
    library, so no change to linesurf moves it."""
    best = float("inf")
    for _ in range(2):
        m = reference.matrix(REFERENCE_N)
        start = perf_counter()
        reference.eliminate(m)
        best = min(best, perf_counter() - start)
    return best


def process_seconds() -> float:
    """Time of one run of reference.py as a script: the machine's current
    speed at what a `linesurf` call does.  A slow spell stretches process
    start-up and pure-Python work by different factors, so a `linesurf`
    call keeps its ratio to this process but not to reference_seconds()."""
    start = perf_counter()
    subprocess.run([sys.executable, str(Path(reference.__file__))], env=workloads.child_env(),
                   timeout=60, check=True)
    return perf_counter() - start


class SpeedScale:
    """Scales measured times to the reference speed.

    Each time is multiplied by the nominal reference time over the mean of
    the reference timings taken just before and just after it, so a stretch
    in which the whole machine runs slower does not read as slower code.
    The reference is reference_seconds(), or process_seconds() where every
    operation is a process of its own.
    """

    def __init__(self, processes: bool = False):
        self.reference = process_seconds if processes else reference_seconds
        self.nominal = PROCESS_S if processes else REFERENCE_S
        self.every = PROCESS_SAMPLE_EVERY if processes else SAMPLE_EVERY
        self.before = self.reference()

    def scale(self, times: list[float], start: int = 0) -> None:
        """Scale times[start:], all measured since the previous call."""
        after = self.reference()
        factor = 2 * self.nominal / (self.before + after)
        times[start:] = [t * factor for t in times[start:]]
        self.before = after


def run_periods(periods, recorder: spans.Recorder | None,
                speed: SpeedScale | None = None) -> dict:
    """Time each op's call and check its output.  With ``speed`` the times
    are at the reference speed, sampled every ``speed.every`` seconds."""
    latencies, failures = [], Counter()
    unscaled, sampled = 0, perf_counter()
    for period in periods:
        for op in period:
            index = recorder.open("op", op.attrs) if recorder else None
            start = perf_counter()
            try:
                out = op.call()
                error = None
            except Exception:  # a failed call is a failed operation; keep going
                error = traceback.format_exc(limit=3)
            elapsed = perf_counter() - start
            if recorder:
                recorder.close(index)
            latencies.append(elapsed)
            if error is not None or not op.check(out):
                failures[op.label] += 1
                print(f"failed: {op.label}{': ' + error if error else ''}", file=sys.stderr)
            if speed and perf_counter() - sampled >= speed.every:
                speed.scale(latencies, unscaled)
                unscaled, sampled = len(latencies), perf_counter()
    if speed:
        speed.scale(latencies, unscaled)
    return {"latencies": latencies, "attempted": len(latencies), "failures": dict(failures)}


def merge(results: list[dict]) -> dict:
    """Combine repeats of one job: attempts and failures add up, and each op's
    latency is its median over the repeats."""
    merged = {"latencies": [statistics.median(t) for t in zip(*(r["latencies"] for r in results))],
              "attempted": sum(r["attempted"] for r in results), "failures": Counter()}
    for r in results:
        merged["failures"].update(r["failures"])
    merged["failures"] = dict(merged["failures"])
    return merged


def in_fork(fn):
    """fn() in a child forked from this process; its JSON result comes back
    through a pipe."""
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        code = 1
        try:
            with os.fdopen(write, "w") as pipe:
                json.dump(fn(), pipe)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"forked job ended with wait status {status}")
    return json.loads(text)


def import_seconds(module: str) -> float:
    """Time to import ``module`` in a fresh process."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    return float(subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                                env=workloads.child_env(), timeout=60, check=True).stdout)


def timed_jobs(workload: workloads.Workload, job: list, seconds: float) -> dict:
    """Repeat the job until ``seconds`` have passed, with import samples spread
    evenly over the same time."""
    gc.freeze()  # forked children then leave the inherited objects' pages shared
    results, setups = [], []
    start = perf_counter()
    deadline, every = start + seconds, seconds / SETUP_SAMPLES
    while len(results) < MIN_JOBS or perf_counter() < deadline:
        if perf_counter() >= start + every * len(setups):
            speed, setup = SpeedScale(), [import_seconds(workload.setup_import)]
            speed.scale(setup)
            setups += setup
        if workload.forks:
            results.append(in_fork(lambda: run_periods(job, None, SpeedScale())))
        else:
            results.append(run_periods(job, None, SpeedScale(processes=True)))
    merged = merge(results)
    merged["setups"] = setups
    merged["jobs"] = len(results)
    # every job ran in a child process: forked, or a `linesurf` process on cli
    merged["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float,
                        help="repeat the job, each time cold, for this long")
    parser.add_argument("--inprocess", action="store_true",
                        help="call main() in this process on cli, instead of child processes")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", action="store_true",
                        help="time the ROADMAP reference point instead of a job")
    args = parser.parse_args()

    sys.path.insert(0, str(workloads.SRC))
    workload = workloads.WORKLOADS[args.workload]
    __import__(workload.setup_import)
    if args.reference:
        print(json.dumps(workload.reference() if workload.reference else {}))
        return 0
    make_periods = workload.inprocess if args.inprocess and workload.inprocess else workload.periods
    job = list(islice(make_periods(args.seed, args.workdir), workload.job_periods))

    cwd = os.getcwd()
    os.chdir(args.workdir)  # the cli calls name their files relative to it
    try:
        if args.seconds is not None:
            result = timed_jobs(workload, job, args.seconds)
        else:
            recorder = spans.Recorder() if args.trace else None
            patched = spans.patch(recorder) if recorder else []
            try:
                result = run_periods(job, recorder)
            finally:
                spans.unpatch(patched)
            if recorder:
                result["metrics"] = spans.layer_metrics(recorder.spans)
    finally:
        os.chdir(cwd)

    if args.seconds is not None and args.workload == "profile-stream":
        result["attempted"] += 1
        if workloads.digest(workloads.golden_stream_record()) != workloads.golden()["stream"]:
            result["failures"]["golden-stream"] = 1
            print("failed: golden-stream digest differs", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
