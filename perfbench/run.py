"""linesurf benchmark: five workloads timed end to end, or one traced run per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the sources under ``src/`` and
needs nothing installed.  Every workload is a closed loop with one caller in
a single process (the cli workload starts one `linesurf` process per call).

A job is the workload's fixed, seeded input, run once in a cold process.
``--trace 0`` repeats the job for ``--seconds``, each time in a process
forked before any linesurf call (worker.py), scales every time to a
reference speed measured alongside, keeps each operation's median over the
repeats, and reports the end-to-end metrics (setup_s, peak_rss_mb,
ops_per_s, op_ms_p50, op_ms_p90).  ``--trace 1`` alternates untraced jobs
with jobs in which every public linesurf function is wrapped by the span
recorder, and reports the per-layer metrics plus the tracing overhead.  The
last line of standard output is the result as JSON; earlier lines record the
environment and, for traced runs, the ROADMAP reference points.

The seed picks the generated inputs; the program sees only those inputs.
Seeds below 100 were used while sizing the workloads.  Check a claimed gain on
a seed of 1000 or more as well, such as 1001.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import worker
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROCESS_SAMPLES = 5
TRACE_PAIRS = 3


def run_worker(workload: str, seed: int, workdir: Path, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--workdir", str(workdir), *extra],
        stdout=subprocess.PIPE, text=True, env=workloads.child_env(), cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def wall_seconds(argv: list[str]) -> float:
    start = perf_counter()
    subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   env=workloads.child_env(), cwd=ROOT, timeout=60, check=True)
    return perf_counter() - start


def outcome(result: dict) -> dict:
    """correct, attempted and failed; a known defect counts as failed but is
    the only kind of failure that leaves correct true."""
    failures = result["failures"]
    return {"correct": all(label in workloads.KNOWN_DEFECTS for label in failures),
            "attempted": result["attempted"], "failed": sum(failures.values())}


def p90(values: list[float]) -> float:
    """The 90th percentile, interpolated; a single value is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def with_units(kind: str, values: dict) -> dict:
    """Attach the units BENCHMARK.json declares for this kind of metric."""
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def timed_run(name: str, seed: int, seconds: int, workdir: Path) -> dict:
    result = run_worker(name, seed, workdir, "--seconds", str(seconds))
    lat = result["latencies"]
    return {**outcome(result), "metrics": with_units("end_to_end", {
        "setup_s": statistics.median(result["setups"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "ops_per_s": len(lat) / sum(lat),
        "op_ms_p50": statistics.median(lat) * 1000,
        "op_ms_p90": p90(lat) * 1000,
    })}


def traced_run(name: str, seed: int, workdir: Path) -> tuple[dict, dict]:
    # alternate untraced and traced jobs; the fastest of each sets the overhead
    jobs = [run_worker(name, seed, workdir, "--inprocess", *flags)
            for _ in range(TRACE_PAIRS) for flags in ((), ("--trace",))]
    plain = min(jobs[0::2], key=lambda r: sum(r["latencies"]))
    traced = min(jobs[1::2], key=lambda r: sum(r["latencies"]))
    interpreter = 1000 * statistics.median(
        wall_seconds([sys.executable, "-c", "pass"]) for _ in range(PROCESS_SAMPLES))
    with_cli = 1000 * statistics.median(
        wall_seconds([sys.executable, "-c", "import linesurf.cli"]) for _ in range(PROCESS_SAMPLES))
    metrics = dict(traced["metrics"])
    metrics["cli.interpreter_ms"] = interpreter
    metrics["cli.import_ms"] = with_cli - interpreter
    metrics["cli.main_ms"] = 1000 * statistics.median(plain["latencies"]) if name == "cli" else 0
    metrics["trace.overhead_share"] = sum(traced["latencies"]) / sum(plain["latencies"]) - 1
    reference = run_worker(name, seed, workdir, "--reference")
    result = {**outcome(worker.merge(jobs)), "metrics": with_units("per_layer", metrics)}
    return result, reference


def environment(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def git_commit() -> str | None:
    """HEAD of the checkout; None outside a git clone or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (workloads.SRC / "linesurf" / "__init__.py").is_file():
        print(f"perfbench: no linesurf sources under {workloads.SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        workloads.write_cli_files(workdir)
        print(json.dumps({"environment": environment(args)}))
        if args.trace:
            result, reference = traced_run(args.workload, args.seed, workdir)
            print(json.dumps({"reference": reference}))
        else:
            result = timed_run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    if result["failed"]:
        print(f"perfbench: {result['failed']} of {result['attempted']} operations failed",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
