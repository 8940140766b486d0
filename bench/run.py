"""obslab benchmark: run one workload with one seed and print its metrics.

    python3 bench/run.py --workload pencil --seed 0 --seconds 25 --trace 0

Run from the root of a checkout. Workloads (see workloads.py and
BENCHMARK.json): pencil, sweep, oracle, number-theory. Each run starts fresh
workload processes (worker.py) that import the package from ./src with BLAS
threads pinned to the CPUs available here through OBSLAB_THREADS.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median over five launches of the time from starting the
               workload process to the point where its first op could start
               (interpreter, ``import obslab``, input generation); four
               launches stop there, the fifth goes on to measure
  ops_per_s    ops completed per second of timed wall time
  op_s.p50     median op latency, taken over the workload's op kinds of each
               kind's median, so every kind weighs the same and the figure
               does not jump between kinds of different cost
  peak_rss_mb  peak resident memory of the measuring process
  ok_frac      ops that passed the correctness gate over ops attempted
--trace 1 reports the per-layer metrics of a traced pass (worker.py trace)
at the default thread count, with the twin determinism check and the tracing
overhead, and of a traced cycle at one thread, whose figures carry the
``t1.`` prefix. Layers that a workload never calls read 0.

Before the last line the run prints the environment record and a table of
every metric with its unit and sample count; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 5
# every worker of one run must end within this many seconds of the run's start
RUN_TIMEOUT_S = 170
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker(mode: str, args, threads: str, extra=()) -> tuple:
    """Run worker.py to completion; returns (launch time, parsed last line)."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["OBSLAB_THREADS"] = threads
    argv = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    launch = time.monotonic()
    try:
        proc = subprocess.run(
            argv + list(extra),
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(args.deadline - launch, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {mode} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {mode} exited with code {proc.returncode}")
    return launch, json.loads(proc.stdout.strip().splitlines()[-1])


def environment(threads: str, seed: int, worker_env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown"  # a checkout without .git; src_sha256 still identifies the code
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "obslab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **worker_env,
        "OBSLAB_THREADS": threads,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def end_to_end(args, threads: str) -> tuple:
    setup = []
    for _ in range(SETUP_LAUNCHES - 1):
        launch, out = worker("setup", args, threads)
        setup.append(out["ready"] - launch)
    launch, out = worker("run", args, threads)
    setup.append(out["ready"] - launch)
    lat = out["latencies"]
    kinds = len(WORKLOADS[args.workload])
    kind_medians = [statistics.median(lat[k::kinds]) for k in range(kinds)]
    attempted, failed = out["attempted"], len(out["failures"])
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "ops_per_s": (len(lat) / out["wall"], len(lat)),
        "op_s.p50": (statistics.median(kind_medians), len(lat)),
        "peak_rss_mb": (out["peak_rss_kb"] / 1024.0, 1),
        "ok_frac": ((attempted - failed) / attempted, attempted),
    }
    return metrics, attempted, out["failures"], out["environment"]


def per_layer(args, threads: str) -> tuple:
    _, full = worker("trace", args, threads, extra=["--twin"])
    _, single = worker("trace", args, "1")
    metrics = {name: (value, full["ops"]) for name, value in full["metrics"].items()}
    for name, value in single["metrics"].items():
        metrics[f"t1.{name}"] = (value, single["ops"])
    attempted = full["attempted"] + single["attempted"]
    return metrics, attempted, full["failures"] + single["failures"], full["environment"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="obslab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + RUN_TIMEOUT_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "obslab" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from the root of an obslab checkout (src/obslab and BENCHMARK.json)", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    threads = str(len(os.sched_getaffinity(0)))
    try:
        measure = per_layer if args.trace else end_to_end
        measured, attempted, failures, worker_env = measure(args, threads)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    print(json.dumps({"environment": environment(threads, args.seed, worker_env)}))
    print(f"{'metric':44s} {'value':>16s} {'unit':6s} samples")
    for m in wanted:
        value, samples = measured.get(m["name"], (0, 0))
        if m["unit"] in ("count", "B"):
            value = int(value)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:44s} {value:16.6g} {m['unit']:6s} {samples}")
    for f in failures:
        print(f"failed op {f['index']} ({f['slot']}): {'; '.join(f['problems'])}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
