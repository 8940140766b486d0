"""Workload process of the benchmark: drives ``obslab.cli.main`` in-process.

One process runs one workload with one client in a closed loop: each op is
one CLI command on a config file written beforehand, and the next op starts
when the previous one has returned. Ops run in whole cycles of the workload's
slots, so every run measures the same mix. The process prints one JSON line.

Modes:
  setup   import the package, write the first cycle's configs, report the
          monotonic time at which the first op could start, and exit.
  run     as setup, then run whole cycles for about --seconds of timed wall
          time (see run_cycles); report per-op latencies, failures and peak
          resident memory.
  trace   run the first cycle with every public obslab function wrapped in
          a span and report per-layer aggregates. With --twin, first run
          whole cycles untraced for half of --seconds (at least one), trace
          the same ops, require byte-identical reports from the two passes
          and report the tracing overhead.
  record  write reference.json: the checked values of the first two cycles
          of every workload for the default seed.

BLAS threads are set by the parent through OBSLAB_THREADS before this
process starts, so the package applies them before numpy is imported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
REFERENCE_CYCLES = 2

sys.path.insert(0, str(HERE))
import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def import_package():
    """Import obslab from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import obslab.cli

    if Path(obslab.__file__).resolve().parent != ROOT / "src" / "obslab":
        raise SystemExit(f"imported obslab from {obslab.__file__}, not from this checkout")
    return obslab.cli


class Runner:
    """Writes op configs to a temporary directory and invokes the CLI on them."""

    def __init__(self, cli, workload: str, seed: int, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir

    def prepare(self, cycle: int) -> list:
        ops = workloads.make_cycle(self.workload, self.seed, cycle)
        for op in ops:
            with open(self.path(op), "w") as fh:
                json.dump(op.config, fh)
        return ops

    def path(self, op) -> str:
        return str(self.workdir / f"{op.index}.json")

    def invoke(self, op) -> tuple:
        """Run one CLI command; returns (exit code, stdout text, error text)."""
        out, err = io.StringIO(), io.StringIO()
        argv = [op.command, "--config", self.path(op), *op.extra]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an op that raises is a failed op, not a crashed run
                code = -1
                err.write(traceback.format_exc())
        return code, out.getvalue(), err.getvalue()


def replay(runner: Runner, ops: list, tracer=None) -> tuple:
    """Run a fixed op list once; returns [(op, latency, code, text, err)] and wall time."""
    results = []
    t0 = time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        if tracer is None:
            code, text, err = runner.invoke(op)
        else:
            code, text, err = tracer.run_op(op.index, runner.invoke, op)
        results.append((op, time.perf_counter() - start, code, text, err))
    return results, time.perf_counter() - t0


def run_cycles(runner: Runner, seconds: float, first: list) -> tuple:
    """Run whole cycles while the next one, at the mean cycle time so far,
    would end less than half a cycle after ``seconds``; at least one.

    The timed wall time excludes writing the configs between cycles.
    """
    results, wall, cycle, ops = [], 0.0, 0, first
    while True:
        done, elapsed = replay(runner, ops)
        results += done
        wall += elapsed
        cycle += 1
        if wall + wall / cycle / 2 > seconds:
            return results, wall
        ops = runner.prepare(cycle)


def load_reference(workload: str, seed: int) -> list:
    if seed != workloads.DEFAULT_SEED:
        return []
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"][workload]


def failures(results, reference, twin=None) -> list:
    """One entry per failed op; with ``twin`` results, a differing report fails too."""
    out = []
    for k, (op, _, code, text, err) in enumerate(results):
        ref = reference[op.index] if op.index < len(reference) else None
        problems = gate.check(op, code, text, ref)
        if problems and err:
            problems.append(err.strip().splitlines()[-1])
        if twin is not None and twin[k][3] != text:
            problems.append("report differs from the untraced run of the same op")
        if problems:
            out.append({"index": op.index, "slot": op.slot, "problems": problems})
    return out


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def mode_run(runner, args) -> dict:
    first = runner.prepare(0)
    ready = time.monotonic()
    results, wall = run_cycles(runner, args.seconds, first)
    return {
        "ready": ready,
        "wall": wall,
        "latencies": [r[1] for r in results],
        "attempted": len(results),
        "failures": failures(results, load_reference(args.workload, args.seed)),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": environment(),
    }


def mode_trace(runner, args) -> dict:
    first = runner.prepare(0)
    if args.twin:
        untraced, untraced_wall = run_cycles(runner, args.seconds / 2, first)
        ops = [r[0] for r in untraced]
    else:
        untraced, ops = [], first
    tracer = spans.Tracer()
    with spans.patched(tracer):
        traced, _ = replay(runner, ops, tracer)
    reference = load_reference(args.workload, args.seed)
    failed = failures(untraced, reference) + failures(traced, reference, untraced or None)
    metrics = spans.aggregate(tracer.spans)
    op_wall = sum(s.wall for s in tracer.spans if s.name == spans.ROOT)
    metrics.update(
        {
            "trace.op_wall_s": op_wall,
            "trace.layer_cover_min": min(spans.op_coverage(tracer.spans)),
            "trace.spans": len(tracer.spans),
            "cli.report_bytes": sum(len(r[3].encode()) for r in traced),
        }
    )
    if args.twin:
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.overhead_s"] = op_wall - untraced_wall
    return {
        "ops": len(ops),
        "attempted": len(untraced) + len(traced),
        "failures": failed,
        "metrics": metrics,
        "environment": environment(),
    }


def mode_record(cli) -> dict:
    doc = {"seed": workloads.DEFAULT_SEED, "cycles": REFERENCE_CYCLES, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        for name in workloads.WORKLOADS:
            runner = Runner(cli, name, workloads.DEFAULT_SEED, Path(tmp))
            ops = [op for c in range(REFERENCE_CYCLES) for op in runner.prepare(c)]
            values = []
            for op, _, code, text, _ in replay(runner, ops)[0]:
                if gate.check(op, code, text):
                    raise SystemExit(f"{name} op {op.index} fails the gate; not recording")
                values.append(gate.checked_values(op.command, json.loads(text)["result"]))
            doc["workloads"][name] = values
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return {"recorded": str(REFERENCE.name)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run", "trace", "record"])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--twin", action="store_true")
    args = parser.parse_args(argv)
    cli = import_package()
    if args.mode == "record":
        out = mode_record(cli)
    else:
        if args.workload is None:
            parser.error("--workload is required")
        workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
        try:
            runner = Runner(cli, args.workload, args.seed, workdir)
            if args.mode == "setup":
                runner.prepare(0)
                out = {"ready": time.monotonic()}
            elif args.mode == "run":
                out = mode_run(runner, args)
            else:
                out = mode_trace(runner, args)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
