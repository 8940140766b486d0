"""Tests of the benchmark itself: inputs, span wrappers, self times and the gate.

Run from the repository root with ``python3 -m pytest bench``.
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return worker.import_package()


@pytest.fixture
def runner(cli, tmp_path):
    return worker.Runner(cli, "number-theory", workloads.DEFAULT_SEED, tmp_path)


def _key(op):
    return json.dumps([op.command, op.config], sort_keys=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_and_distinct(name):
    first = [op for c in range(100) for op in workloads.make_cycle(name, 3, c)]
    again = [op for c in range(100) for op in workloads.make_cycle(name, 3, c)]
    assert [_key(op) for op in first] == [_key(op) for op in again]
    assert len({_key(op) for op in first}) == len(first)
    other = [op for c in range(20) for op in workloads.make_cycle(name, 4, c)]
    assert [_key(op) for op in other] != [_key(op) for op in first]
    assert [op.index for op in first] == list(range(len(first)))


def _bindings():
    import scipy.linalg

    found = {}
    for module in spans.obslab_modules():
        for attr, value in vars(module).items():
            if callable(value):
                found[(module.__name__, attr)] = value
    for attr in ("eigh", "eigvalsh"):
        found[("scipy.linalg", attr)] = getattr(scipy.linalg, attr)
    return found


def test_span_wrappers_restore_the_original_functions(cli):
    import scipy.linalg

    import obslab.inequalities

    before = _bindings()
    original_gram = obslab.inequalities.assemble_gram
    with pytest.raises(RuntimeError):
        with spans.patched(spans.Tracer()):
            assert obslab.inequalities.assemble_gram is not original_gram
            assert cli.random_state is not before[("obslab.cli", "random_state")]
            assert cli.main is not before[("obslab.cli", "main")]
            assert scipy.linalg.eigh is not before[("scipy.linalg", "eigh")]
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _small_constants_op():
    config = {
        "geometry": workloads.SQUARE,
        "truncation": [8, 8],
        "model": "wave",
        "T": 30.0,
        "spec": {"region": {"kind": "CrossStrips", "a": 1.0, "b": 2.0, "c": 1.0, "d": 2.0}, "field": "velocity"},
    }
    return workloads.Op(0, "test", "constants", config)


def test_self_times_sum_to_the_op_wall_time(cli, tmp_path):
    runner = worker.Runner(cli, "pencil", 0, tmp_path)
    op = _small_constants_op()
    with open(runner.path(op), "w") as fh:
        json.dump(op.config, fh)
    tracer = spans.Tracer()
    with spans.patched(tracer):
        code, text, _ = tracer.run_op(op.index, runner.invoke, op)
    assert code == 0 and gate.check(op, code, text) == []
    root = [s for s in tracer.spans if s.name == spans.ROOT]
    assert len(root) == 1
    own = spans.self_times(tracer.spans)
    total = sum(wall for wall, _ in own.values())
    assert total == pytest.approx(root[0].wall, rel=1e-9)
    assert min(spans.op_coverage(tracer.spans)) >= 0.95
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "observation.assemble_gram", "inequalities.eigensolve"} <= names
    # scipy's eigvalsh calls its own eigh; it must not appear as a nested eigensolve
    assert not any(s.name == spans.EIGENSOLVE and s.parent.name == spans.EIGENSOLVE for s in tracer.spans)
    metrics = spans.aggregate(tracer.spans)
    assert metrics["observation.assemble_gram.bytes"] == 16 * 128**2
    assert metrics["inequalities.eigensolve.dim"] == 128


def test_gate_flags_one_perturbed_number(runner):
    op = workloads.make_op("number-theory", workloads.DEFAULT_SEED, 6)
    assert op.command == "mab"
    reference = worker.load_reference("number-theory", workloads.DEFAULT_SEED)[op.index]
    with open(runner.path(op), "w") as fh:
        json.dump(op.config, fh)
    code, text, _ = runner.invoke(op)
    assert gate.check(op, code, text, reference) == []
    report = json.loads(text)
    report["result"]["value"] *= 1 + 1e-9
    assert gate.check(op, code, json.dumps(report), reference)
    assert gate.check(op, 1, text, reference) == ["exit code 1"]


def test_gate_checks_pencil_reference_and_invariants():
    op = workloads.make_op("pencil", workloads.DEFAULT_SEED, 0)
    reference = worker.load_reference("pencil", workloads.DEFAULT_SEED)[0]
    report = {"command": op.command, "config": op.config, "result": dict(reference)}
    assert gate.check(op, 0, json.dumps(report), reference) == []
    shifted = copy.deepcopy(report)
    shifted["result"]["c_min"] += 1e-7 * reference["c_max"]
    assert gate.check(op, 0, json.dumps(shifted), reference)
    swapped = copy.deepcopy(report)
    swapped["result"]["c_min"] = 2 * reference["c_max"]
    assert "need 0 <= c_min <= c_max" in gate.check(op, 0, json.dumps(swapped))
    broken = copy.deepcopy(report)
    broken["result"]["c_max"] = math.nan
    assert gate.check(op, 0, json.dumps(broken))


def test_gate_scales_scan_rows_by_their_own_c_min():
    op = workloads.make_op("sweep", workloads.DEFAULT_SEED, 3)
    assert op.command == "scan-t"
    reference = worker.load_reference("sweep", workloads.DEFAULT_SEED)[op.index]
    rows = [
        {"T": t, "c_min": reference[f"rows.{i}.c_min"], "c_predicted": reference[f"rows.{i}.c_predicted"], "pass": True}
        for i, t in enumerate(op.config["T_values"])
    ]
    report = {"command": op.command, "config": op.config, "result": {"rows": rows}}
    rows[0]["c_min"] *= 1 + 1e-12
    assert gate.check(op, 0, json.dumps(report), reference) == []
    rows[0]["c_min"] *= 1 + 1e-6
    assert gate.check(op, 0, json.dumps(report), reference)


def test_run_fails_without_the_program(tmp_path):
    root = HERE.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, f"{HERE.name}/run.py", "--workload", "oracle", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv + ["--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
