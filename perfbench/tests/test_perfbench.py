"""Tests of the benchmark itself: smoke runs, wrong outputs, bare checkout.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import reference
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def test_benchmark_json_matches_the_runner():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(
        workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]} \
        == {k: v[:2] for k, v in run.PER_LAYER.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke(workload, trace):
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        ratio = result["metrics"]["trace.attributed_ratio"]["value"]
        assert abs(1.0 - ratio) <= run.RECONCILE_TOL


def _flip_first_csv(output):
    target = sorted(output["dir"].rglob("*.csv"))[0]
    data = bytearray(target.read_bytes())
    data[-2] ^= 1
    target.write_bytes(bytes(data))
    return output


def _fake_suite_failure(output):
    summary = output["dir"] / "suite_summary.csv"
    lines = summary.read_text().splitlines()
    name, cases, _, _ = lines[1].split(",")
    lines[1] = f"{name},{cases},1,FAIL"
    summary.write_text("\n".join(lines) + "\n")
    return output


CORRUPT = {
    "ball_c2_dirichlet": lambda reports: {
        m: dataclasses.replace(r, solution=r.solution.with_values(
            r.solution.flat + 1e-6)) for m, r in reports.items()},
    "torus_c2_global": lambda result: dataclasses.replace(
        result, u_sequence=result.u_sequence[::-1]),
    "ball_c1_cli": _flip_first_csv,
    "pointwise_suite": _fake_suite_failure,
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_wrong_output_is_counted_as_failed(name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    state = workload.setup(5, True, tmp_path)
    good_op = workload.op
    # the CLI check compares against the first op, so let one pass first
    assert workload.check(state, good_op(state)) == []
    workload.op = lambda s: CORRUPT[name](good_op(s))
    records = run.run_ops(workload, state, 0.0, trace=False)
    assert records
    assert all(r["problems"] for r in records)


def test_failed_op_reaches_the_result_line(monkeypatch):
    good_op = workloads.BallC2Dirichlet.op
    monkeypatch.setattr(workloads.BallC2Dirichlet, "op",
                        lambda self, s: CORRUPT["ball_c2_dirichlet"](
                            good_op(self, s)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "ball_c2_dirichlet", "--seed", "5",
                         "--seconds", "0", "--trace", "0", "--smoke"])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_benchmark("ball_c2_dirichlet", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_sampler_probes_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with reference.Sampler() as sampler:
        t = time.perf_counter()
        while time.perf_counter() - t < 0.3:
            pass
    # about six probes inside the block, one after it
    assert len(sampler.samples) >= 4
    assert 0.0 < sampler.spent < 0.3
    assert sampler.speed() == pytest.approx(statistics.fmean(sampler.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_rescaled_applies_the_speed_exponent():
    nominal = reference.NOMINAL_S
    assert run.rescaled(2.0, nominal, 1.75) == pytest.approx(2.0)
    assert run.rescaled(2.0, 2 * nominal) == pytest.approx(1.0)
    assert run.rescaled(2.0, 4 * nominal, 0.5) == pytest.approx(1.0)
    assert run.rescaled(2.0, nominal / 4, 1.5) == pytest.approx(16.0)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail([float(k) for k in range(1, 16)]) == (15.0, 100.0, 0)
    value, pct, beyond = run.tail([float(k) for k in range(1, 21)])
    assert (value, pct, beyond) == (10.0, 50.0, 10)


def test_missing_names_are_reported_absent(monkeypatch):
    import mhessian.grids
    import mhessian.solver
    for name in spans.FIELD_FUNCTIONS:
        monkeypatch.delattr(mhessian.grids, name)
    monkeypatch.delattr(mhessian.solver, "SolveReport")
    absent = set(spans.absent_metrics(run.PER_LAYER))
    assert absent == {"grids.field_calls", "grids.field_s",
                      "regularize.field_repeat_ratio", "solver.newton_iters",
                      "solver.evals_per_iter"}
