"""Self-tests of the benchmark: its oracles, op runner, seeded inputs and
output contract.  Run with ``python3 -m pytest perfbench -q`` from the
repository root; the short-run tests start the benchmark itself and take
a few minutes."""

import ast
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import mpmath
import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hspovm as hp  # noqa: E402

import child  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def exact_minima(povm):
    V = workloads.coords(povm)
    value = math.log(povm.k) - oracle.informational_power(V)
    return [hp.CriticalPoint(location=hp.BlochVector.from_array(-v), value=value,
                             kind="min", type_label="I") for v in V]


def test_oracle_accepts_exact_minima_and_flags_a_perturbed_one():
    povm = hp.make_hs_povm("cube")
    V = workloads.coords(povm)
    minima = exact_minima(povm)
    oracle.check_minima(minima, V)
    u = -V[0] + np.array([1e-5, 0.0, 0.0])
    moved = dataclasses.replace(minima[0], location=hp.BlochVector.from_array(
        u / np.linalg.norm(u)))
    with pytest.raises(oracle.Mismatch):
        oracle.check_minima([moved, *minima[1:]], V)
    shifted = dataclasses.replace(minima[0], value=minima[0].value + 1e-7)
    with pytest.raises(oracle.Mismatch):
        oracle.check_minima([shifted, *minima[1:]], V)
    with pytest.raises(oracle.Mismatch):
        oracle.check_minima(minima[1:], V)


def test_oracle_flags_a_wrong_certificate_coefficient():
    povm = hp.make_hs_povm("cuboctahedron")
    V = workloads.coords(povm)
    cert = hp.certify_minimum(povm)
    oracle.check_certificate(cert, V, povm.family)
    for name in ("B", "C"):
        wrong = dataclasses.replace(
            cert, coefficients={**cert.coefficients, name: cert.coefficients[name] + 1e-6})
        with pytest.raises(oracle.Mismatch):
            oracle.check_certificate(wrong, V, povm.family)
    with pytest.raises(oracle.Mismatch):
        oracle.check_certificate(dataclasses.replace(cert, uniqueness_verdict=False),
                                 V, povm.family)


def test_oracle_expects_no_unique_minimizer_at_the_tsallis_endpoint():
    V = workloads.coords(hp.make_hs_povm("octahedron"))
    assert oracle.antipodal_minimum_is_unique(V, "tsallis", 0.5)
    assert not oracle.antipodal_minimum_is_unique(V, "tsallis", 2.0)
    assert oracle.antipodal_minimum_is_unique(
        workloads.coords(hp.make_hs_povm("digon")), "tsallis", 2.0)


def op(name, call, check=lambda r: None, refusals=()):
    return workloads.Op(name, "bench.test", call, check, refusals=refusals)


def raise_(error):
    raise error


def test_exceptions_are_failed_ops_not_crashes():
    guard = child.StateGuard()
    outcome = child.run_op(op("x", lambda: raise_(RuntimeError("boom"))),
                           tracing.NO_TRACE, guard)
    assert outcome.status == "failed" and "boom" in outcome.detail
    outcome = child.run_op(op("x", lambda: 1, lambda r: raise_(TypeError("bad"))),
                           tracing.NO_TRACE, guard)
    assert outcome.status == "failed" and outcome.detail.startswith("check:")
    outcome = child.run_op(op("x", lambda: raise_(ValueError("no")),
                              refusals=(ValueError,)), tracing.NO_TRACE, guard)
    assert outcome.status == "ok"


def test_known_failures_match_name_type_and_message():
    name = "certify/rotated/cube"
    known = child.KNOWN_FAILURES[name]
    error = RuntimeError(f"{known['message']} 1e-1")
    assert child.run_op(op(name, lambda: raise_(error)), tracing.NO_TRACE,
                        child.StateGuard()).status == "known"
    other = RuntimeError("something else")
    assert child.run_op(op(name, lambda: raise_(other)), tracing.NO_TRACE,
                        child.StateGuard()).status == "failed"
    assert child.run_op(op("certify/rotated/tetrahedron", lambda: raise_(error)),
                        tracing.NO_TRACE, child.StateGuard()).status == "failed"
    assert len(child.KNOWN_FAILURES) == 6


def test_timed_run_sums_per_op_medians_over_a_partial_last_pass(monkeypatch):
    ops = [op(name, lambda: None) for name in "abc"]
    times = {"a": iter([1.0, 9.0, 2.0]), "b": iter([4.0, 5.0]), "c": iter([7.0, 7.0])}
    clock = iter(range(100))
    monkeypatch.setattr(child, "build", lambda workload, seed: (ops, 0.0))
    monkeypatch.setattr(child, "time", types.SimpleNamespace(
        perf_counter=lambda: float(next(clock))))
    monkeypatch.setattr(child, "run_op", lambda o, tracer, guard: child.Outcome(
        o.name, next(times[o.name]), "known" if o.name == "b" else "ok"))
    args = dataclasses.make_dataclass("Args", ["workload", "seed", "seconds"])(
        "solve", 1, 5)
    report = child.mode_run(args)
    # the clock reads 0 at the start and one more at each check after the
    # first pass, so ops a, b, c, a, b, c, a run before it reaches 5
    assert report["passes"] == pytest.approx(7 / 3)
    assert report["pass_s"] == 2.0 + 4.5 + 7.0
    assert report["attempted"] == 7 and report["ops"] == 3
    assert list(report["failures"]) == ["b"] and report["failed"] == 0


def test_state_guard_counts_and_restores_leaks():
    guard = child.StateGuard()
    prec = mpmath.iv.prec

    def leak():
        mpmath.iv.prec = prec + 100
        os.environ[child.THREADS_ENV] = "7"

    os.environ.pop(child.THREADS_ENV, None)
    child.run_op(op("leak", leak), tracing.NO_TRACE, guard)
    assert guard.iv_prec_leaks == 1
    assert mpmath.iv.prec == prec
    assert child.THREADS_ENV not in os.environ


def test_spans_nest_and_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("bench.pass") as outer:
        with tracer.span("entropy.find_extrema") as inner:
            pass
    assert inner["parent"] == outer["id"]
    layers = tracer.self_times()
    assert layers["bench"] == pytest.approx(
        tracing.duration(outer) - tracing.duration(inner))


def test_seeded_inputs_repeat_and_rotations_are_proper():
    a, b, c = workloads.seeded(3), workloads.seeded(3), workloads.seeded(4)
    assert np.array_equal(a.rotation, b.rotation) and a.tsallis == b.tsallis
    assert not np.array_equal(a.rotation, c.rotation)
    for seed in range(20):
        s = workloads.seeded(seed)
        for R in (s.rotation, s.rate_rotation):
            assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(1.0)
        assert 5 <= s.ngon_n <= 12
        assert s.rect_below <= workloads.BIFURCATION - 0.1
        assert s.rect_above >= workloads.BIFURCATION + 0.1
        assert 0.3 < s.tsallis < 0.9 and 1.2 < s.renyi < 1.6


def test_benchmark_code_does_not_import_scipy():
    for path in HERE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), path.name


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def assert_metrics(proc, declared):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_prints_every_end_to_end_metric(workload):
    result = assert_metrics(run_bench(workload, 0), SPEC["end_to_end"])
    ok_ratio = result["metrics"]["ok_ratio"]["value"]
    if workload == "certify":
        assert ok_ratio == pytest.approx(31 / 37)
    else:
        assert ok_ratio == 1.0


def test_traced_run_prints_every_per_layer_metric():
    result = assert_metrics(run_bench("grid", 1), SPEC["per_layer"])
    assert result["metrics"]["certificate.known_failures"]["value"] == 6


def test_refuses_to_run_without_program_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("solve", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
