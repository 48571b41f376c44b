"""Tests of the benchmark itself, on tiny versions of each workload.

Run from the repository root with ``python3 -m pytest -q bench/tests``.
"""

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import coopreg  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from coopreg import reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, trace=0):
    result, detail = run.run_workload(name, seed=3, seconds=0.0, trace=trace, tiny=True)
    return result, detail


def patch(monkeypatch, module, name, make):
    """Replace ``module.name`` by ``make(original)``, keeping the original's identity."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, functools.wraps(original)(make(original)))


def test_spec_names_the_workloads_and_metrics_the_code_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [m[:3] for m in run.PER_LAYER]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, key):
    result, detail = tiny(name, trace)
    assert result["correct"] and result["failed"] == 0, detail["problems"]
    assert result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[key]}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert detail["absent"] == []
    env = detail["environment"]
    assert {"nproc", "python", "numpy", "scipy", "pyyaml", "blas_threads", "seed", "git_commit"} <= set(env)


def test_times_are_scaled_by_the_kernel_samples_around_them():
    ref = speed.REFERENCE_S
    assert speed.Speed.factor(ref, ref) == 1.0
    assert speed.Speed.factor(2 * ref, 2 * ref) == 0.5
    assert speed.Speed.factor(ref, 3 * ref) == 0.5
    assert speed.Speed.factor(ref / 2, ref / 2, dense=True) == pytest.approx(2**speed.DENSE_EXPONENT)
    result, detail = tiny("tune_chain64")
    samples = detail["samples"]
    passes = len(samples["run_s"])
    ops = len(samples["op_wall_s"][0])
    assert len(samples["speed_s"]) == 3 * len(samples["setup_s"]) + passes * (ops + 1)
    for wall, scale, run_s in zip(samples["op_wall_s"], samples["op_scale"], samples["run_s"]):
        assert run_s == pytest.approx(sum(w * f for w, f in zip(wall, scale)))


def test_perturbed_csv_read_back_fails(monkeypatch):
    def make(load):
        def perturbed(path):
            trace = load(path)
            trace.x[-1, 0, 0] += 1e-12
            return trace

        return perturbed

    patch(monkeypatch, coopreg.simulation, "load_trace_csv", make)
    for name in ("sim_tree64", "bench4_session"):
        result, detail = tiny(name)
        assert result["failed"] >= 2 and not result["correct"]
        assert any("read back from CSV" in p for p in detail["problems"])


def test_perturbed_oracle_trace_fails(monkeypatch):
    def make(oracle):
        def perturbed(scenario, gains):
            trace = oracle(scenario, gains)
            trace.e[-1] *= 1.0 + 1e-6
            return trace

        return perturbed

    patch(monkeypatch, coopreg.simulation, "simulate_compact_oracle", make)
    result, detail = tiny("tune_chain64")
    assert result["failed"] == 2 * workloads.CHAIN_SIM_RUNS
    assert all("deviates from the oracle" in p for p in detail["problems"])


def test_perturbed_riccati_solution_fails(monkeypatch):
    patch(monkeypatch, coopreg.synthesis, "solve_parametric_dare", lambda solve: lambda *a, **k: solve(*a, **k) * (1 + 1e-6))
    result, detail = tiny("tune_chain64")
    assert result["failed"] == 2 and any("Riccati residual" in p for p in detail["problems"])


def test_forced_unstable_gain_fails(monkeypatch):
    patch(monkeypatch, coopreg.synthesis, "certify_closed_loop", lambda certify: lambda *a, **k: (True, 0.5))
    result, detail = tiny("tune_chain64")
    assert result["failed"] == 2 and any("exact radius" in p for p in detail["problems"])


def test_perturbed_delayed_law_trace_fails():
    sc = reference.reference_scenario(mode="output", horizon=40)
    gains = reference.reference_gains(mode="output")
    trace = coopreg.simulate_output_feedback(sc, gains, law="delayed")
    assert checks.delayed_law_residual(sc, gains, trace) <= checks.LAW_TOL
    trace.u[10, 2, 0] += 1e-6
    assert checks.delayed_law_residual(sc, gains, trace) > checks.LAW_TOL


@pytest.mark.parametrize("mode", ["state", "output"])
def test_slice_radius_matches_the_dense_certificate_on_the_bundled_benchmark(mode):
    sc = reference.reference_scenario(mode=mode)
    gains = reference.reference_gains(mode=mode)
    stable, rho = coopreg.certify_closed_loop(sc.plant, sc.graph, sc.im, gains, sc.delays, mode)
    exact = checks.slice_radius(sc.plant, sc.graph, sc.im, gains, sc.delays, mode)
    assert stable and abs(rho - exact) < 1e-3
    loud = dataclasses.replace(gains, k_x=50 * gains.k_x, k_z=50 * gains.k_z)
    assert checks.slice_radius(sc.plant, sc.graph, sc.im, loud, sc.delays, mode) > 1.0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", "sim_tree64", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0 and out.stdout == ""
