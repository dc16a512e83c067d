"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q benchmarks/selfcheck.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

GROUPS = {"kinetics": ["balance_s"], "exchange": ["symmetrize_s"],
          "spectra": ["distribute_maxent_s", "selftest_s"]}


def _bench(*argv, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    for name in ["setup_s", "setup_clock_s", "wall_s", "wall_ref", "fail_frac",
                 "peak_rss_mb"] + GROUPS[workload]:
        assert name in printed
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    if workload != "kinetics":  # every kinetics op fails until relax is fixed
        assert last["failed"] == 0, lines
    assert list(last["metrics"]) == [m["name"] for m in _benchmark_json()["end_to_end"]]
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_traced_smoke_run_prints_every_layer_metric():
    proc = _bench("--workload", "spectra", "--seed", "3", "--seconds", "1",
                  "--trace", "1", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    assert set(tracing.LAYER_METRICS) | {"trace.overhead_s"} <= printed
    metrics = json.loads(lines[-1])["metrics"]
    assert list(metrics) == [m["name"] for m in _benchmark_json()["per_layer"]]
    assert metrics["distributions.solve_mu_on_levels.calls"]["value"] > 0


def test_reported_metrics_match_benchmark_json():
    spec = _benchmark_json()
    units = {**run.END_TO_END_UNITS, **run.LAYER_UNITS}
    for section, names in (("end_to_end", run.REPORTED_END_TO_END),
                           ("per_layer", run.REPORTED_PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[section]] == \
            [(name, units[name]) for name in names]
    assert run.WORKLOADS == workloads.WORKLOADS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "spectra", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _ops(tmp_path, name_prefix):
    ops = workloads.build("exchange", 4, True, tmp_path)
    return [op for op in ops if op.name.startswith(name_prefix)]


def test_checker_passes_true_outputs(tmp_path):
    result = worker.run_pass(workloads.build("exchange", 4, True, tmp_path))
    assert result["failures"] == []


def test_checker_counts_a_perturbed_permanent(tmp_path):
    op = _ops(tmp_path, "permanent")[-1]
    true_call = op.call
    op.call = lambda: true_call() * (1.0 + 1e-6)
    result = worker.run_pass([op])
    assert len(result["failures"]) == 1
    assert "permanent off by" in result["failures"][0]


def test_checker_counts_a_dropped_projector_term(tmp_path):
    for op in _ops(tmp_path, "symmetrize n=5") + _ops(tmp_path, "antisymmetrize n=5 distinct"):
        true_call = op.call

        def dropped(true_call=true_call):
            state = true_call()
            return workloads.symmetry.NParticleState(state.n, state.terms[1:])

        op.call = dropped
        result = worker.run_pass([op])
        assert len(result["failures"]) == 1, op.name
        assert "terms, expected" in result["failures"][0]


def test_checker_counts_a_dropped_term_in_cli_output(tmp_path):
    op = _ops(tmp_path, "idstat symmetrize --anti")[0]
    true_call = op.call

    def dropped():
        output = true_call()
        raw = json.loads(output.text)
        raw["terms"] = raw["terms"][:-1]
        return workloads.CliOutput(output.code, json.dumps(raw))

    op.call = dropped
    assert len(worker.run_pass([op])["failures"]) == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determinism(workload, tmp_path):
    def specs(seed):
        return [(op.name, op.spec) for op in workloads.build(workload, seed, False, tmp_path)]

    first = specs(5)
    assert specs(5) == first
    assert specs(6) != first
    assert [name for name, _ in specs(6)] == [name for name, _ in first]
