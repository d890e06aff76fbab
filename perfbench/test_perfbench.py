"""The benchmark's own tests: the oracle agrees with the package, it
rejects wrong results, and a one-op run of each workload prints every
metric BENCHMARK.json names.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import oracle
import run
import worker
from workloads import CLI_TEMPLATES, WORKLOADS, make_op

from cavity_grover.experiment import ExperimentConfig, run_physical, sweep_error

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir(monkeypatch):
    path = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    monkeypatch.chdir(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _random_config(rng):
    return {
        "omega_over_2pi": rng.uniform(2e4, 8e4),
        "delta_over_omega": rng.choice([4.0, rng.uniform(4.0, 100.0), 100.0]),
        "target": rng.randrange(4),
        "epsilon": rng.uniform(-0.05, 0.05),
        "n_max": rng.choice([2, 5, 20]),
        "collision_model": rng.choice(["exact", "effective"]),
        "error_model": rng.choice(["rabi_only", "all_angles"]),
    }


def test_reference_matches_package_on_random_configs():
    ref = oracle.Reference()
    rng = random.Random(7)
    labels = ["g1g2", "g1i2", "g1e2", "e1g2", "e1i2", "e1e2"]
    for _ in range(30):
        cfg = _random_config(rng)
        result = run_physical(ExperimentConfig(**cfg))
        marginals, leaked = ref.run(cfg)
        for label, p in zip(labels, marginals.ravel()):
            assert abs(result.populations[label] - p) <= oracle.FIDELITY_TOL, (cfg, label)
        assert abs(result.leaked_photon_probability - leaked) <= oracle.FIDELITY_TOL
        assert abs(result.fidelity - ref.fidelity(cfg)) <= oracle.FIDELITY_TOL


@pytest.mark.parametrize("model", ["exact", "effective"])
def test_sector_exponential_equals_full_expm(model):
    h, n = oracle.collision_hamiltonian(5e4, 7.3, 3, model)
    t = oracle.gate_time(5e4, 7.3)
    psi = np.random.default_rng(0).normal(size=(len(n), 2)) @ [1, 1j]
    full = expm(-1j * t * h) @ psi
    assert np.max(np.abs(oracle.Collision(h, n, t).apply(psi) - full)) < 1e-11


def test_check_accepts_package_sweep():
    op = make_op("error-sweep", 3, 5)
    rows = sweep_error(ExperimentConfig(**op["config"]), op["points"])
    assert oracle.check(oracle.Reference(), op, [list(r) for r in rows]) == []


def test_check_rejects_wrong_target():
    op = make_op("error-sweep", 3, 5)
    wrong = dict(op["config"], target=(op["config"]["target"] + 1) % 4)
    rows = sweep_error(ExperimentConfig(**wrong), op["points"])
    problems = oracle.check(oracle.Reference(), op, [list(r) for r in rows])
    assert len(problems) == len(op["points"])


def test_check_rejects_small_perturbation():
    op = make_op("detuning-convergence", 3, 1)
    ref = oracle.Reference()
    rows = [[r, ref.fidelity(dict(op["config"], delta_over_omega=r))] for r in op["points"]]
    assert oracle.check(ref, op, rows) == []
    rows[2][1] += 1e-8
    assert len(oracle.check(ref, op, rows)) == 1
    assert oracle.check(ref, op, rows[:-1]) != []
    assert oracle.check(ref, op, {"error": "NumericalError()"}) != []


def _cli_op(name):
    template = next(t for t in CLI_TEMPLATES if t.__name__ == name)
    argv, expect, files, output = template(random.Random(0))
    return {"call": "cli", "argv": argv, "expect": expect, "files": files, "output": output}


def test_every_cli_template_passes_the_check(workdir):
    from cavity_grover.cli import main

    ref = oracle.Reference()
    for template in CLI_TEMPLATES:
        op = _cli_op(template.__name__)
        _, output = worker.run_op(main, op)
        assert oracle.check(ref, op, output) == [], op["argv"]


def test_check_rejects_cli_failures(workdir):
    from cavity_grover.cli import main

    ref = oracle.Reference()
    op = _cli_op("_simulate_flags")
    _, good = worker.run_op(main, op)
    assert oracle.check(ref, op, good) == []
    other = dict(op["expect"]["config"], target=(op["expect"]["config"]["target"] + 1) % 4)
    wrong_target = dict(op, expect=dict(op["expect"], config=other))
    assert oracle.check(ref, wrong_target, good) != []
    assert oracle.check(ref, op, dict(good, code=2)) != []
    assert oracle.check(ref, op, dict(good, stderr="warning\n")) != []
    assert oracle.check(ref, op, dict(good, stdout=good["stdout"].replace("e-01", "e-02", 1))) != []
    to_file = _cli_op("_sweep_detuning_points")
    _, written = worker.run_op(main, to_file)
    assert oracle.check(ref, to_file, written) == []
    assert oracle.check(ref, to_file, dict(written, file=None)) != []


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_op_run_prints_every_metric(workload, trace):
    proc = _run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
                      "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name in result["metrics"]:
        assert name in proc.stdout.split("\n{")[0]


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run_bench(bare, "--workload", "error-sweep", "--seed", "1", "--seconds", "1",
                          "--trace", "0")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)



def test_kind_percentile_averages_the_kinds():
    n = 15 * 20
    kinds = [make_op("cli-mix", 5, i)["kind"] for i in range(1, n + 1)]
    cost = {k: 1.0 + r for r, k in enumerate(sorted(set(kinds)))}
    groups = run.by_kind("cli-mix", 5, [cost[k] for k in kinds])
    assert len(groups) == 15
    for p in (50, run.TAIL_P):
        assert run.kind_percentile(groups, p) == pytest.approx(statistics.mean(cost.values()))
