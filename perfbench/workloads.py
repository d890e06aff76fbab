"""Seeded inputs for the three benchmark workloads.

Every op is a plain JSON-able dict built from (workload, seed, op index)
alone, so the harness, the workload process and the oracle all derive
the same inputs without passing them around. Standard library only:
the workload process imports this before the package under test.

An op dict has a "kind" key, which names the work it does (for cli-mix,
its argv template; every op of the other workloads does the same work),
and a "call" key:

- "sweep_error" / "sweep_detuning": the library call, with the
  ExperimentConfig fields in "config" and the sweep values in "points".
- "cli": one cli.main(argv) call. "files" are written into the working
  directory before the call, "output" names the file the call writes
  instead of stdout, and "expect" says what the oracle compares.
"""

from __future__ import annotations

import random

WORKLOADS = ("error-sweep", "detuning-convergence", "cli-mix")

#: ExperimentConfig defaults, as the CLI documents them.
DEFAULT_CONFIG = {
    "omega_over_2pi": 5.0e4,
    "delta_over_omega": 4.0,
    "target": 3,
    "epsilon": 0.0,
    "n_max": 2,
    "collision_model": "exact",
    "error_model": "rabi_only",
}
FEASIBILITY_DEFAULTS = {
    "omega_over_2pi": 5.0e4,
    "delta_over_omega": 4.0,
    "interaction_length": 0.01,
    "photon_lifetime": 1e-3,
    "total_time": None,
}
DEFAULT_ERROR_POINTS = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]
DEFAULT_DETUNING_POINTS = [4.0, 8.0, 12.0, 16.0, 20.0]
ERROR_MODELS = ("rabi_only", "all_angles")

ERROR_SWEEP_POINTS = 101
DETUNING_POINTS = 5
DETUNING_N_MAX = 20
# Dense eigh and the expm oracle both hold 1e-9 only up to here; see NOTES.md.
MAX_RATIO = 100.0


def _rng(workload, seed, i):
    return random.Random(f"{workload}/{seed}/{i}")


def _config(**overrides):
    return dict(DEFAULT_CONFIG, **overrides)


def _num(x):
    """A float as argv text that parses back to the same float."""
    return repr(float(x))


def _points(values):
    return ",".join(_num(v) for v in values)


def _epsilon(rng):
    return rng.uniform(-0.05, 0.05)


def _ratio(rng):
    return rng.uniform(4.0, MAX_RATIO)


# cli-mix argv templates. Each returns (argv, expect, files, output).
# The seed fills in values but never changes how much work a template
# does, so every seed runs the same latency mix (see NOTES.md).


def _grover_default(rng):
    return ["grover-ideal"], {"kind": "ideal", "target": 3}, {}, None


def _grover_target(rng):
    t = rng.randrange(4)
    return ["grover-ideal", "--target", str(t)], {"kind": "ideal", "target": t}, {}, None


def _simulate_default(rng):
    return ["simulate"], {"kind": "simulate", "config": _config()}, {}, None


def _simulate_flags(rng):
    cfg = _config(target=rng.randrange(4), epsilon=_epsilon(rng),
                  n_max=rng.choice((3, 4)), error_model=rng.choice(ERROR_MODELS))
    argv = ["simulate", "--target", str(cfg["target"]), f"--epsilon={_num(cfg['epsilon'])}",
            "--n-max", str(cfg["n_max"]), "--error-model", cfg["error_model"]]
    return argv, {"kind": "simulate", "config": cfg}, {}, None


def _simulate_config_file(rng):
    cfg = _config(target=rng.randrange(4), epsilon=_epsilon(rng),
                  delta_over_omega=rng.uniform(4.0, 12.0),
                  error_model=rng.choice(ERROR_MODELS))
    text = (
        "# simulate settings\n"
        f"target = {cfg['target']}\n"
        f"epsilon = {_num(cfg['epsilon'])}  # pulse error\n"
        f"delta_over_omega = {_num(cfg['delta_over_omega'])}\n"
        f"error_model = {cfg['error_model']}\n"
    )
    argv = ["simulate", "--config", "run.cfg"]
    return argv, {"kind": "simulate", "config": cfg}, {"run.cfg": text}, None


def _simulate_effective(rng):
    cfg = _config(target=rng.randrange(4), epsilon=_epsilon(rng), collision_model="effective")
    argv = ["simulate", "--collision-model", "effective", "--target", str(cfg["target"]),
            f"--epsilon={_num(cfg['epsilon'])}"]
    return argv, {"kind": "simulate", "config": cfg}, {}, None


def _simulate_json_output(rng):
    cfg = _config(target=rng.randrange(4), omega_over_2pi=rng.uniform(2e4, 8e4))
    argv = ["simulate", "--format", "json", "--output", "simulate.json",
            "--target", str(cfg["target"]), f"--omega-over-2pi={_num(cfg['omega_over_2pi'])}"]
    return argv, {"kind": "simulate", "config": cfg}, {}, "simulate.json"


def _sweep_error_default(rng):
    expect = {"kind": "sweep_error", "config": _config(), "points": DEFAULT_ERROR_POINTS}
    return ["sweep-error"], expect, {}, None


def _sweep_error_points(rng):
    cfg = _config(target=rng.randrange(4), error_model=rng.choice(ERROR_MODELS),
                  collision_model="effective")
    points = [_epsilon(rng) for _ in range(6)]
    argv = ["sweep-error", f"--points={_points(points)}", "--target", str(cfg["target"]),
            "--error-model", cfg["error_model"], "--collision-model", "effective"]
    return argv, {"kind": "sweep_error", "config": cfg, "points": points}, {}, None


def _sweep_error_config_file(rng):
    cfg = _config(target=rng.randrange(4), n_max=3, error_model=rng.choice(ERROR_MODELS))
    points = [_epsilon(rng) for _ in range(3)]
    text = (
        f"target = {cfg['target']}\n"
        "n_max = 3\n"
        f"error_model = {cfg['error_model']}\n"
        "collision_model = effective\n"
        "output = ignored.csv\n"
        "format = csv\n"
    )
    # Flags win over the file: the collision model and the output path.
    argv = ["sweep-error", "--config", "sweep.cfg", f"--points={_points(points)}",
            "--collision-model", "exact", "--output", "sweep.csv"]
    expect = {"kind": "sweep_error", "config": cfg, "points": points}
    return argv, expect, {"sweep.cfg": text}, "sweep.csv"


def _sweep_detuning_default(rng):
    expect = {"kind": "sweep_detuning", "config": _config(), "points": DEFAULT_DETUNING_POINTS}
    return ["sweep-detuning"], expect, {}, None


def _sweep_detuning_points(rng):
    cfg = _config(target=rng.randrange(4), n_max=5)
    points = [_ratio(rng) for _ in range(5)]
    argv = ["sweep-detuning", f"--points={_points(points)}", "--n-max", "5",
            "--target", str(cfg["target"]), "--output", "detuning.csv"]
    expect = {"kind": "sweep_detuning", "config": cfg, "points": points}
    return argv, expect, {}, "detuning.csv"


def _feasibility_default(rng):
    expect = {"kind": "feasibility", "format": "table", "params": dict(FEASIBILITY_DEFAULTS)}
    return ["feasibility"], expect, {}, None


def _feasibility_json(rng):
    params = dict(FEASIBILITY_DEFAULTS, omega_over_2pi=rng.uniform(2e4, 8e4),
                  delta_over_omega=rng.uniform(4.0, 20.0),
                  interaction_length=rng.uniform(0.005, 0.05),
                  photon_lifetime=rng.uniform(1e-4, 1e-2))
    argv = ["feasibility", "--format", "json",
            f"--omega-over-2pi={_num(params['omega_over_2pi'])}",
            f"--delta-over-omega={_num(params['delta_over_omega'])}",
            f"--interaction-length={_num(params['interaction_length'])}",
            f"--photon-lifetime={_num(params['photon_lifetime'])}"]
    return argv, {"kind": "feasibility", "format": "json", "params": params}, {}, None


def _feasibility_output(rng):
    params = dict(FEASIBILITY_DEFAULTS, total_time=rng.uniform(1e-4, 1e-3))
    argv = ["feasibility", f"--total-time={_num(params['total_time'])}", "--output", "feasibility.txt"]
    expect = {"kind": "feasibility", "format": "table", "params": params}
    return argv, expect, {}, "feasibility.txt"


CLI_TEMPLATES = (
    _grover_default,
    _grover_target,
    _feasibility_default,
    _feasibility_json,
    _feasibility_output,
    _simulate_default,
    _simulate_flags,
    _simulate_config_file,
    _simulate_effective,
    _simulate_json_output,
    _sweep_error_default,
    _sweep_error_points,
    _sweep_error_config_file,
    _sweep_detuning_default,
    _sweep_detuning_points,
)


def make_op(workload, seed, i):
    """Op number i of a workload run with this seed."""
    rng = _rng(workload, seed, i)
    # Op 0 (the warm-up, and the op the setup launches time) of the two
    # sweeps has one point, so that setup_s is mostly import and first-call
    # cost rather than a sweep's worth of work.
    if workload == "error-sweep":
        cfg = _config(target=i % 4, error_model=ERROR_MODELS[(i // 4) % 2])
        points = [_epsilon(rng) for _ in range(ERROR_SWEEP_POINTS if i else 1)]
        return {"kind": "sweep_error", "call": "sweep_error", "config": cfg, "points": points}
    if workload == "detuning-convergence":
        cfg = _config(target=i % 4, n_max=DETUNING_N_MAX)
        points = [_ratio(rng) for _ in range(DETUNING_POINTS if i else 1)]
        return {"kind": "sweep_detuning", "call": "sweep_detuning", "config": cfg,
                "points": points}
    if workload == "cli-mix":
        # Each cycle runs every template once, in a seeded order. Op 0,
        # the warm-up and the op the setup launches time, is always a
        # default `simulate`, so setup_s does not depend on the seed.
        cycle, pos = divmod(i, len(CLI_TEMPLATES))
        order = list(range(len(CLI_TEMPLATES)))
        _rng(workload, seed, f"cycle{cycle}").shuffle(order)
        template = _simulate_default if i == 0 else CLI_TEMPLATES[order[pos]]
        argv, expect, files, output = template(rng)
        return {"kind": template.__name__.lstrip("_"), "call": "cli", "argv": argv,
                "expect": expect, "files": files, "output": output}
    raise ValueError(f"unknown workload {workload!r}")
