"""Command line front end.

Subcommands: grover-ideal (ideal logical run, JSON), simulate (one
physical run, JSON), sweep-error and sweep-detuning (fidelity curves,
CSV with header `param,fidelity`), feasibility (timing budget, table
or JSON).

Configuration values come from built-in defaults, then an optional
--config file of flat `key = value` lines, then flags, later sources
winning. Numbers are printed with 12 significant digits in lowercase
scientific notation so that outputs diff cleanly. Exit codes: 0
success, 2 usage or configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .experiment import (
    TARGET_LABELS,
    ConfigError,
    ExperimentConfig,
    feasibility_report,
    run_physical,
    sweep_detuning,
    sweep_error,
)
from .gates import run_ideal
from .linalg import NumericalError

#: Config-file type of each ExperimentConfig field, read off its default.
_CONFIG_TYPES = {f.name: type(f.default) for f in fields(ExperimentConfig)}
_FILE_KEYS = dict(_CONFIG_TYPES, output=str, format=str)

DEFAULT_ERROR_POINTS = "0,0.01,0.02,0.03,0.04,0.05"
DEFAULT_DETUNING_POINTS = "4,8,12,16,20"


def _fmt(x):
    return f"{float(x):.11e}"


def _json_text(obj):
    """JSON with floats at 12 significant digits, keys in insertion order."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in obj) + "]"
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return json.dumps(obj)


def _emit(text, output):
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def parse_config_file(path):
    """Flat `key = value` lines; # starts a comment; unknown keys are
    rejected by name."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        key = key.strip()
        value = value.strip()
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key: {key}")
        try:
            values[key] = _FILE_KEYS[key](value)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: invalid value {value!r} for key {key}"
            ) from None
    return values


def _build_config(args):
    """Defaults, then config file, then flags; returns (ExperimentConfig,
    output path or None, format or None)."""
    values = parse_config_file(args.config) if args.config else {}
    output = values.pop("output", None)
    fmt = values.pop("format", None)
    for key in _CONFIG_TYPES:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    if args.output is not None:
        output = args.output
    if args.format is not None:
        fmt = args.format
    return ExperimentConfig(**values), output, fmt


def _add_config_flags(sp):
    sp.add_argument("--config", metavar="PATH", help="key = value config file")
    sp.add_argument("--omega-over-2pi", dest="omega_over_2pi", type=float,
                    help="vacuum Rabi frequency / 2 pi in Hz (default 5.0e4)")
    sp.add_argument("--delta-over-omega", dest="delta_over_omega", type=float,
                    help="detuning in units of omega (default 4.0)")
    sp.add_argument("--target", type=int, help="searched item 0..3 (default 3)")
    sp.add_argument("--epsilon", type=float, help="fractional pulse error (default 0)")
    sp.add_argument("--n-max", dest="n_max", type=int, help="Fock cutoff, at most 100 (default 2)")
    sp.add_argument("--collision-model", dest="collision_model",
                    help="exact or effective (default exact)")
    sp.add_argument("--error-model", dest="error_model",
                    help="rabi_only or all_angles (default rabi_only)")
    sp.add_argument("--output", metavar="PATH", help="write output here instead of stdout")
    sp.add_argument("--format", help="output format")


def cmd_grover_ideal(args):
    target = 3 if args.target is None else args.target
    amps = run_ideal(target)
    record = {
        "target": target,
        "probabilities": [float(abs(a) ** 2) for a in amps],
    }
    _emit(_json_text(record) + "\n", args.output)
    return 0


def cmd_simulate(args):
    config, output, fmt = _build_config(args)
    if fmt not in (None, "json"):
        raise ConfigError(f"simulate emits json, not {fmt!r}")
    result = run_physical(config)
    record = {
        "target": config.target,
        "fidelity": result.fidelity,
        "populations": {label: result.populations[label] for label in TARGET_LABELS},
        "leaked_photon_probability": result.leaked_photon_probability,
        "gate_time_s": result.gate_time_s,
        "total_time_s": result.total_time_s,
    }
    _emit(_json_text(record) + "\n", output)
    return 0


def cmd_sweep(args):
    config, output, fmt = _build_config(args)
    if fmt not in (None, "csv"):
        raise ConfigError(f"sweeps emit csv, not {fmt!r}")
    rows = args.sweep(config, [float(p) for p in args.points.split(",") if p.strip()])
    lines = ["param,fidelity"]
    lines += [f"{_fmt(p)},{_fmt(f)}" for p, f in rows]
    _emit("\n".join(lines) + "\n", output)
    return 0


_FEASIBILITY_ROWS = (
    ("omega_over_2pi_hz", "vacuum Rabi frequency / 2pi (Hz)"),
    ("delta_over_omega", "delta / omega"),
    ("lambda_over_2pi_hz", "lambda / 2pi (Hz)"),
    ("gate_time_s", "single-gate time (s)"),
    ("two_gate_time_s", "two-gate time (s)"),
    ("total_time_s", "total interaction time (s)"),
    ("interaction_length_m", "interaction length (m)"),
    ("velocity_m_per_s", "required atomic velocity (m/s)"),
    ("photon_lifetime_s", "photon lifetime (s)"),
    ("lifetime_ratio", "total time / lifetime"),
)


def cmd_feasibility(args):
    report = feasibility_report(
        omega_over_2pi=args.omega_over_2pi,
        delta_over_omega=args.delta_over_omega,
        interaction_length_m=args.interaction_length,
        photon_lifetime_s=args.photon_lifetime,
        total_time_override_s=args.total_time,
    )
    if args.format == "json":
        record = {key: getattr(report, key) for key, _ in _FEASIBILITY_ROWS}
        record["flag"] = report.flag
        record["note"] = report.note
        _emit(_json_text(record) + "\n", args.output)
        return 0
    width = max(len(label) for _, label in _FEASIBILITY_ROWS)
    lines = [
        f"{label:<{width}}  {_fmt(getattr(report, key))}"
        for key, label in _FEASIBILITY_ROWS
    ]
    lines.append(f"{'flag':<{width}}  {report.flag}")
    lines.append(f"note: {report.note}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cavity-grover",
        description="Two-qubit search on a pair of Rydberg atoms "
        "colliding in a detuned cavity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("grover-ideal", help="ideal logical run, JSON")
    sp.add_argument("--target", type=int, help="searched item 0..3 (default 3)")
    sp.add_argument("--output", metavar="PATH")
    sp.set_defaults(func=cmd_grover_ideal)

    sp = sub.add_parser("simulate", help="one physical run, JSON")
    _add_config_flags(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep-error", help="fidelity vs pulse error, CSV")
    _add_config_flags(sp)
    sp.add_argument("--points", default=DEFAULT_ERROR_POINTS,
                    help=f"comma-separated epsilons (default {DEFAULT_ERROR_POINTS})")
    sp.set_defaults(func=cmd_sweep, sweep=sweep_error)

    sp = sub.add_parser("sweep-detuning", help="fidelity vs delta/omega, CSV")
    _add_config_flags(sp)
    sp.add_argument("--points", default=DEFAULT_DETUNING_POINTS,
                    help=f"comma-separated ratios (default {DEFAULT_DETUNING_POINTS})")
    sp.set_defaults(func=cmd_sweep, sweep=sweep_detuning)

    sp = sub.add_parser("feasibility", help="timing budget, table or JSON")
    sp.add_argument("--omega-over-2pi", dest="omega_over_2pi", type=float, default=5.0e4)
    sp.add_argument("--delta-over-omega", dest="delta_over_omega", type=float, default=4.0)
    sp.add_argument("--interaction-length", dest="interaction_length", type=float,
                    default=0.01, help="crossing length in m (default 0.01)")
    sp.add_argument("--photon-lifetime", dest="photon_lifetime", type=float,
                    default=1e-3, help="cavity photon lifetime in s (default 1e-3)")
    sp.add_argument("--total-time", dest="total_time", type=float, default=None,
                    help="override the derived two-gate total time in s")
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.add_argument("--output", metavar="PATH")
    sp.set_defaults(func=cmd_feasibility)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
