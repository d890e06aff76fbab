import contextlib
import io
import json
import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cavity_grover.cli as cli
from cavity_grover.linalg import NumericalError

SCI = re.compile(r"^\d\.\d{11}e[+-]\d{2,}$")

PIN_IDEAL = 0.994743883635
PIN_RABI_005 = 0.975580448597
PIN_ALL_005 = 0.916583390807


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGroverIdeal:
    def test_default_target(self, capsys):
        code, out, err = run_cli(capsys, "grover-ideal")
        assert code == 0
        assert err == ""
        record = json.loads(out)
        assert list(record) == ["target", "probabilities"]
        assert record["target"] == 3
        probs = record["probabilities"]
        assert len(probs) == 4
        assert probs[3] == pytest.approx(1.0, abs=1e-10)
        assert sum(probs) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("target", [0, 1, 2])
    def test_explicit_target(self, capsys, target):
        code, out, _ = run_cli(capsys, "grover-ideal", "--target", str(target))
        assert code == 0
        assert json.loads(out)["probabilities"][target] == pytest.approx(
            1.0, abs=1e-10
        )

    def test_bad_target(self, capsys):
        code, _, err = run_cli(capsys, "grover-ideal", "--target", "5")
        assert code == 2
        assert "target" in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        code, out, _ = run_cli(capsys, "grover-ideal", "--output", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["target"] == 3


class TestSimulate:
    def test_record_layout(self, capsys):
        code, out, _ = run_cli(capsys, "simulate")
        assert code == 0
        record = json.loads(out)
        assert list(record) == [
            "target",
            "fidelity",
            "populations",
            "leaked_photon_probability",
            "gate_time_s",
            "total_time_s",
        ]
        assert list(record["populations"]) == ["g1g2", "g1i2", "e1g2", "e1i2"]
        assert record["target"] == 3
        assert record["fidelity"] == pytest.approx(PIN_IDEAL, abs=1e-9)
        assert record["gate_time_s"] == pytest.approx(1.6e-4, rel=1e-9)
        assert record["total_time_s"] == pytest.approx(3.2e-4, rel=1e-9)

    def test_floats_printed_in_scientific_notation(self, capsys):
        _, out, _ = run_cli(capsys, "simulate")
        match = re.search(r'"fidelity": ([^,]+),', out)
        assert match and SCI.match(match.group(1))

    def test_effective_model_flag(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--collision-model", "effective")
        assert code == 0
        record = json.loads(out)
        assert record["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert record["leaked_photon_probability"] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_json_format(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--format", "csv")
        assert code == 2
        assert "json" in err

    def test_rejects_bad_flag_value(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--target", "7")
        assert code == 2
        assert "target" in err

    def test_config_file(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "# skewed pulses\n"
            "epsilon = 0.05\n"
            "error_model = all_angles\n"
        )
        code, out, _ = run_cli(capsys, "simulate", "--config", str(conf))
        assert code == 0
        assert json.loads(out)["fidelity"] == pytest.approx(PIN_ALL_005, abs=1e-9)

    def test_flag_beats_config_file(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("epsilon = 0.05\nerror_model = all_angles\n")
        code, out, _ = run_cli(
            capsys, "simulate", "--config", str(conf), "--error-model", "rabi_only"
        )
        assert code == 0
        assert json.loads(out)["fidelity"] == pytest.approx(PIN_RABI_005, abs=1e-9)

    def test_config_file_can_set_output(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        conf = tmp_path / "run.conf"
        conf.write_text(f"output = {path}\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(conf))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["target"] == 3

    def test_unknown_config_key_named(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("momentum = 3\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(conf))
        assert code == 2
        assert "unknown config key: momentum" in err
        assert f"{conf}:1" in err

    def test_malformed_config_line(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("epsilon 0.05\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(conf))
        assert code == 2
        assert "key = value" in err

    def test_bad_config_value(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("epsilon = brittle\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(conf))
        assert code == 2
        assert "invalid value" in err and "epsilon" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(tmp_path / "absent.conf")
        )
        assert code == 2
        assert "cannot read config file" in err


class TestSweeps:
    def test_error_sweep_layout(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-error")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "param,fidelity"
        assert len(lines) == 7
        params = []
        fids = []
        for line in lines[1:]:
            left, right = line.split(",")
            assert SCI.match(left) and SCI.match(right)
            params.append(float(left))
            fids.append(float(right))
        assert params == [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]
        assert all(b <= a for a, b in zip(fids, fids[1:]))

    def test_error_sweep_endpoints(self, capsys):
        _, out, _ = run_cli(capsys, "sweep-error", "--points", "0,0.05")
        rows = out.splitlines()[1:]
        assert float(rows[0].split(",")[1]) == pytest.approx(PIN_IDEAL, abs=1e-9)
        assert float(rows[1].split(",")[1]) == pytest.approx(PIN_RABI_005, abs=1e-9)

    def test_error_sweep_is_reproducible(self, capsys):
        _, first, _ = run_cli(capsys, "sweep-error")
        _, second, _ = run_cli(capsys, "sweep-error")
        assert first == second

    def test_detuning_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-detuning")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "param,fidelity"
        params = [float(line.split(",")[0]) for line in lines[1:]]
        fids = [float(line.split(",")[1]) for line in lines[1:]]
        assert params == [4.0, 8.0, 12.0, 16.0, 20.0]
        assert all(b > a for a, b in zip(fids, fids[1:]))
        assert fids[-1] > 0.99

    def test_detuning_sweep_ignores_epsilon(self, capsys):
        _, plain, _ = run_cli(capsys, "sweep-detuning", "--points", "4")
        _, skewed, _ = run_cli(
            capsys, "sweep-detuning", "--points", "4", "--epsilon", "0.05"
        )
        assert plain == skewed

    def test_empty_points(self, capsys):
        code, _, err = run_cli(capsys, "sweep-error", "--points", ",")
        assert code == 2
        assert "at least one point" in err

    def test_rejects_non_csv_format(self, capsys):
        code, _, err = run_cli(capsys, "sweep-error", "--format", "json")
        assert code == 2
        assert "csv" in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out, _ = run_cli(capsys, "sweep-detuning", "--output", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().splitlines()[0] == "param,fidelity"


class TestFeasibility:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "feasibility")
        assert code == 0
        assert "lambda / 2pi (Hz)" in out
        assert "3.12500000000e+03" in out
        assert "required atomic velocity (m/s)" in out
        assert "3.12500000000e+01" in out
        assert re.search(r"^flag\s+pass$", out, re.MULTILINE)
        assert "note: collision timing follows lambda*t = pi" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "feasibility", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["lambda_over_2pi_hz"] == pytest.approx(3125.0, rel=1e-12)
        assert record["gate_time_s"] == pytest.approx(1.6e-4, rel=1e-9)
        assert record["velocity_m_per_s"] == pytest.approx(31.25, rel=1e-9)
        assert record["flag"] == "pass"
        assert "2.5e-04 s" in record["note"]
        assert "120 us" in record["note"]

    def test_total_time_override(self, capsys):
        _, out, _ = run_cli(
            capsys, "feasibility", "--format", "json", "--total-time", "2.5e-4"
        )
        record = json.loads(out)
        assert record["total_time_s"] == pytest.approx(2.5e-4, rel=1e-12)
        assert record["velocity_m_per_s"] == pytest.approx(40.0, rel=1e-12)

    def test_rejects_nonpositive_lifetime(self, capsys):
        code, _, err = run_cli(capsys, "feasibility", "--photon-lifetime=-1e-3")
        assert code == 2
        assert "photon_lifetime_s" in err

    @pytest.mark.parametrize(
        "flag, name",
        [
            ("--interaction-length=inf", "interaction_length_m"),
            ("--photon-lifetime=inf", "photon_lifetime_s"),
            ("--total-time=inf", "total_time_override_s"),
            ("--delta-over-omega=nan", "delta_over_omega"),
        ],
    )
    def test_rejects_infinite_input_by_name(self, capsys, flag, name):
        code, out, err = run_cli(capsys, "feasibility", flag)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {name} must be positive and finite")

    def test_infinite_derived_figure_is_numerical(self, capsys):
        code, out, err = run_cli(
            capsys, "feasibility", "--total-time=1e300", "--photon-lifetime=1e-300",
            "--format=json",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("numerical error: lifetime_ratio")


class TestExitCodes:
    def test_numerical_failure_is_exit_3(self, capsys, monkeypatch):
        def explode(config):
            raise NumericalError("propagator lost unitarity")

        monkeypatch.setattr(cli, "run_physical", explode)
        code, _, err = run_cli(capsys, "simulate")
        assert code == 3
        assert err.startswith("numerical error:")

    @pytest.mark.parametrize("command", ["simulate", "feasibility"])
    def test_overflowing_coupling_is_exit_3(self, capsys, command):
        # omega^2 overflows at 1e300, is zero at 1e-170 and subnormal at
        # 1e-160, where lam = omega^2 / (4 delta) has lost its precision
        for value in ("1e300", "1e-170", "1e-160"):
            code, out, err = run_cli(capsys, command, f"--omega-over-2pi={value}")
            assert code == 3, value
            assert out == ""
            assert err.startswith("numerical error:")
            assert "Traceback" not in err

    def test_overflowing_phase_is_exit_3_without_warnings(self, capsys):
        # delta t overflows in the collision propagator's phases
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "simulate", "--delta-over-omega=1e300")
        assert code == 3
        assert out == ""
        assert err.startswith("numerical error:")

    def test_config_failure_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--delta-over-omega", "0.5")
        assert code == 2
        assert err.startswith("error:")

    def test_runaway_fock_cutoff_is_exit_2(self, capsys):
        # refused before any 6 (n_max + 1)-dimensional matrix is allocated
        code, out, err = run_cli(capsys, "simulate", "--n-max=1000000")
        assert code == 2
        assert out == ""
        assert err.startswith("error: n_max")
        assert "Traceback" not in err


_RUN_FLAGS = ("--omega-over-2pi", "--delta-over-omega", "--epsilon")
FUZZ_FLAGS = {
    "simulate": _RUN_FLAGS,
    "sweep-error": _RUN_FLAGS + ("--points",),
    "sweep-detuning": _RUN_FLAGS + ("--points",),
    "feasibility": (
        "--omega-over-2pi",
        "--delta-over-omega",
        "--interaction-length",
        "--photon-lifetime",
        "--total-time",
    ),
}
EDGE_VALUES = (0.0, -0.0, -1.0, -5e-06, 1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan)
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:inf|nan|\d[\d.]*(?:e[-+]?\d+)?)(?![\w.])", re.IGNORECASE)


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats())
    flags = draw(st.dictionaries(st.sampled_from(FUZZ_FLAGS[command]), values, max_size=3))
    # --flag=value: argparse reads a separate "-5e-06" as an option
    return [command] + [f"{flag}={value!r}" for flag, value in flags.items()]


class TestFuzz:
    @settings(max_examples=150, deadline=None, database=None)
    @given(argv=fuzz_argv())
    def test_every_input_is_answered_or_refused(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3)
        assert "Traceback" not in err
        assert (out == "") == (code != 0)
        for token in NUMBER.findall(out):
            assert math.isfinite(float(token)), (argv, token)
