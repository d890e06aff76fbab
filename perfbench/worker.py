"""The workload process: runs one workload's ops against the package.
It prints each op's output as a JSON line as it goes, and a last JSON
line with the latencies and, when traced, the per-layer summary.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--seconds S] [--spans PATH]

Modes:
  setup    import the package and run op 0, print its output and exit.
           The harness times this from process launch.
  measure  op 0 untimed as a warm-up, then ops 1, 2, ... in a closed
           loop until S seconds have passed; per-op latencies, and the
           times of the reference task, run before each op and once
           after the last.
  trace    op 0 untimed, then each of ops 1, 2, ... twice, untraced and
           then with every layer call wrapped in a span (tracing.py),
           until S seconds have passed; the spans go to PATH. Also
           reports the untimed dispersive-limit probe.

The harness sets the BLAS thread pin in the environment and runs this
with its working directory set to a scratch directory, where CLI ops
read their config files and write their --output files.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from workloads import make_op  # noqa: E402

#: Detunings of the known-defect probe (ROADMAP direction 3), by label.
PROBE_RATIOS = {"1e4": 1e4, "1e6": 1e6}

#: Inputs of the reference task, fixed so that it does the same work on
#: every run. Built without numpy.random, which the package does not
#: load, so that the task adds nothing to peak_rss_mb.
_REF_SYM = np.sin(np.arange(1600.0)).reshape(40, 40)
_REF_SYM = _REF_SYM + _REF_SYM.T
_REF_A = np.cos(np.arange(9.0)).reshape(3, 3)
_REF_B = np.sin(np.arange(36.0) + 0.5).reshape(6, 6)


def reference_task():
    """Seconds taken by a fixed task of pure Python and small numpy calls,
    the kinds of work the package does, that shares no code with it. The
    host's speed drifts by up to 2x over seconds (NOTES.md, "Host noise");
    timed just before and after an op, this reads the speed the op ran at."""
    start = time.perf_counter()
    counts = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for _ in range(20):
        np.kron(_REF_A, _REF_B) @ np.kron(_REF_B, _REF_A)
    np.linalg.eigh(_REF_SYM)
    return time.perf_counter() - start


def _call(workload):
    """The package entry point the workload drives, imported on first use
    so that the setup probe's import time is the package's."""
    if workload == "cli-mix":
        from cavity_grover import cli
        return cli.main
    from cavity_grover import experiment
    return experiment.sweep_error if workload == "error-sweep" else experiment.sweep_detuning


def run_op(call, op):
    """Run one op and return (latency in s, output). Only the package
    call itself is inside the timed region."""
    if op["call"] == "cli":
        for name, text in op["files"].items():
            Path(name).write_text(text)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = call(op["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback fails the op; the run goes on
                return time.perf_counter() - start, {"error": repr(exc)}
        latency = time.perf_counter() - start
        output = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        if op["output"] is not None:
            path = Path(op["output"])
            output["file"] = path.read_text() if path.exists() else None
            path.unlink(missing_ok=True)
        return latency, output
    from cavity_grover.experiment import ExperimentConfig
    config = ExperimentConfig(**op["config"])
    start = time.perf_counter()
    try:
        rows = call(config, op["points"])
    except Exception as exc:  # any raise fails the op; the run goes on
        return time.perf_counter() - start, {"error": repr(exc)}
    return time.perf_counter() - start, [list(row) for row in rows]


def emit(i, output):
    """Print one op's output as a JSON line. Streaming the outputs to the
    harness keeps them out of this process's memory, so peak_rss_mb does
    not grow with the number of ops a run completes."""
    print(json.dumps({"op": i, "output": output}))


def closed_loop(call, ops_of, seconds):
    """Run ops 1, 2, ... until `seconds` have passed (at least one op),
    with the reference task between every two ops and at both ends.
    Returns the latencies and the reference task's times (one more)."""
    latencies, ref_times = [], []
    start = time.perf_counter()
    i = 1
    while True:
        ref_times.append(reference_task())
        latency, output = run_op(call, ops_of(i))
        latencies.append(latency)
        emit(i, output)
        i += 1
        if time.perf_counter() - start >= seconds:
            ref_times.append(reference_task())
            return latencies, ref_times


def traced_loop(call, ops_of, seconds, spans_path):
    """Run each op untraced and then traced, ops 1, 2, ... until
    `seconds` have passed. Pairing the two runs of an op in time keeps
    drift in the host's speed out of the overhead estimate. Returns
    (untraced latencies, traced latencies, per-layer summary)."""
    import cavity_grover.cavity
    import cavity_grover.cli
    import cavity_grover.experiment
    import cavity_grover.gates
    from tracing import Tracer, summarize

    modules = {
        "cavity": cavity_grover.cavity,
        "cli": cavity_grover.cli,
        "experiment": cavity_grover.experiment,
        "gates": cavity_grover.gates,
    }
    tracer = Tracer()
    root = tracer.wrap(f"{call.__module__.rsplit('.', 1)[-1]}.{call.__name__}", call)
    latencies, t_latencies = [], []
    start = time.perf_counter()
    i = 1
    while True:
        op = ops_of(i)
        latency, output = run_op(call, op)
        latencies.append(latency)
        emit(i, output)
        tracer.op = i
        tracer.install(modules)
        try:
            latency, output = run_op(root, op)
        finally:
            tracer.uninstall()
        t_latencies.append(latency)
        emit(i, output)
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    tracer.write(spans_path)
    return latencies, t_latencies, summarize(tracer.spans, len(t_latencies))


def dispersive_limit_err():
    """1 - F of the exact model at epsilon 0, against the dispersive
    limit F = 1, at each PROBE_RATIOS detuning. Untimed."""
    from cavity_grover.experiment import ExperimentConfig, sweep_detuning
    rows = sweep_detuning(ExperimentConfig(), list(PROBE_RATIOS.values()))
    return {label: 1.0 - fid for label, (_, fid) in zip(PROBE_RATIOS, rows)}


def peak_rss_mb():
    """Peak resident memory of this process image. VmHWM restarts at exec;
    ru_maxrss does not, so it would report the harness's peak too."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--spans", help="where the trace mode writes its spans")
    args = p.parse_args(argv)

    def ops_of(i):
        return make_op(args.workload, args.seed, i)

    call = _call(args.workload)
    _, warmup = run_op(call, ops_of(0))
    emit(0, warmup)
    if args.mode == "setup":
        sys.stdout.flush()
        return 0
    if args.mode == "measure":
        latencies, ref_times = closed_loop(call, ops_of, args.seconds)
        record = {"latencies": latencies, "ref_times": ref_times}
    else:
        latencies, t_latencies, layers = traced_loop(call, ops_of, args.seconds, args.spans)
        record = {"latencies": latencies, "traced_latencies": t_latencies, "layers": layers,
                  "dispersive_limit_err": dispersive_limit_err()}
    record["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
