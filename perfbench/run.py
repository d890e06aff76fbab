"""Benchmark of the cavity_grover package: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload in turn

Workloads (see NOTES.md for why each exists): error-sweep,
detuning-convergence, cli-mix. Each runs in a workload process of its
own (worker.py), closed loop, one client, BLAS pinned to one thread.

--trace 0 prints the end-to-end metrics: op_p50_norm_ms and
op_tail_norm_ms (latency scaled by a reference task timed around each
op, so that the host's drift cancels), setup_s and peak_rss_mb, plus the
raw ops_per_s, op_p50_ms and op_tail_ms, which are printed but not
gated. --trace 1 runs each op untraced and then traced, and prints the
per-layer metrics. Either way every op's output is checked against an independent scipy reference
(oracle.py), outside the timed region. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. A fuller
record with provenance goes to .perfbench/results/.
"""

import os

#: BLAS thread pin. Set before numpy is imported here, and inherited by
#: every workload process (threadpoolctl is not available to set it later).
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKER = HERE / "worker.py"

from oracle import Reference, check  # noqa: E402
from workloads import WORKLOADS, make_op  # noqa: E402

#: Fresh interpreters launched per run to time setup; setup_s is their
#: median. Half are launched before the measured loop and half after, so
#: they sample the host at two times rather than one.
SETUP_LAUNCHES = 10
#: The tail percentile, taken per op kind and averaged over the kinds.
#: cli-mix mixes fifteen argv templates whose costs differ tenfold, so one
#: percentile over the whole mix would sit on its slowest template and on
#: the rare stalls of a shared host; per kind, about a tenth of each
#: template's ops lie beyond it.
TAIL_P = 90
#: Time of the workload process's reference task (worker.reference_task)
#: on the 2-vCPU host the bounds were set on, in its fast phase. The *_norm_ms
#: metrics scale each op's latency by REF_MS over the mean time of the
#: reference task runs just before and just after the op: the op's latency
#: on a host that runs the task in REF_MS. The host's drift cancels in the
#: ratio (NOTES.md, "Host noise").
REF_MS = 1.3
#: How long a workload process may run beyond --seconds before it is killed.
CHILD_TIMEOUT_S = 120

END_TO_END = (
    ("op_p50_norm_ms", "ms"),
    ("op_tail_norm_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Raw latencies and throughput. Printed and kept in the results file, but
#: left out of the JSON result and so not gated: they follow the host's
#: drift (NOTES.md, "Host noise").
REPORTED_ONLY = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"))

#: Per-layer metrics: name is <span name>.<field>; "constructions" reads
#: the span's calls. calls, constructions and self_ms are means per op.
PER_LAYER = (
    ("linalg.propagator.calls", "count"),
    ("linalg.propagator.self_ms", "ms"),
    ("linalg.propagator.dim", "count"),
    ("linalg.embed.calls", "count"),
    ("linalg.embed.self_ms", "ms"),
    ("linalg.apply.calls", "count"),
    ("linalg.apply.self_ms", "ms"),
    ("linalg.tensor.calls", "count"),
    ("linalg.tensor.self_ms", "ms"),
    ("cavity.hamiltonian_exact.calls", "count"),
    ("cavity.hamiltonian_exact.self_ms", "ms"),
    ("cavity.evolve_collision.calls", "count"),
    ("cavity.evolve_collision.self_ms", "ms"),
    ("cavity.evolve_collision.distinct_ratio", "frac"),
    ("cavity.excitation_number.calls", "count"),
    ("cavity.excitation_number.self_ms", "ms"),
    ("cavity.PhysicalState.constructions", "count"),
    ("cavity.PhysicalState.self_ms", "ms"),
    ("cavity.atomic_marginal.self_ms", "ms"),
    ("experiment.compile_pulses.self_ms", "ms"),
    ("experiment.pulse_unitary.calls", "count"),
    ("experiment.pulse_unitary.self_ms", "ms"),
    ("experiment.run_physical.calls", "count"),
    ("experiment.run_physical.self_ms", "ms"),
    ("gates.run_ideal.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.build_parser.self_ms", "ms"),
    ("cli.parse_config_file.self_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("cavity.dispersive_limit_err.1e4", "frac"),
    ("cavity.dispersive_limit_err.1e6", "frac"),
)


def percentile(sorted_values, p):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def by_kind(workload, seed, values):
    """Values of ops 1, 2, ... in order, grouped by the ops' kinds."""
    groups = {}
    for i, x in enumerate(values, 1):
        groups.setdefault(make_op(workload, seed, i)["kind"], []).append(x)
    return [sorted(v) for v in groups.values()]


def kind_percentile(groups, p):
    """The p-th percentile of each kind's values, averaged over the kinds."""
    return statistics.mean(percentile(v, p) for v in groups)


def provenance(workload, seed, trace):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": os.cpu_count(),
        "blas_pin": BLAS_PIN,
    }


def _worker_cmd(workload, seed, mode, *extra):
    return [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
            "--mode", mode, *extra]


def _fail(message):
    raise SystemExit(f"perfbench: {message}")


def time_setup(workload, seed, cwd):
    """Seconds from launching a fresh interpreter to the end of op 0
    (import plus first call), and the op 0 output it printed."""
    start = time.perf_counter()
    proc = subprocess.Popen(_worker_cmd(workload, seed, "setup"), cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        _fail(f"setup launch failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return elapsed, json.loads(line)["output"]


def run_worker(workload, seed, mode, seconds, cwd, *extra):
    try:
        proc = subprocess.run(
            _worker_cmd(workload, seed, mode, "--seconds", repr(seconds), *extra),
            cwd=cwd, capture_output=True, text=True, timeout=seconds + CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _fail(f"workload process ran {CHILD_TIMEOUT_S} s over its {seconds:g} s")
    if proc.returncode != 0:
        _fail(f"workload process failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    *lines, last = proc.stdout.splitlines()
    outputs = [(rec["op"], rec["output"]) for rec in map(json.loads, lines)]
    return json.loads(last), outputs


def verify(workload, seed, checked):
    """checked: [(op id, output)]. Returns (attempted, failure lines)."""
    ref = Reference()
    failures = []
    for i, output in checked:
        problems = check(ref, make_op(workload, seed, i), output)
        if problems:
            failures.append(f"op {i}: " + "; ".join(problems[:3]))
    return len(checked), failures


def end_to_end(workload, seed, seconds, cwd):
    setups = [time_setup(workload, seed, cwd) for _ in range(SETUP_LAUNCHES // 2)]
    record, outputs = run_worker(workload, seed, "measure", seconds, cwd)
    setups += [time_setup(workload, seed, cwd) for _ in range(SETUP_LAUNCHES - len(setups))]
    lat_ms = [x * 1e3 for x in record["latencies"]]
    raw = by_kind(workload, seed, lat_ms)
    refs = record["ref_times"]
    norm = by_kind(workload, seed, [x * REF_MS / ((before + after) / 2 * 1e3)
                                    for x, before, after in zip(lat_ms, refs, refs[1:])])
    metrics = {
        "op_p50_norm_ms": kind_percentile(norm, 50),
        "op_tail_norm_ms": kind_percentile(norm, TAIL_P),
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "op_p50_ms": kind_percentile(raw, 50),
        "op_tail_ms": kind_percentile(raw, TAIL_P),
        "setup_s": statistics.median(t for t, _ in setups),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    per_kind = f"per op kind, mean over {len(raw)} kinds; {len(lat_ms)} samples"
    notes = {
        "op_p50_norm_ms": (f"p50 {per_kind}; reference task median "
                           f"{statistics.median(refs) * 1e3:.3f} ms"),
        "op_tail_norm_ms": f"p{TAIL_P} {per_kind}",
        "op_p50_ms": f"p50 {per_kind}; printed, not gated",
        "op_tail_ms": f"p{TAIL_P} {per_kind}; printed, not gated",
        "setup_s": f"median of {SETUP_LAUNCHES} launches",
        "ops_per_s": f"{len(lat_ms)} ops in {sum(lat_ms) / 1e3:.3f} s of op time; printed, not gated",
    }
    checked = [(0, out) for _, out in setups] + outputs
    return metrics, notes, checked


def per_layer(workload, seed, seconds, cwd):
    spans = WORK / f"spans-{workload}-seed{seed}.csv"
    record, checked = run_worker(workload, seed, "trace", seconds, cwd, "--spans", str(spans))
    layers = record["layers"]
    metrics = {}
    for name, _ in PER_LAYER:
        span, field = name.rsplit(".", 1)
        metrics[name] = layers.get(span, {}).get("calls" if field == "constructions" else field, 0.0)
    metrics["trace.overhead_frac"] = sum(record["traced_latencies"]) / sum(record["latencies"]) - 1
    for label, err in record["dispersive_limit_err"].items():
        metrics[f"cavity.dispersive_limit_err.{label}"] = err
    n = len(record["traced_latencies"])
    notes = {
        "trace.overhead_frac": f"{n} ops traced against the same {n} ops untraced",
        "spans": str(spans.relative_to(ROOT)),
    }
    return metrics, notes, checked


def run_workload(workload, seed, seconds, trace):
    cwd = WORK / f"tmp-{os.getpid()}-{workload}"
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    try:
        measure = per_layer if trace else end_to_end
        metrics, notes, checked = measure(workload, seed, seconds, cwd)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    attempted, failures = verify(workload, seed, checked)
    units = dict(PER_LAYER if trace else END_TO_END)
    shown = units if trace else dict(END_TO_END + REPORTED_ONLY)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    prov = provenance(workload, seed, trace)
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {trace}")
    print("provenance " + json.dumps(prov))
    for name, unit in shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}{note}")
    print(f"  failed {len(failures)} of {attempted} ops attempted")
    for line in failures[:10]:
        print(f"  FAIL {line}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(
        {"provenance": prov, "result": result, "all_metrics": metrics, "notes": notes,
         "failures": failures}, indent=1))
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description="cavity_grover benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "cavity_grover" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'cavity_grover'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
