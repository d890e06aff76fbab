"""Spans around the package's layer calls, recorded from outside.

The package is not edited. Each layer function is replaced, for the
traced run only, by a wrapper in the module namespace where its caller
looks it up: experiment imports evolve_collision by name, so the
wrapper goes on experiment.evolve_collision; cavity imports propagator
and tensor by name, so those wrappers go on cavity. uninstall() puts
the originals back.

A span is (name, start_ns, end_ns, parent span index, op id, attr).
Spans stay in memory until the run ends. A span's self time is its
duration minus the durations of its child spans; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns


def _collision_key(state, params, t, model="exact"):
    return (params.omega, params.delta, state.basis.n_max, t, model)


def _dimension(h, t):
    return len(h)


#: (span name, [(module, attribute), ...], attr function or None).
#: Every site is where a caller in the package looks the function up.
LAYER_SITES = (
    ("linalg.propagator", [("cavity", "propagator")], _dimension),
    ("linalg.tensor", [("cavity", "tensor"), ("gates", "tensor")], None),
    ("linalg.embed", [("experiment", "embed")], None),
    ("linalg.apply", [("experiment", "apply"), ("gates", "apply")], None),
    ("cavity.hamiltonian_exact", [("cavity", "hamiltonian_exact")], None),
    ("cavity.evolve_collision", [("experiment", "evolve_collision")], _collision_key),
    ("cavity.excitation_number", [("experiment", "excitation_number")], None),
    ("cavity.PhysicalState", [("cavity", "PhysicalState"), ("experiment", "PhysicalState")], None),
    ("cavity.atomic_marginal", [("experiment", "atomic_marginal")], None),
    ("experiment.compile_pulses", [("experiment", "compile_pulses")], None),
    ("experiment.pulse_unitary", [("experiment", "pulse_unitary")], None),
    ("experiment.run_physical", [("experiment", "run_physical"), ("cli", "run_physical")], None),
    ("experiment.sweep_error", [("cli", "sweep_error")], None),
    ("experiment.sweep_detuning", [("cli", "sweep_detuning")], None),
    ("gates.run_ideal", [("cli", "run_ideal")], None),
    ("cli.build_parser", [("cli", "build_parser")], None),
    ("cli.parse_config_file", [("cli", "parse_config_file")], None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, attr=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op,
                              attr(*args, **kwargs) if attr else None)

        return traced

    def install(self, modules):
        """Wrap every LAYER_SITES entry; modules maps short module names
        to the imported modules."""
        for name, sites, attr in LAYER_SITES:
            for mod_name, fn_name in sites:
                module = modules[mod_name]
                original = getattr(module, fn_name)
                self._patched.append((module, fn_name, original))
                setattr(module, fn_name, self.wrap(name, original, attr))

    def uninstall(self):
        while self._patched:
            module, fn_name, original = self._patched.pop()
            setattr(module, fn_name, original)

    def write(self, path):
        with open(path, "w") as f:
            f.write("name,start_ns,end_ns,parent,op,attr\n")
            for name, start, end, parent, op, attr in self.spans:
                attr_text = "" if attr is None else str(attr).replace(",", ";")
                f.write(f"{name},{start},{end},{parent},{op},{attr_text}\n")


def self_times(spans):
    """Self time in ns of every span, by index."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans, n_ops):
    """Per-op means by span name: {name: {"calls", "self_ms"}}, plus
    "distinct_ratio" for cavity.evolve_collision (distinct collision
    keys over calls, averaged over the ops that collide) and "dim" for
    linalg.propagator (mean matrix dimension)."""
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    keys_by_op = defaultdict(list)
    dims = []
    for span, own in zip(spans, self_times(spans)):
        name, _, _, _, op, attr = span
        calls[name] += 1
        self_ns[name] += own
        if name == "cavity.evolve_collision":
            keys_by_op[op].append(attr)
        elif name == "linalg.propagator":
            dims.append(attr)
    out = {
        name: {"calls": calls[name] / n_ops, "self_ms": self_ns[name] / 1e6 / n_ops}
        for name in calls
    }
    if keys_by_op:
        ratios = [len(set(keys)) / len(keys) for keys in keys_by_op.values()]
        out["cavity.evolve_collision"]["distinct_ratio"] = sum(ratios) / len(ratios)
    if dims:
        out["linalg.propagator"]["dim"] = sum(dims) / len(dims)
    return out
