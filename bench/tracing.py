"""Per-layer tracing for the in-process run.

The tracer replaces public functions of each ldgrad module with wrappers
that record a span per call: its name, its parent span, its duration and
its self time (duration minus the time of wrapped calls inside it).  Spans
are aggregated per (parent, name) in memory and written out at the end.
Functions that a later version of the package no longer has are recorded as
absent; the metrics built from them read 0.
"""

import statistics
import time
from contextlib import contextmanager

import numpy as np

import workloads

MODULES = ("cli", "convex", "markov", "structure", "evolve", "particle",
           "diffusion")

# Wrapped functions per module; "Class.method" wraps a method.
SPANS = {
    "cli": ("cmd_analyze", "cmd_simulate", "cmd_evolve", "cmd_diffusion",
            "write_json", "write_csv", "_atomic_write"),
    "convex": ("conjugate",),
    "markov": ("load_generator", "analyze_balance", "relative_entropy",
               "hamiltonian", "hamiltonian_gradient", "hamiltonian_hessian",
               "lagrangian"),
    "structure": ("build_structure", "critical_covector", "decompose",
                  "diagnostics", "flow_field", "determine_entropy_scale",
                  "cosh_vs_ldp_report"),
    "evolve": ("integrate_linear", "integrate_gradient_flow",
               "exact_linear_solution", "trajectory_to_csv", "_rk4"),
    "particle": ("simulate", "TiltField.value_at", "empirical_measure_path",
                 "girsanov_log_density", "path_pairing_functional",
                 "path_rate_functional", "optimal_tilt",
                 "rate_vs_probability_experiment"),
    "diffusion": ("discretize_generator", "decomposition_residual"),
}

# Per-layer metrics read off the spans: name -> (unit, spans, field), where
# field is calls, self_s (exclusive time) or s (inclusive time).
SPAN_METRICS = {
    "convex.conjugate.calls": ("count", ["convex.conjugate"], "calls"),
    "convex.conjugate.self_s": ("s", ["convex.conjugate"], "self_s"),
    "markov.hamiltonian.calls": ("count", ["markov.hamiltonian"], "calls"),
    "markov.hamiltonian_gradient.calls":
        ("count", ["markov.hamiltonian_gradient"], "calls"),
    "markov.hamiltonian_hessian.calls":
        ("count", ["markov.hamiltonian_hessian"], "calls"),
    "markov.hamiltonian_all.self_s":
        ("s", ["markov.hamiltonian", "markov.hamiltonian_gradient",
               "markov.hamiltonian_hessian"], "self_s"),
    "markov.lagrangian.calls": ("count", ["markov.lagrangian"], "calls"),
    "markov.lagrangian.self_s": ("s", ["markov.lagrangian"], "self_s"),
    "markov.analyze_balance.s": ("s", ["markov.analyze_balance"], "s"),
    "markov.relative_entropy.self_s":
        ("s", ["markov.relative_entropy"], "self_s"),
    "structure.critical_covector.calls":
        ("count", ["structure.critical_covector"], "calls"),
    "structure.critical_covector.s":
        ("s", ["structure.critical_covector"], "s"),
    "structure.diagnostics.s": ("s", ["structure.diagnostics"], "s"),
    "structure.decompose.s": ("s", ["structure.decompose"], "s"),
    "structure.flow_field.calls": ("count", ["structure.flow_field"], "calls"),
    "structure.flow_field.self_s": ("s", ["structure.flow_field"], "self_s"),
    "structure.determine_entropy_scale.s":
        ("s", ["structure.determine_entropy_scale"], "s"),
    "particle.simulate.calls": ("count", ["particle.simulate"], "calls"),
    "particle.girsanov_log_density.calls":
        ("count", ["particle.girsanov_log_density"], "calls"),
    "particle.girsanov_log_density.self_s":
        ("s", ["particle.girsanov_log_density"], "self_s"),
    "particle.TiltField.value_at.calls":
        ("count", ["particle.TiltField.value_at"], "calls"),
    "particle.empirical_measure_path.self_s":
        ("s", ["particle.empirical_measure_path"], "self_s"),
    "particle.path_pairing_functional.s":
        ("s", ["particle.path_pairing_functional"], "s"),
    "particle.path_rate_functional.s":
        ("s", ["particle.path_rate_functional"], "s"),
    "particle.optimal_tilt.s": ("s", ["particle.optimal_tilt"], "s"),
    "evolve.integrate_linear.s": ("s", ["evolve.integrate_linear"], "s"),
    "evolve.integrate_gradient_flow.s":
        ("s", ["evolve.integrate_gradient_flow"], "s"),
    "evolve.trajectory_to_csv.s": ("s", ["evolve.trajectory_to_csv"], "s"),
    "evolve.rk4_steps": ("count", ["evolve._rk4"], "calls"),
    "diffusion.decomposition_residual.calls":
        ("count", ["diffusion.decomposition_residual"], "calls"),
    "diffusion.decomposition_residual.self_s":
        ("s", ["diffusion.decomposition_residual"], "self_s"),
    "diffusion.discretize_generator.s":
        ("s", ["diffusion.discretize_generator"], "s"),
    # The three writers only call each other, so their self times add up to
    # the time spent writing outputs from the cli module.
    "cli.write_s": ("s", ["cli.write_json", "cli.write_csv",
                          "cli._atomic_write"], "self_s"),
    "cli.cmd_analyze.s": ("s", ["cli.cmd_analyze"], "s"),
    "cli.cmd_simulate.s": ("s", ["cli.cmd_simulate"], "s"),
    "cli.cmd_evolve.s": ("s", ["cli.cmd_evolve"], "s"),
    "cli.cmd_diffusion.s": ("s", ["cli.cmd_diffusion"], "s"),
}

# Counters taken from return values and exceptions: name -> unit.
COUNTERS = {
    "convex.conjugate.iters": "count",
    "convex.conjugate.failed": "count",
    "particle.simulate.tilted_s": "s",
    "particle.simulate.plain_s": "s",
    "particle.jumps": "count",
}

KERNEL_J = (3, 10, 50, 200)
KERNEL_CALLS = 9


def _observe_conjugate(counters, result, seconds):
    counters["convex.conjugate.iters"] += result.iterations


def _observe_simulate(counters, path, seconds):
    kind = "tilted" if path.meta.get("tilted") else "plain"
    counters["particle.simulate.%s_s" % kind] += seconds
    counters["particle.jumps"] += int(path.jump_times.size)


OBSERVERS = {"convex.conjugate": _observe_conjugate,
             "particle.simulate": _observe_simulate}
FAILURES = {"convex.conjugate": "convex.conjugate.failed"}


class Tracer:
    """Span recorder; `installed(package)` wraps the SPANS of the package's
    modules for the duration of a with-block."""

    def __init__(self):
        self.stack = []  # [name, child_seconds] per open span
        self.spans = {}  # (parent, name) -> [calls, seconds, self_seconds]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.absent = []

    def _wrap(self, name, fn):
        stack, spans, counters = self.stack, self.spans, self.counters
        observe = OBSERVERS.get(name)
        failure = FAILURES.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                seconds = clock() - t0
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += seconds
                rec = spans.setdefault((parent, name), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += seconds
                rec[2] += seconds - frame[1]
                if ok and observe is not None:
                    observe(counters, result, seconds)
                elif not ok and failure is not None:
                    counters[failure] += 1

        return wrapper

    @contextmanager
    def installed(self, package):
        originals = []
        try:
            for mod_name, attrs in SPANS.items():
                module = getattr(package, mod_name)
                for attr in attrs:
                    owner = module
                    *path, leaf = attr.split(".")
                    for part in path:
                        owner = getattr(owner, part, None)
                    fn = getattr(owner, leaf, None)
                    name = "%s.%s" % (mod_name, attr)
                    if fn is None:
                        if name not in self.absent:
                            self.absent.append(name)
                        continue
                    originals.append((owner, leaf, fn))
                    setattr(owner, leaf, self._wrap(name, fn))
            yield self
        finally:
            for owner, leaf, fn in reversed(originals):
                setattr(owner, leaf, fn)

    def totals(self):
        """name -> {"calls", "s", "self_s"} summed over parents."""
        out = {}
        for (_, name), (calls, seconds, self_s) in self.spans.items():
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += calls
            t["s"] += seconds
            t["self_s"] += self_s
        return out

    def module_self_seconds(self):
        shares = dict.fromkeys(MODULES, 0.0)
        for name, t in self.totals().items():
            shares[name.split(".", 1)[0]] += t["self_s"]
        return shares

    def metrics(self):
        totals = self.totals()
        values = {}
        for metric, (unit, names, fld) in SPAN_METRICS.items():
            values[metric] = (sum(totals.get(n, {}).get(fld, 0)
                                  for n in names), unit)
        for metric, unit in COUNTERS.items():
            values[metric] = (self.counters[metric], unit)
        return values

    def merged(self, other):
        """A tracer holding the spans and counters of both."""
        both = Tracer()
        for src in (self, other):
            for key, rec in src.spans.items():
                acc = both.spans.setdefault(key, [0, 0.0, 0.0])
                for k in range(3):
                    acc[k] += rec[k]
            for key, value in src.counters.items():
                both.counters[key] += value
            both.absent += [a for a in src.absent if a not in both.absent]
        return both

    def to_json(self):
        return [{"parent": parent, "name": name, "calls": rec[0],
                 "s": rec[1], "self_s": rec[2]}
                for (parent, name), rec in sorted(
                    self.spans.items(), key=lambda kv: -kv[1][1])]


def lagrangian_sweep(package, seed):
    """Median milliseconds per markov.lagrangian call on seeded sparse
    reversible chains, untraced; None when the function is absent."""
    lagrangian = getattr(package.markov, "lagrangian", None)
    if lagrangian is None:
        return None
    out = {}
    for J in KERNEL_J:
        rng = np.random.default_rng([seed, 1000 + J])
        g = package.markov.validate_generator(
            workloads.reversible(J, rng, 0.05))
        samples = []
        for _ in range(KERNEL_CALLS + 1):
            rho = np.maximum(rng.dirichlet(np.ones(J)), 1e-3)
            s = rng.standard_normal(J)
            samples.append((rho / rho.sum(), s - s.mean()))
        lagrangian(*samples[0], g)  # warm-up, untimed
        times = []
        for rho, s in samples[1:]:
            t0 = time.perf_counter()
            lagrangian(rho, s, g)
            times.append(time.perf_counter() - t0)
        out["markov.lagrangian.ms.J%d" % J] = (
            1e3 * statistics.median(times), "ms")
    return out
