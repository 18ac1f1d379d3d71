"""Seeded inputs and command lists for the benchmark workloads.

Every generator matrix and config is built here from the --seed argument
with plain NumPy, so the inputs stay fixed when the package's own chain
factories change.  The CLI sees only the files written here.  All paths are
relative to the checkout root, which is the working directory of every run,
so reports that echo their input path are identical from pass to pass.
"""

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

WORKLOADS = ("analyze-chains", "tube-experiment", "flows")


@dataclass
class Run:
    """One CLI invocation: `name` names its output directory and is unique
    within a pass; `argv` excludes --out; `check(out_dir)` returns a list of
    problems, empty when the outputs are correct."""
    name: str
    argv: list
    check: callable


def cycle():
    """Uniform one-way 3-cycle: uniform invariant measure, no detailed
    balance."""
    return np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])


def reversible(J, rng, extra_edge_prob):
    """Reversible chain Q_ij = C_ij / pi_i from symmetric conductances C on a
    ring backbone plus random chords."""
    pi = rng.uniform(0.5, 1.5, J)
    pi /= pi.sum()
    C = np.zeros((J, J))
    idx = np.arange(J)
    C[idx, (idx + 1) % J] = rng.uniform(0.5, 1.5, J)
    chords = np.triu(rng.random((J, J)) < extra_edge_prob, k=2)
    chords[0, J - 1] = False  # already a ring edge
    C[chords] = rng.uniform(0.2, 1.0, int(chords.sum()))
    C = C + C.T
    Q = C / pi[:, None]
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def ou_grid(N, a=-4.0, b=4.0):
    """Nearest-neighbour chain of the Ornstein-Uhlenbeck generator on [a, b]:
    Q_{i,i+-1} = exp((P_i - P_{i+-1}) / 2) / h^2 with P = x^2 / 2."""
    x = np.linspace(a, b, N)
    P = 0.5 * x ** 2
    h = (b - a) / (N - 1)
    Q = np.zeros((N, N))
    i = np.arange(N - 1)
    Q[i, i + 1] = np.exp(0.5 * (P[i] - P[i + 1])) / h ** 2
    Q[i + 1, i] = np.exp(0.5 * (P[i + 1] - P[i])) / h ** 2
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def _write(path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1) + "\n")
    return str(path)


def _generator(inputs, name, Q):
    return _write(inputs / (name + ".json"), {"Q": Q.tolist()})


def _interior(rng, J, floor):
    """Seeded interior probability vector as a --rho0 string."""
    r = np.maximum(rng.dirichlet(np.ones(J)), floor)
    r /= r.sum()
    return ",".join(repr(float(v)) for v in r)


def _seed(rng):
    return int(rng.integers(0, 2 ** 31))


def _analyze(inputs, name, Q, seed, is_reversible, samples=20):
    return Run(name, ["analyze", "--generator", _generator(inputs, name, Q),
                      "--samples", str(samples), "--seed", str(seed)],
               functools.partial(checks.analyze, reversible=is_reversible))


def _simulate(inputs, name, Q, cfg):
    cfg = dict(cfg, generator=_generator(inputs, name + "_generator", Q))
    return Run(name, ["simulate", "--config",
                      _write(inputs / (name + ".json"), cfg)],
               checks.simulate)


def _evolve(inputs, name, Q, rho0, tags, seed, T, dt):
    steps = int(round(T / dt))
    return Run(name, ["evolve", "--generator", _generator(inputs, name, Q),
                      "--rho0", rho0, "--structure", tags, "--T", repr(T),
                      "--dt", repr(dt), "--seed", str(seed)],
               functools.partial(checks.evolve, tags=tags.split(","),
                                 rows=steps + 1))


def _diffusion(inputs, name, N, mean, seed, T, dt):
    cfg = {"a": -4.0, "b": 4.0, "N": N, "potential": "quadratic",
           "seed": seed, "rho0": {"type": "gaussian", "mean": mean,
                                  "var": 0.8}}
    return Run(name, ["diffusion", "--config",
                      _write(inputs / (name + ".json"), cfg),
                      "--T", repr(T), "--dt", repr(dt), "--seed", str(seed)],
               checks.diffusion)


def build(workload, seed, inputs):
    """Write the inputs of `workload` under `inputs` and return
    (runs, probes): `runs` make up one timed pass, `probes` run once, untimed.
    """
    inputs = Path(inputs)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "analyze-chains":
        runs = [
            _analyze(inputs, "cycle", cycle(), _seed(rng), False),
            _analyze(inputs, "dense40", reversible(40, rng, 0.5),
                     _seed(rng), True),
            _analyze(inputs, "sparse100", reversible(100, rng, 0.06),
                     _seed(rng), True, samples=4),
            _analyze(inputs, "ou21", ou_grid(21), _seed(rng), True),
        ]
        # The stiff OU chain makes the conjugate solver fail today; it stays
        # in the run so that the fix shows in ops_ok_frac.
        probes = [_analyze(inputs, "ou51-probe", ou_grid(51), _seed(rng),
                           True)]
        return runs, probes
    if workload == "tube-experiment":
        two = np.array([[-1.0, 1.0], [1.0, -1.0]])
        bd3 = np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.0, 1.0, -1.0]])
        return [
            _simulate(inputs, "two-state", two, {
                "T": 1.0, "grid_dt": 0.02, "tube_radius": 0.05,
                "target": {"type": "linear_solution", "rho0": [0.9, 0.1]},
                "n_list": [200], "replicas": 16, "seed": _seed(rng)}),
            _simulate(inputs, "birth-death3", bd3, {
                "T": 1.0, "grid_dt": 0.02, "tube_radius": 0.06,
                "target": {"type": "constant", "rho": [0.4, 0.4, 0.2]},
                "n_list": [100, 200], "replicas": 20, "seed": _seed(rng)}),
        ], []
    if workload == "flows":
        Q = reversible(10, rng, 0.5)
        rho0 = _interior(rng, 10, 0.02)
        seed_e = _seed(rng)
        # T = 5 at dt = 1e-3: 5,000 RK4 steps per trajectory.
        return [
            _evolve(inputs, "evolve-ldp", Q, rho0, "linear,ldp", seed_e,
                    5.0, 1e-3),
            _evolve(inputs, "evolve-families", Q, rho0,
                    "cosh_family,quadratic_family", seed_e, 5.0, 1e-3),
            _diffusion(inputs, "diffusion-ou201", 201,
                       float(rng.uniform(0.5, 1.5)), _seed(rng), 2.0, 5e-4),
        ], []
    raise ValueError("unknown workload %r" % workload)


def build_sweep(seed, inputs):
    """Each command once on a tiny input, so that every layer appears in
    every traced run whatever the workload."""
    inputs = Path(inputs)
    rng = np.random.default_rng([seed, len(WORKLOADS)])
    two = np.array([[-1.0, 1.0], [1.0, -1.0]])
    Q4 = reversible(4, rng, 0.5)
    return [
        _analyze(inputs, "sweep-analyze", two, _seed(rng), True, samples=1),
        _simulate(inputs, "sweep-simulate", two, {
            "T": 0.2, "grid_dt": 0.02, "tube_radius": 0.1,
            "target": {"type": "linear_solution", "rho0": [0.9, 0.1]},
            "n_list": [20], "replicas": 2, "seed": _seed(rng)}),
        _evolve(inputs, "sweep-evolve", Q4, _interior(rng, 4, 0.05),
                "linear,ldp", _seed(rng), 0.1, 1e-3),
        _diffusion(inputs, "sweep-diffusion", 21, 1.0, _seed(rng), 0.1, 1e-3),
    ]
