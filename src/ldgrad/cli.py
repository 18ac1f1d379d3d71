"""Batch command-line front door.

Subcommands: analyze (structure diagnostics), evolve (trajectory CSVs and
comparison gaps), simulate (particle experiment report), diffusion
(grid profiles, entropy decay, decomposition report).

Exit codes: 0 ok, 2 input error, 3 structural refusal (no gradient system),
4 runtime/statistical failure, which includes an output value that is NaN or
infinite.  This module reads every input, each quantity checked by one
rule before any numerics run, and writes every output file, through one
path: reports go through `write_json`, tables (trajectories included)
through `write_csv`, and both through `_atomic_write` (temp file + rename).
Outputs are byte-identical for a fixed config and seed; every report
carries its seeds and tolerances.  A run manifest (command, config hash,
outputs, wall clock) is written next to the outputs; the manifest is the
one file allowed to differ between reruns.  Every command runs in one
process.
"""

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, diffusion, evolve, markov, particle, structure
from .errors import (InvalidGenerator, InvalidInput, LdgradError,
                     NonFiniteOutput, NotGradientSystem, NotWeaklyReversible,
                     ReducibleChain)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STRUCTURE = 3
EXIT_RUNTIME = 4

CSV_BLOCK_ROWS = 512

# The family of each flow tag.  "cosh_family" is the exact structure (its
# Psi* is the cosh form), kept only because bench/workloads.py runs it.
TAG_FAMILIES = {"ldp": structure.Family.LDP_EXACT,
                "cosh_family": structure.Family.LDP_EXACT,
                "quadratic_family": structure.Family.QUADRATIC_FAMILY}
EVOLVE_TAGS = ("linear",) + tuple(TAG_FAMILIES)

# The JSON-number test `type(x) in _NUMBER` leaves out bools.
_NUMBER = (int, float)


def read_json_object(path, what):
    """The JSON object in the file `path` (the `what`): InvalidInput for a
    file that is not UTF-8 text or holds another JSON value, OSError for a
    missing file and json.JSONDecodeError for malformed JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise InvalidInput("%s is not UTF-8 text: %s" % (path, exc)) from exc
    if not isinstance(data, dict):
        raise InvalidInput("%s %s must hold a JSON object, got %s"
                           % (what, path, type(data).__name__))
    return data


def config_number(cfg, key, default=None, low=-np.inf, integer=True):
    """cfg[key] (default when absent) if it is a finite JSON number, an int
    when `integer`, and >= low; InvalidInput otherwise."""
    v = cfg.get(key, default)
    if not ((type(v) is int if integer else type(v) in _NUMBER)
            and low <= v and abs(v) < np.inf):
        raise InvalidInput("config %r must be a finite %s >= %g, got %r" % (
            key, "integer" if integer else "number", low, v))
    return v


def config_numbers(cfg, key, size=None, low=-np.inf, integer=True):
    """cfg[key] as a list of `config_number` entries, named key[i] in
    messages, with `size` entries when given; InvalidInput otherwise."""
    v = cfg.get(key)
    if not isinstance(v, list) or size not in (None, len(v)):
        raise InvalidInput("config %r must be a list of %s%s, got %r" % (
            key, "" if size is None else "%d " % size,
            "integers" if integer else "numbers", v))
    entries = {"%s[%d]" % (key, i): x for i, x in enumerate(v)}
    return [config_number(entries, k, low=low, integer=integer)
            for k in entries]


def check_seed(v, name):
    """v if it is an integer in [0, 2^64); InvalidInput naming it otherwise."""
    if not (type(v) is int and 0 <= v < 2 ** 64):
        raise InvalidInput("%s must be an integer in [0, 2^64), got %r"
                           % (name, v))
    return v


def load_generator(path):
    """Read {"Q": [[...]], "labels": [...]} and validate: a JSON object
    whose "Q" is a square list of lists of numbers (no bools or strings),
    and, optionally, one distinct label string per state (checked, not
    kept); InvalidGenerator otherwise."""
    data = read_json_object(path, "generator file")
    if "Q" not in data:
        raise InvalidGenerator("generator file lacks a 'Q' entry")
    Q = data["Q"]
    if not (isinstance(Q, list) and all(
            isinstance(row, list) and len(row) == len(Q)
            and all(type(x) in _NUMBER for x in row) for row in Q)):
        raise InvalidGenerator("generator 'Q' must be a square list of lists "
                               "of numbers, with no bools or strings")
    g = markov.validate_generator(Q)
    labels = data.get("labels", [str(i) for i in range(g.size)])
    if not (isinstance(labels, list) and len(labels) == g.size
            and all(isinstance(x, str) for x in labels)
            and len(set(labels)) == g.size):
        raise InvalidGenerator("generator 'labels' must be a list of %d "
                               "distinct strings, got %r" % (g.size, labels))
    return g


def grid_from_config(cfg):
    """The grid of a diffusion config: N an int >= 3, a and b finite reals,
    the potential a preset name or a list of one finite real per node."""
    N = config_number(cfg, "N", low=3)
    potential = cfg.get("potential", "zero")
    if not isinstance(potential, str):
        potential = config_numbers(cfg, "potential", N, integer=False)
    return diffusion.make_grid(config_number(cfg, "a", integer=False),
                               config_number(cfg, "b", integer=False), N,
                               potential)


def initial_masses_from_config(cfg, g):
    """rho0 of a diffusion config as grid masses: {"type": "pi"}, or
    {"type": "gaussian", "mean": m, "var": v} with m a finite real and v a
    finite real > 0 (default mean 1.0, var 0.8), with a positive mass on
    every node; InvalidInput otherwise."""
    spec = cfg.get("rho0", {"type": "gaussian", "mean": 1.0, "var": 0.8})
    kind = spec.get("type") if isinstance(spec, dict) else None
    if kind == "pi":
        rho0 = g.invariant_masses()
    elif kind == "gaussian":
        mean = config_number(spec, "mean", integer=False)
        var = config_number(spec, "var", integer=False)
        if not var > 0:
            raise InvalidInput("config 'var' must be > 0, got %r" % var)
        rho0 = diffusion.gaussian_initial_masses(g, mean, var)
    else:
        raise InvalidInput("config 'rho0' must be an object with type "
                           "'gaussian' or 'pi', got %r" % (spec,))
    empty = np.flatnonzero(rho0 <= 0.0)
    if empty.size:
        raise InvalidInput("config 'rho0' has no mass at node %d (x = %r): "
                           "the entropy needs a positive mass on every node"
                           % (empty[0], float(g.nodes[empty[0]])))
    return rho0


def _atomic_write(path, chunks):
    """Write the str `chunks` to `path + ".tmp"` and rename it over `path`;
    a failed write removes the temp file and leaves any earlier file
    intact."""
    tmp = path + ".tmp"
    fh = open(tmp, "w")
    try:
        with fh:  # closing flushes, which can fail too
            fh.writelines(chunks)
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


def write_json(path, obj):
    """Strict JSON: a NaN or infinity raises NonFiniteOutput, a runtime
    failure, instead of being written as a non-standard token."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteOutput("%s: %s" % (os.path.basename(path), exc)) from exc
    _atomic_write(path, [text + "\n"])


def write_csv(path, header, columns):
    """One row per entry of the equal-length 1-D `columns`, every cell by
    repr (so an int column stays ints), `\\n` line ends.  Like `write_json`,
    a NaN or infinity raises NonFiniteOutput before any file is opened.
    Rows are formatted in blocks of CSV_BLOCK_ROWS."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    if len(header) != len(columns) or any(c.shape != (n,) for c in columns):
        raise ValueError("need one 1-D column of length %d per header name"
                         % n)
    for name, c in zip(header, columns):
        if not np.isfinite(c).all():
            raise NonFiniteOutput("%s: non-finite value in column %s"
                                  % (os.path.basename(path), name))

    def blocks():
        yield ",".join(header) + "\n"
        for k in range(0, n, CSV_BLOCK_ROWS):
            rows = zip(*(c[k:k + CSV_BLOCK_ROWS].tolist() for c in columns))
            yield "".join(",".join(map(repr, row)) + "\n" for row in rows)

    _atomic_write(path, blocks())


def write_trajectory(path, traj):
    """Columns t, rho_1..rho_J and, when the trajectory has entropy values,
    entropy: one row per time.  The entropy column is the trajectory's own:
    the relative entropy E_pi for the linear flow (`integrate_linear`), and
    the driving entropy S = E_pi / 2 for a gradient flow
    (`GradientStructure.entropy`), so at one state the two differ by a
    factor 2."""
    header = ["t"] + ["rho_%d" % (j + 1)
                      for j in range(traj.states.shape[1])]
    columns = [traj.times, *traj.states.T]
    if traj.entropy_values is not None:
        header.append("entropy")
        columns.append(traj.entropy_values)
    write_csv(path, header, columns)


def _out_dir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_manifest(out, command, args_dict, seeds, tolerances, outputs,
                    wall_clock, config_path=None, **extra):
    """Write manifest.json; `extra` adds command-specific entries."""
    manifest = {
        "command": command,
        "args": args_dict,
        "config_sha256": _sha256_file(config_path) if config_path else None,
        "seeds": seeds,
        "tool_version": __version__,
        "tolerances": tolerances,
        "outputs": sorted(outputs),
        "wall_clock_s": wall_clock,
        **extra,
    }
    write_json(os.path.join(out, "manifest.json"), manifest)


def cmd_analyze(args):
    t0 = time.perf_counter()
    if args.samples < 1:
        raise InvalidInput("--samples must be >= 1, got %d" % args.samples)
    check_seed(args.seed, "--seed")
    g = load_generator(args.generator)
    g.balance  # a chain without pi is refused before any numerics
    report = structure.diagnostics(g, sample_count=args.samples,
                                   seed=args.seed)
    report["generator_file"] = args.generator
    if report["detailed_balance"]:
        verdict = "gradient system (detailed balance)"
        report["driving_functional"] = "S = 0.5 * E_pi"
    else:
        verdict = "covector system only"
    report["verdict"] = verdict
    if g.weakly_reversible and report["detailed_balance"]:
        report["family_entropy_scales"] = {
            fam.value: structure.determine_entropy_scale(g, fam, args.seed)
            for fam in structure.Family}
    out = _out_dir(args)
    path = os.path.join(out, "diagnostics.json")
    write_json(path, report)
    print("verdict: %s" % verdict)
    for key in ("decomposition_residual_max", "psi_star_symmetry_defect",
                "time_symmetry_defect_max", "integrability_defect"):
        print("  %s = %.6e" % (key, report[key]))
    print("  critical covector equals half entropy gradient: %s"
          % report["critical_covector_is_half_entropy_gradient"])
    _write_manifest(out, "analyze", {"generator": args.generator,
                                     "samples": args.samples},
                    {"seed": args.seed}, {"diagnostic_tol": structure.DIAG_TOL},
                    ["diagnostics.json"], time.perf_counter() - t0)
    return EXIT_OK


def _parse_rho0(text, g):
    """--rho0: "pi", or one number per state, comma-separated, that form a
    probability vector (`markov.as_simplex`); InvalidInput otherwise."""
    if text == "pi":
        return g.balance.invariant_measure
    entries = text.split(",")
    try:
        if len(entries) == g.size:
            return markov.as_simplex([float(x) for x in entries], "--rho0")
    except ValueError:
        pass
    raise InvalidInput("--rho0 must be 'pi' or %d comma-separated numbers, "
                       "got %r" % (g.size, text))


def cmd_evolve(args):
    """Integrate each structure tag's flow and write its trajectory CSV, one
    tag after another in tag order, then the report.  Every input is checked
    before any flow runs or any file is written; a tag that fails leaves the
    files of the tags before it."""
    t0 = time.perf_counter()
    g = load_generator(args.generator)
    tags = args.structure.split(",")
    for tag in tags:
        if tag not in EVOLVE_TAGS:
            raise InvalidInput("unknown structure tag %r" % tag)
    if len(set(tags)) < len(tags):
        raise InvalidInput("repeated structure tag in %r" % args.structure)
    check_seed(args.seed, "--seed")
    if tags != ["linear"]:
        g.balance  # a structure needs pi: refused before any flow or output
    rho0 = _parse_rho0(args.rho0, g)
    evolve.time_grid(args.T, args.dt)  # a bad grid fails before any output
    out = _out_dir(args)
    outputs = []
    trajs = {}
    seconds = {}
    for tag in tags:
        t1 = time.perf_counter()
        if tag == "linear":
            traj = evolve.integrate_linear(rho0, g, args.T, args.dt)
        else:
            gs = structure.build_structure(g, TAG_FAMILIES[tag])
            traj = evolve.integrate_gradient_flow(rho0, gs, args.T, args.dt)
        seconds[tag] = time.perf_counter() - t1
        name = "trajectory_%s.csv" % tag
        write_trajectory(os.path.join(out, name), traj)
        outputs.append(name)
        trajs[tag] = traj
    report = {"generator_file": args.generator, "rho0": rho0.tolist(),
              "T": args.T, "dt": args.dt, "tags": tags, "seed": args.seed}
    if len(tags) == 2:
        report["gap"] = evolve.compare_trajectories(trajs[tags[0]],
                                                    trajs[tags[1]])
        print("sup-norm gap %s vs %s: %.6e at t = %.6g"
              % (tags[0], tags[1], report["gap"]["sup_norm_gap"],
                 report["gap"]["at_time"]))
    path = os.path.join(out, "evolve_report.json")
    write_json(path, report)
    outputs.append("evolve_report.json")
    _write_manifest(out, "evolve", {"generator": args.generator,
                                    "rho0": args.rho0, "T": args.T,
                                    "dt": args.dt, "structure": args.structure},
                    {"seed": args.seed},
                    {"mass_drift_per_step": evolve.MASS_DRIFT_TOL},
                    outputs, time.perf_counter() - t0,
                    integration_s=seconds)
    return EXIT_OK


def cmd_simulate(args):
    t0 = time.perf_counter()
    cfg = read_json_object(args.config, "config file")
    if not isinstance(cfg.get("generator"), str):
        raise InvalidInput("config 'generator' must be a file name, got %r"
                           % (cfg.get("generator"),))
    g = load_generator(cfg["generator"])
    T = float(config_number(cfg, "T", integer=False))
    dt = float(config_number(cfg, "grid_dt", 0.01, integer=False))
    radius = float(config_number(cfg, "tube_radius", integer=False))
    if not radius > 0:
        raise InvalidInput("config 'tube_radius' must be > 0, got %r" % radius)
    n_list = config_numbers(cfg, "n_list", low=1)
    if not n_list or len(set(n_list)) < len(n_list):
        raise InvalidInput("config 'n_list' must be a nonempty list of "
                           "distinct integers, got %r" % (n_list,))
    replicas = config_number(cfg, "replicas", low=2)
    seed = check_seed(cfg.get("seed"), "config 'seed'")
    times = evolve.time_grid(T, dt)
    target = cfg.get("target")
    kind = target.get("type") if isinstance(target, dict) else None
    keys = {"constant": "rho", "linear_solution": "rho0"}
    if not (isinstance(kind, str) and kind in keys):
        raise InvalidInput("config 'target' has an unknown target type: need "
                           "an object with type 'constant' or "
                           "'linear_solution', got %r" % (target,))
    key = "target." + keys[kind]
    rho = markov.as_simplex(config_numbers(
        {key: target.get(keys[kind])}, key, g.size, integer=False),
        "config %r" % key)
    if kind == "constant":
        states = np.tile(rho, (times.size, 1))
    else:
        states = evolve.exact_linear_solution(rho, g, times).states
    report, table = particle.rate_vs_probability_experiment(
        g, times, states, radius, n_list, replicas, seed)
    report["config_file"] = args.config
    out = _out_dir(args)
    write_json(os.path.join(out, "ldp_report.json"), report)
    write_csv(os.path.join(out, "replicas.csv"), list(table),
              list(table.values()))
    print("I_T(target) = %.6e" % report["rate_functional"])
    for n, entry in report["estimates"].items():
        estimate = ("inf (no tube hits)" if entry["inf_estimate"] else
                    "%.6e (se %.2e)" % (entry["estimate"],
                                        entry["standard_error"]))
        print("  n=%s: -(1/n) log p-hat = %s (hits %.2f, ESS %.1f%s)"
              % (n, estimate, entry["hit_fraction"],
                 entry["effective_sample_size"],
                 ", VARIANCE FLAGGED" if entry["variance_flagged"] else ""))
    print("girsanov consistency |gap| = %.3e"
          % report["girsanov_consistency_abs_gap"])
    _write_manifest(out, "simulate", {"config": args.config},
                    {"seed": seed},
                    {"girsanov_exactness": particle.GIRSANOV_TOL},
                    ["ldp_report.json", "replicas.csv"],
                    time.perf_counter() - t0, config_path=args.config)
    return EXIT_OK


def cmd_diffusion(args):
    """Integrate the grid chain from rho0 and write six profile snapshots,
    the entropy at every time and the report.  The states are read block
    by block from `evolve.linear_blocks` and only the six snapshots are
    kept: no (steps + 1, N) stack is built, and what grows with the step
    count is the times and entropy columns alone."""
    t0 = time.perf_counter()
    cfg = read_json_object(args.config, "config file")
    g = grid_from_config(cfg)
    check_seed(args.seed, "--seed")  # a config seed takes precedence
    seed = check_seed(cfg.get("seed", args.seed), "config 'seed'")
    samples = config_number(cfg, "decomposition_samples", 20, 1)
    rho0 = initial_masses_from_config(cfg, g)
    times = evolve.time_grid(args.T, args.dt)
    pi = g.invariant_masses()
    snap = np.linspace(0, times.size - 1, 6).astype(int)
    snapshots = np.empty((snap.size, g.N))
    entropy = np.empty(times.size)
    for k, block in evolve.linear_blocks(rho0, g.chain, times):
        entropy[k:k + len(block)] = markov.relative_entropy(block, pi)
        hit = (snap >= k) & (snap < k + len(block))
        snapshots[hit] = block[snap[hit] - k]

    # Exact quadratic-form split of the grid chain's quadratic member
    # (log-mean weights, flow Q^T rho), checked on seeded random tangents.
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        rho = 0.5 * rng.dirichlet(np.ones(g.N)) + 0.5 / g.N
        s = rng.standard_normal(g.N)
        s = 0.01 * (s - s.mean())
        worst = max(worst, diffusion.decomposition_residual(rho, s, g))

    out = _out_dir(args)
    profiles = np.vstack([diffusion.profiles_rows(g, rho)
                          for rho in snapshots])
    write_csv(os.path.join(out, "profiles.csv"), ["t", "x", "rho", "pi", "DS"],
              [np.repeat(times[snap], g.N), *profiles.T])
    write_csv(os.path.join(out, "entropy.csv"), ["t", "entropy"],
              [times, entropy])
    report = {
        "grid": {"a": g.a, "b": g.b, "N": g.N, "h": g.h},
        "T": args.T, "dt": args.dt, "seed": seed,
        "decomposition_residual_max": worst,
        "decomposition_tolerance": diffusion.DECOMPOSITION_TOL,
        "entropy_monotone": bool(np.all(np.diff(entropy) <= 1e-10)),
        "final_gap_to_pi": float(np.abs(snapshots[-1] - pi).max()),
        "detailed_balance": True,
    }
    if cfg.get("potential") == "quadratic":
        report["truncation_tail_mass"] = diffusion.gaussian_tail_mass(g)
        report["truncation_tail_target"] = diffusion.TAIL_MASS_TARGET
    write_json(os.path.join(out, "diffusion_report.json"), report)
    print("decomposition residual max = %.3e (must be <= %g)"
          % (worst, diffusion.DECOMPOSITION_TOL))
    print("entropy monotone: %s; final |rho - pi|_inf = %.3e"
          % (report["entropy_monotone"], report["final_gap_to_pi"]))
    _write_manifest(out, "diffusion", {"config": args.config, "T": args.T,
                                       "dt": args.dt},
                    {"seed": seed},
                    {"decomposition_residual": diffusion.DECOMPOSITION_TOL},
                    ["profiles.csv", "entropy.csv", "diffusion_report.json"],
                    time.perf_counter() - t0, config_path=args.config)
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ldgrad",
        description="Gradient structures for Markov rate functionals: "
                    "diagnostics, flows, particle experiments, diffusion.")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="structure diagnostics for a generator")
    pa.add_argument("--generator", required=True)
    pa.add_argument("--samples", type=int, default=20)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--out", default="out")
    pa.set_defaults(func=cmd_analyze)

    pe = sub.add_parser("evolve", help="integrate linear and/or gradient flows")
    pe.add_argument("--generator", required=True)
    pe.add_argument("--rho0", default="pi",
                    help="comma-separated masses or the keyword 'pi'")
    pe.add_argument("--T", type=float, default=5.0)
    pe.add_argument("--dt", type=float, default=1e-3)
    pe.add_argument("--structure", default="linear",
                    help="distinct comma-separated TAGs from %s; two "
                         "TAGs also give their sup-norm gap.  The entropy "
                         "column is E_pi for linear and S = E_pi/2 for the "
                         "gradient flows" % "|".join(EVOLVE_TAGS))
    pe.add_argument("--seed", type=int, default=0,
                    help="recorded in the report only: no flow is random")
    pe.add_argument("--out", default="out")
    pe.set_defaults(func=cmd_evolve)

    ps = sub.add_parser("simulate", help="tilted particle experiment")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", default="out")
    ps.set_defaults(func=cmd_simulate)

    pd = sub.add_parser("diffusion", help="1-D drift-diffusion run")
    pd.add_argument("--config", required=True)
    pd.add_argument("--T", type=float, default=5.0)
    pd.add_argument("--dt", type=float, default=1e-3)
    pd.add_argument("--seed", type=int, default=0,
                    help="seed of the decomposition check's samples; a "
                         "config 'seed' takes precedence over this flag")
    pd.add_argument("--out", default="out")
    pd.set_defaults(func=cmd_diffusion)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (NotGradientSystem, NotWeaklyReversible) as exc:
        print("structural refusal: %s" % exc, file=sys.stderr)
        return EXIT_STRUCTURE
    except (InvalidGenerator, ReducibleChain, InvalidInput, OSError,
            json.JSONDecodeError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except LdgradError as exc:
        print("runtime failure: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
