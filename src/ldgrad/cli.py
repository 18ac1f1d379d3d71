"""Batch command-line front door.

Subcommands: analyze (structure diagnostics), evolve (trajectory CSVs and
comparison gaps), simulate (particle experiment report), diffusion
(grid profiles, entropy decay, decomposition report, plot script).

Exit codes: 0 ok, 2 input error, 3 structural refusal (no gradient system),
4 runtime/statistical failure, which includes an output value that is NaN or
infinite.  This module writes every output file, through one path: reports
go through `write_json`, tables (trajectories included) through
`write_csv`, and both through `_atomic_write` (temp file + rename).
Outputs are byte-identical for a fixed config and seed; every report
carries its seeds and tolerances.  A run manifest (command, config hash,
outputs, wall clock) is written next to the outputs; the manifest is the
one file allowed to differ between reruns.
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


def _json_default(o):
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, np.bool_):
        return bool(o)
    raise TypeError("not JSON serializable: %r" % type(o))


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
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                          default=_json_default)
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
    entropy: one row per time."""
    header = ["t"] + ["rho_%d" % (j + 1)
                      for j in range(traj.states.shape[1])]
    columns = [traj.times, *traj.states.T]
    if traj.entropy_values is not None:
        header.append("entropy")
        columns.append(traj.entropy_values)
    write_csv(path, header, columns)


def _out_dir(args):
    out = os.environ.get("OUT_DIR", None) or args.out
    os.makedirs(out, exist_ok=True)
    return out


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _write_manifest(out, command, args_dict, seeds, tolerances, outputs,
                    wall_clock, config_path=None):
    manifest = {
        "command": command,
        "args": args_dict,
        "config_sha256": _sha256_file(config_path) if config_path else None,
        "seeds": seeds,
        "tool_version": __version__,
        "tolerances": tolerances,
        "outputs": sorted(outputs),
        "wall_clock_s": wall_clock,
    }
    write_json(os.path.join(out, "manifest.json"), manifest)


def cmd_analyze(args):
    t0 = time.perf_counter()
    g = markov.load_generator(args.generator)
    diag = structure.diagnostics(g, sample_count=args.samples, seed=args.seed)
    report = diag.to_dict()
    report["generator_file"] = args.generator
    if diag.detailed_balance:
        verdict = "gradient system (detailed balance)"
        report["driving_functional"] = "S = 0.5 * E_pi"
    else:
        verdict = "covector system only"
    report["verdict"] = verdict
    if g.weakly_reversible and diag.detailed_balance:
        for fam in (structure.Family.QUADRATIC_FAMILY,
                    structure.Family.COSH_FAMILY):
            _, srep = structure.determine_entropy_scale(g, fam, seed=args.seed)
            report.setdefault("family_entropy_scales", {})[fam.value] = srep
        report["cosh_vs_ldp"] = structure.cosh_vs_ldp_report(g, seed=args.seed)
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
    if text == "pi":
        return markov.analyze_balance(g).invariant_measure
    vals = np.array([float(x) for x in text.split(",")])
    return markov.as_simplex(vals)


def cmd_evolve(args):
    t0 = time.perf_counter()
    g = markov.load_generator(args.generator)
    tags = args.structure.split(",")
    valid = {"linear", "ldp", "cosh_family", "quadratic_family"}
    for tag in tags:
        if tag not in valid:
            raise InvalidInput("unknown structure tag %r" % tag)
    rho0 = _parse_rho0(args.rho0, g)
    out = _out_dir(args)
    outputs = []
    trajs = {}
    for tag in tags:
        if tag == "linear":
            traj = evolve.integrate_linear(rho0, g, args.T, args.dt)
        else:
            gs = structure.build_structure(g, structure.Family(tag),
                                           seed=args.seed)
            traj = evolve.integrate_gradient_flow(rho0, gs, args.T, args.dt)
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
                    outputs, time.perf_counter() - t0)
    return EXIT_OK


def cmd_simulate(args):
    t0 = time.perf_counter()
    with open(args.config) as fh:
        cfg = json.load(fh)
    g = markov.load_generator(cfg["generator"])
    T = float(cfg["T"])
    dt = float(cfg.get("grid_dt", 0.01))
    times = evolve.time_grid(T, dt)
    target_cfg = cfg["target"]
    if target_cfg["type"] == "constant":
        rho = markov.as_simplex(target_cfg["rho"])
        states = np.tile(rho, (times.size, 1))
    elif target_cfg["type"] == "linear_solution":
        rho0 = markov.as_simplex(target_cfg["rho0"])
        states = evolve.exact_linear_solution(rho0, g, times).states
    else:
        raise InvalidInput("unknown target type %r" % target_cfg["type"])
    report, rows = particle.rate_vs_probability_experiment(
        g, times, states, float(cfg["tube_radius"]),
        [int(n) for n in cfg["n_list"]], int(cfg["replicas"]),
        int(cfg["seed"]))
    # Zero-tilt sanity: the identity tilt has zero log density by definition.
    zero = particle.TiltField.constant(np.zeros(g.size), T)
    p0 = particle.simulate(
        g, 10, T, particle.deterministic_assignment(states[0], 10),
        int(cfg["seed"]), tilt=zero)
    report["zero_tilt_girsanov"] = particle.girsanov_log_density(p0, zero, g)
    report["config_file"] = args.config
    out = _out_dir(args)
    write_json(os.path.join(out, "ldp_report.json"), report)
    keys = ["n", "replica", "hit", "G", "log_weight", "distance"]
    write_csv(os.path.join(out, "replicas.csv"), keys,
              [np.array([r[key] for r in rows]) for key in keys])
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
                    {"seed": cfg["seed"]},
                    {"girsanov_exactness": 1e-10},
                    ["ldp_report.json", "replicas.csv"],
                    time.perf_counter() - t0, config_path=args.config)
    return EXIT_OK


PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Plot commands for the diffusion outputs in this directory.
import csv, sys
import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

def read(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return rows

prof = read("profiles.csv")
ent = read("entropy.csv")
times = sorted({r["t"] for r in prof}, key=float)
fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
for t in times:
    xs = [float(r["x"]) for r in prof if r["t"] == t]
    ys = [float(r["rho"]) for r in prof if r["t"] == t]
    ax1.plot(xs, ys, label="t=%s" % t)
ax1.plot([float(r["x"]) for r in prof if r["t"] == times[0]],
         [float(r["pi"]) for r in prof if r["t"] == times[0]],
         "k--", label="pi")
ax1.set_xlabel("x"); ax1.set_ylabel("density"); ax1.legend(fontsize=6)
ax2.plot([float(r["t"]) for r in ent], [float(r["entropy"]) for r in ent])
ax2.set_xlabel("t"); ax2.set_ylabel("entropy")
fig.tight_layout()
fig.savefig("diffusion.png", dpi=150)
print("wrote diffusion.png")
"""


def cmd_diffusion(args):
    """Integrate the grid chain from rho0 and write six profile snapshots,
    the entropy at every time and the report.  The states are read block
    by block from `evolve.linear_blocks` and only the six snapshots are
    kept: no (steps + 1, N) stack is built, and what grows with the step
    count is the times and entropy columns alone."""
    t0 = time.perf_counter()
    with open(args.config) as fh:
        cfg = json.load(fh)
    g = diffusion.grid_from_config(cfg)
    seed = diffusion.config_number(cfg, "seed", args.seed, 0)
    samples = diffusion.config_number(cfg, "decomposition_samples", 20, 1)
    rho0 = diffusion.initial_masses_from_config(cfg, g)
    times = evolve.time_grid(args.T, args.dt)
    pi = g.invariant_masses()
    snap = np.linspace(0, times.size - 1, 6).astype(int)
    snapshots = np.empty((snap.size, g.N))
    entropy = np.empty(times.size)
    for k, block in evolve.linear_blocks(rho0, g.chain, times):
        entropy[k:k + len(block)] = markov.relative_entropy(block, pi)
        hit = (snap >= k) & (snap < k + len(block))
        snapshots[hit] = block[snap[hit] - k]

    # Exact quadratic-form split, checked on seeded random tangents.
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
    _atomic_write(os.path.join(out, "plot_diffusion.py"), [PLOT_SCRIPT])
    report = {
        "grid": {"a": g.a, "b": g.b, "N": g.N, "h": g.h},
        "T": args.T, "dt": args.dt, "seed": seed,
        "decomposition_residual_max": worst,
        "decomposition_tolerance": 1e-12,
        "entropy_monotone": bool(np.all(np.diff(entropy) <= 1e-10)),
        "final_gap_to_pi": float(np.abs(snapshots[-1] - pi).max()),
        "detailed_balance": True,
    }
    if isinstance(cfg.get("potential"), str) and cfg["potential"] == "quadratic":
        report["truncation_tail_mass"] = diffusion.gaussian_tail_mass(g)
        report["truncation_tail_target"] = diffusion.TAIL_MASS_TARGET
    write_json(os.path.join(out, "diffusion_report.json"), report)
    print("decomposition residual max = %.3e (must be <= 1e-12)" % worst)
    print("entropy monotone: %s; final |rho - pi|_inf = %.3e"
          % (report["entropy_monotone"], report["final_gap_to_pi"]))
    _write_manifest(out, "diffusion", {"config": args.config, "T": args.T,
                                       "dt": args.dt},
                    {"seed": seed}, {"decomposition_residual": 1e-12},
                    ["profiles.csv", "entropy.csv", "plot_diffusion.py",
                     "diffusion_report.json"],
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
                    help="TAG or TAG,TAG from linear|ldp|cosh_family|"
                         "quadratic_family")
    pe.add_argument("--seed", type=int, default=0)
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
    pd.add_argument("--seed", type=int, default=0)
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
    except (InvalidGenerator, ReducibleChain, InvalidInput,
            FileNotFoundError, KeyError, json.JSONDecodeError,
            ValueError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except LdgradError as exc:
        print("runtime failure: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
