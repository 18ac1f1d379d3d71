import ast
import csv
import io
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import chains
from ldgrad import cli, errors, evolve, markov, particle, structure
from ldgrad.errors import LdgradError, NonFiniteOutput


def test_no_cross_check_is_a_runtime_failure(tmp_path, monkeypatch, capsys):
    # An error that carries extra state, raised inside a command.
    assert issubclass(errors.NoConvergence, LdgradError)
    err = errors.NoConvergence("no convergence", best=[1.0, 2.0])
    assert err.best == [1.0, 2.0]

    def disagree(*args, **kwargs):
        raise errors.NoConvergence("no convergence", best=[1.0, 2.0])

    monkeypatch.setattr(structure, "diagnostics", disagree)
    gen = tmp_path / "gen.json"
    chains.save_generator(chains.two_state_symmetric(), gen)
    code = cli.main(["analyze", "--generator", str(gen), "--samples", "1",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_RUNTIME
    assert "runtime failure: no convergence" in capsys.readouterr().err


def test_simulate_ignores_a_legacy_workers_key(tmp_path):
    gen = tmp_path / "gen.json"
    chains.save_generator(chains.two_state_symmetric(), gen)
    outputs = []
    for workers in (None, 4):
        cfg = {"generator": str(gen), "T": 0.2, "grid_dt": 0.02,
               "target": {"type": "constant", "rho": [0.6, 0.4]},
               "tube_radius": 0.1, "n_list": [20], "replicas": 4, "seed": 3}
        if workers is not None:
            cfg["workers"] = workers
        path = tmp_path / ("cfg%s.json" % workers)
        path.write_text(json.dumps(cfg))
        out = tmp_path / ("out%s" % workers)
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(out)]) == cli.EXIT_OK
        outputs.append([(out / name).read_bytes()
                        for name in ("ldp_report.json", "replicas.csv")])
    report = [json.loads(o[0]) for o in outputs]
    for r in report:
        r.pop("config_file")
    assert report[0] == report[1]
    assert outputs[0][1] == outputs[1][1]
    assert np.isfinite(report[0]["rate_functional"])


def _simulate_config(tmp_path, Q, target, **overrides):
    gen = tmp_path / "gen.json"
    chains.save_generator(markov.validate_generator(Q), gen)
    cfg = {"generator": str(gen), "T": 1.0, "grid_dt": 0.1, "target": target,
           "tube_radius": 0.1, "n_list": [100], "replicas": 2, "seed": 0}
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return ["simulate", "--config", str(path), "--out", str(tmp_path / "out")]


def test_simulate_over_budget_tilt_is_a_runtime_failure(tmp_path, capsys):
    argv = _simulate_config(
        tmp_path, [[-100.0, 100.0], [100.0, -100.0]],
        {"type": "constant", "rho": [1.0 - 1e-9, 1e-9]})
    assert cli.main(argv) == cli.EXIT_RUNTIME
    assert "thinning proposal budget exceeded" in capsys.readouterr().err


def test_simulate_unknown_target_is_an_input_error(tmp_path, capsys):
    argv = _simulate_config(tmp_path, [[-1.0, 1.0], [1.0, -1.0]],
                            {"type": "bogus"})
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "unknown target type" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("replicas", 1), ("replicas", 0),
                                       ("n_list", []), ("n_list", [10, 0]),
                                       ("n_list", [20, 20])])
def test_simulate_rejects_too_few_replicas_or_particles(tmp_path, capsys,
                                                        key, value):
    argv = _simulate_config(tmp_path, [[-1.0, 1.0], [1.0, -1.0]],
                            {"type": "constant", "rho": [0.6, 0.4]},
                            **{key: value})
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "ldp_report.json").exists()


@pytest.mark.parametrize("T,grid_dt", [(1.0, 0.0), (1.0, 2.0), (-1.0, 0.01),
                                       (1.0, 0.03)])
def test_simulate_rejects_a_bad_time_grid(tmp_path, capsys, T, grid_dt):
    # 0.03 does not divide 1.0: the grid would stop at 0.99.
    argv = _simulate_config(tmp_path, [[-1.0, 1.0], [1.0, -1.0]],
                            {"type": "linear_solution", "rho0": [0.9, 0.1]},
                            T=T, grid_dt=grid_dt)
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "ldp_report.json").exists()


@pytest.mark.parametrize("override", [
    {"replicas": 3.9}, {"replicas": True}, {"replicas": "3"}, {"seed": 1.7},
    {"seed": None}, {"seed": -1}, {"seed": 2 ** 64}, {"n_list": [10.6]},
    {"n_list": [True]}, {"n_list": 10},
    {"tube_radius": -0.1}, {"tube_radius": 0.0},
    {"tube_radius": float("inf")}, {"T": float("nan")}, {"T": "1.0"},
    {"grid_dt": float("inf")}, {"grid_dt": False}, {"generator": 5},
    {"target": "pi"}, {"target": {"type": ["constant"]}},
    {"target": {"type": "constant", "rho": [1.0]}},
    {"target": {"type": "constant", "rho": [0.5, 0.3, 0.2]}},
    {"target": {"type": "constant", "rho": [[0.6], [0.4]]}},
    {"target": {"type": "constant", "rho": [0.5, 0.6]}},
    {"target": {"type": "constant"}},
    {"target": {"type": "linear_solution", "rho0": [1.0]}},
    {"target": {"type": "linear_solution", "rho0": [0.5, 0.3, 0.2]}}],
    ids=lambda o: "%s=%r" % next(iter(o.items())))
def test_simulate_rejects_a_bad_config(tmp_path, capsys, override):
    cfg = {"target": {"type": "constant", "rho": [0.6, 0.4]}, **override}
    argv = _simulate_config(tmp_path, [[-1.0, 1.0], [1.0, -1.0]], **cfg)
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error: config '%s" % next(iter(override)) in err
    if override == {"target": {"type": "constant", "rho": [0.5, 0.6]}}:
        assert "config 'target.rho' must sum to one" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override", [
    {"N": 21.5}, {"N": "21"}, {"N": True}, {"N": 2}, {"a": "x"}, {"b": "x"},
    {"b": float("inf")}, {"decomposition_samples": -3},
    {"decomposition_samples": 0}, {"seed": 1.5},
    {"rho0": {"type": "gaussian", "mean": 1.0, "var": -1}},
    {"rho0": {"type": "gaussian", "mean": 1.0, "var": 0.0}},
    {"rho0": {"type": "gaussian", "mean": 1.0, "var": float("inf")}},
    {"rho0": {"type": "gaussian", "mean": 1.0, "var": True}},
    {"rho0": {"type": "gaussian", "mean": "x", "var": 0.8}},
    {"rho0": {"type": "gaussian", "mean": float("nan"), "var": 0.8}},
    {"rho0": {"type": "gaussian", "var": 0.8}},
    # Masses that underflow to zero on some nodes, or on every node: DS
    # would be -inf there, and with every node empty the masses 0/0.
    {"rho0": {"type": "gaussian", "mean": 1.5, "var": 0.001}},
    {"rho0": {"type": "gaussian", "mean": 1.9, "var": 1e-6}},
    {"rho0": {"type": "uniform"}}, {"rho0": {"mean": 1.0, "var": 0.8}},
    {"rho0": [1, 2]}, {"rho0": "pi"}, {"potential": {}},
    {"potential": [0.0] * 20}, {"potential": [0.0] * 20 + ["x"]}],
    ids=lambda o: "%s=%r" % next(iter(o.items())))
def test_diffusion_rejects_a_bad_config(tmp_path, capsys, override):
    cfg = {"a": -2.0, "b": 2.0, "N": 21, "potential": "quadratic", "seed": 4,
           "decomposition_samples": 3, **override}
    path = tmp_path / "diffusion.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["diffusion", "--config", str(path), "--T", "0.1",
                     "--dt", "0.01", "--out", str(out)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error" in err
    if override == {"rho0": {"type": "gaussian", "mean": 1.5, "var": 0.001}}:
        assert "config 'rho0' has no mass at node 0 (x = -2.0)" in err
    assert not out.exists()


@pytest.mark.parametrize("command,option,value", [
    ("simulate", "--config", [{"N": 21}]),
    ("diffusion", "--config", [{"N": 21}]),
    ("analyze", "--generator", 5), ("evolve", "--generator", 5)],
    ids=["simulate", "diffusion", "analyze", "evolve"])
def test_a_config_that_is_not_an_object_is_an_input_error(tmp_path, capsys,
                                                         command, option,
                                                         value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(value))
    out = tmp_path / "out"
    assert cli.main([command, option, str(path),
                     "--out", str(out)]) == cli.EXIT_INPUT
    assert "must hold a JSON object, got %s" % type(value).__name__ in (
        capsys.readouterr().err)
    assert not out.exists()


_TWO_STATE_Q = [[-1.0, 1.0], [1.0, -1.0]]
_BAD_LABELS = "generator 'labels' must be a list of 2 distinct strings"
_BAD_Q = "generator 'Q' must be a square list of lists of numbers"
_BAD_RHO0 = "--rho0 must be 'pi' or 2 comma-separated numbers"


@pytest.mark.parametrize("generator,rho0,message", [
    ({"Q": _TWO_STATE_Q, "labels": 5}, "pi", _BAD_LABELS),
    ({"Q": _TWO_STATE_Q, "labels": "ab"}, "pi", _BAD_LABELS),
    ({"Q": _TWO_STATE_Q, "labels": None}, "pi", _BAD_LABELS),
    ({"Q": _TWO_STATE_Q, "labels": ["a"]}, "pi", _BAD_LABELS),
    ({"Q": _TWO_STATE_Q, "labels": [1, 2]}, "pi", _BAD_LABELS),
    ({"Q": _TWO_STATE_Q, "labels": ["a", "a"]}, "pi", _BAD_LABELS),
    ({"labels": ["a", "b"]}, "pi", "generator file lacks a 'Q' entry"),
    ({"Q": {}}, "pi", _BAD_Q),
    ({"Q": "ab"}, "pi", _BAD_Q),
    ({"Q": [[-1.0, 1.0], [1.0]]}, "pi", _BAD_Q),
    ({"Q": [[-1.0, True], [1.0, -1.0]]}, "pi", _BAD_Q),
    ({"Q": [[-1.0, "1.0"], [1.0, -1.0]]}, "pi", _BAD_Q),
    ({"Q": _TWO_STATE_Q}, "a,b", _BAD_RHO0),
    ({"Q": _TWO_STATE_Q}, "", _BAD_RHO0),
    ({"Q": _TWO_STATE_Q}, "0.5,0.5,", _BAD_RHO0),
    ({"Q": _TWO_STATE_Q}, "0.3,0.3,0.4", _BAD_RHO0),
    ({"Q": _TWO_STATE_Q}, "1", _BAD_RHO0),
    ({"Q": _TWO_STATE_Q}, "nan,1", "--rho0 is not a probability vector")],
    ids=["labels=5", "labels='ab'", "labels=null", "labels=['a']",
         "labels=[1,2]", "labels=['a','a']", "no-Q", "Q={}", "Q='ab'",
         "Q=ragged", "rate=true", "rate='1.0'", "rho0='a,b'", "rho0=''",
         "rho0='0.5,0.5,'", "rho0=3-entries", "rho0=1-entry", "rho0=nan"])
def test_evolve_rejects_a_bad_generator_file_or_rho0(tmp_path, capsys,
                                                     one_process, generator,
                                                     rho0, message):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(generator))
    out = tmp_path / "out"
    assert cli.main(["evolve", "--generator", str(gen), "--rho0", rho0,
                     "--structure", "linear,ldp", "--T", "0.1", "--dt", "0.01",
                     "--out", str(out)]) == cli.EXIT_INPUT
    assert "input error: " + message in capsys.readouterr().err
    assert not out.exists()


# The bad values of the leaf-mutation fuzz, for JSON leaves and for flags.
_BAD_VALUES = [None, True, "x", -1, 0, 1.5, float("nan"), float("inf"), [],
               {}, [1], "1.0"]


def _json_paths(node, prefix=()):
    """The path of every node of a JSON document, the root included."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


def _replaced(doc, path, value):
    """A copy of doc with the node at path replaced by value."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# The numerics entry points that the commands call once their inputs are
# checked.
_NUMERICS = [(structure, "diagnostics"),
             (particle, "rate_vs_probability_experiment"),
             (evolve, "integrate_linear"), (evolve, "integrate_gradient_flow"),
             (evolve, "linear_blocks")]


def _recording(fn, ran):
    """fn, which first appends its name to `ran`."""
    def wrapper(*args, **kwargs):
        ran.append(fn.__name__)
        return fn(*args, **kwargs)
    return wrapper


def test_mutated_inputs_exit_cleanly_and_refusals_write_nothing(
        tmp_path, monkeypatch):
    # Each node of a two-state generator file (through analyze and evolve),
    # a simulate config and a diffusion config is replaced by each bad
    # value, and each bad value is given as --rho0, --structure, --T, --dt
    # and --seed of evolve, --samples and --seed of analyze and --seed of
    # diffusion.  cli.main must return (0, or the exit code of an
    # LdgradError, OSError or JSONDecodeError) or stop in argparse's usage
    # error; any other exception escapes it and fails the test.  A refused
    # input leaves no file under --out, and an input error is found in cli,
    # before any numerics entry point runs.
    ran = []
    for module, name in _NUMERICS:
        monkeypatch.setattr(module, name,
                            _recording(getattr(module, name), ran))
    gen = {"Q": [[-1.0, 1.0], [1.0, -1.0]], "labels": ["a", "b"]}
    base = tmp_path / "base_gen.json"
    base.write_text(json.dumps(gen))
    sim = {"generator": str(base), "T": 1.0, "grid_dt": 0.1,
           "target": {"type": "constant", "rho": [0.6, 0.4]},
           "tube_radius": 0.1, "n_list": [10, 20], "replicas": 2, "seed": 0}
    dif = {"a": -2.0, "b": 2.0, "N": 11, "potential": "quadratic", "seed": 4,
           "decomposition_samples": 2,
           "rho0": {"type": "gaussian", "mean": 1.0, "var": 0.8}}
    short = ["--T", "0.01", "--dt", "0.001"]
    analyze = ["analyze", "--samples", "2", "--generator"]
    evolve_ = ["evolve", *short, "--structure", "ldp", "--generator"]
    cases = []  # (argv up to the input file, JSON document)
    for doc, heads in ((gen, [analyze, evolve_]),
                       (sim, [["simulate", "--config"]]),
                       (dif, [["diffusion", *short, "--config"]])):
        cases += [(head, _replaced(doc, path, value))
                  for path in _json_paths(doc) for value in _BAD_VALUES
                  for head in heads]
    # The flag cases of diffusion use a config without a seed, which would
    # take precedence over --seed.
    unseeded = {key: v for key, v in dif.items() if key != "seed"}
    flags = [(["evolve", *short, "--structure", "ldp", "--rho0"], gen),
             (["evolve", *short, "--structure"], gen),
             (["evolve", "--dt", "0.001", "--structure", "ldp", "--T"], gen),
             (["evolve", "--T", "0.01", "--structure", "ldp", "--dt"], gen),
             (["evolve", *short, "--structure", "ldp", "--seed"], gen),
             (["analyze", "--samples", "2", "--seed"], gen),
             (["analyze", "--samples"], gen),
             (["diffusion", *short, "--seed"], unseeded)]
    cases += [(head + [json.dumps(value).strip('"'),
                       "--generator" if doc is gen else "--config"], doc)
              for head, doc in flags for value in _BAD_VALUES]
    assert len(cases) == 672
    inp = tmp_path / "in.json"
    codes = []
    for k, (head, doc) in enumerate(cases):
        inp.write_text(json.dumps(doc))
        out = tmp_path / ("out%d" % k)
        ran.clear()
        try:
            code = cli.main(head + [str(inp), "--out", str(out)])
        except SystemExit as exc:  # argparse refuses a non-number
            assert exc.code == cli.EXIT_INPUT, (head, doc)
            code = exc.code
        codes.append(code)
        if code != cli.EXIT_OK:
            assert not out.exists() or not os.listdir(out), (head, doc)
        if code == cli.EXIT_INPUT:
            assert ran == [], (head, doc, ran)
    assert set(codes) <= {cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_STRUCTURE,
                          cli.EXIT_RUNTIME}
    assert codes.count(cli.EXIT_OK) > 0 and codes.count(cli.EXIT_INPUT) > 0


_GEN = {"Q": [[-1.0, 1.0], [1.0, -1.0]]}
_DIF = {"a": -2.0, "b": 2.0, "N": 11, "decomposition_samples": 2}


@pytest.mark.parametrize("command,content,extra,code,message", [
    ("evolve", _GEN, ["--structure", "linear,bogus"], cli.EXIT_INPUT,
     "unknown structure tag 'bogus'"),
    ("analyze", _GEN, ["--samples", "0"], cli.EXIT_INPUT,
     "--samples must be >= 1, got 0"),
    ("analyze", {"Q": [[float("nan"), 1.0], [1.0, -1.0]]}, [],
     cli.EXIT_INPUT, "non-finite entries"),
    ("diffusion", {**_DIF, "rho0": {"type": "pi"}}, [], cli.EXIT_OK, ""),
    *[("diffusion", {**_DIF, "potential": p}, [], cli.EXIT_INPUT,
       "potential %r needs a finite real slope" % p)
      for p in ("linear:x", "linear:", "linear:1e400", "linear:nan")],
    *[("diffusion", {**_DIF, "potential": p}, [], cli.EXIT_INPUT,
       "potential step from node 1 to node 0 is too steep")
      for p in ("linear:1e300", "linear:3545")],
    ("analyze", b"\x80{}", [], cli.EXIT_INPUT, "is not UTF-8 text"),
    ("diffusion", b"\x80{}", [], cli.EXIT_INPUT, "is not UTF-8 text"),
    # One seed rule for every command: an integer in [0, 2^64).  _DIF has
    # no seed, which would take precedence over --seed.
    *[(command, content, ["--seed", "-1"], cli.EXIT_INPUT,
       "--seed must be an integer in [0, 2^64), got -1")
      for command, content in (("analyze", _GEN), ("diffusion", _DIF),
                               ("evolve", _GEN))]],
    ids=["unknown-tag", "samples=0", "nan-rate", "rho0=pi", "linear:x",
         "linear:", "linear:1e400", "linear:nan", "linear:1e300",
         "linear:3545", "generator-not-utf8", "config-not-utf8",
         "analyze-seed=-1", "diffusion-seed=-1", "evolve-seed=-1"])
def test_rare_input_branches(tmp_path, capsys, command, content, extra, code,
                             message):
    path = tmp_path / "in.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    out = tmp_path / "out"
    option = "--config" if command == "diffusion" else "--generator"
    grid = [] if command == "analyze" else ["--T", "0.01", "--dt", "0.001"]
    assert cli.main([command, option, str(path), "--out", str(out), *grid,
                     *extra]) == code
    assert message in capsys.readouterr().err
    assert code == cli.EXIT_OK or not out.exists()


def test_analyze_solves_for_pi_once(tmp_path, monkeypatch):
    # A reversible, weakly reversible chain takes every analyze step: the
    # diagnostics and both family drift reports.
    calls = []
    solve = markov.analyze_balance

    def counting(g):
        calls.append(g)
        return solve(g)

    monkeypatch.setattr(markov, "analyze_balance", counting)
    gen = tmp_path / "gen.json"
    chains.save_generator(chains.random_reversible(4, 2), gen)
    out = tmp_path / "out"
    assert cli.main(["analyze", "--generator", str(gen), "--samples", "2",
                     "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "diagnostics.json").read_text())
    assert set(report["family_entropy_scales"]) == {"ldp",
                                                    "quadratic_family"}
    assert len(calls) == 1


def _diffusion_config(path, N, **cfg):
    path.write_text(json.dumps({"a": -4.0, "b": 4.0, "N": N,
                                "potential": "quadratic", "seed": 2,
                                "decomposition_samples": 2, **cfg}))
    return str(path)


def test_diffusion_outputs_equal_the_full_stack_values(tmp_path):
    # N = 101 at T = 1, dt = 1e-3: 1,001 states in 13 blocks of at most
    # ENTROPY_CHUNK // 101 = 81 rows, the last one partial.
    from ldgrad import diffusion, evolve
    N, T, dt = 101, 1.0, 1e-3
    rows = markov.ENTROPY_CHUNK // N
    assert rows == 81 and -(-1001 // rows) == 13
    cfg = _diffusion_config(tmp_path / "dif.json", N)
    out = tmp_path / "out"
    assert cli.main(["diffusion", "--config", cfg, "--T", repr(T), "--dt",
                     repr(dt), "--out", str(out)]) == cli.EXIT_OK
    # The same outputs from the (n, N) stack of states.
    g = diffusion.make_grid(-4.0, 4.0, N, "quadratic")
    pi = g.invariant_masses()
    traj = evolve.integrate_linear(diffusion.gaussian_initial_masses(
        g, 1.0, 0.8), g.chain, T, dt)
    snap = np.linspace(0, traj.times.size - 1, 6).astype(int)
    profiles = np.vstack([diffusion.profiles_rows(g, traj.states[k])
                          for k in snap])
    want = tmp_path / "want"
    want.mkdir()
    cli.write_csv(str(want / "profiles.csv"), ["t", "x", "rho", "pi", "DS"],
                  [np.repeat(traj.times[snap], N), *profiles.T])
    cli.write_csv(str(want / "entropy.csv"), ["t", "entropy"],
                  [traj.times, markov.relative_entropy(traj.states, pi)])
    for name in ("profiles.csv", "entropy.csv"):
        assert (out / name).read_bytes() == (want / name).read_bytes()
    report = json.loads((out / "diffusion_report.json").read_text())
    assert report["final_gap_to_pi"] == float(
        np.abs(traj.states[-1] - pi).max())


def test_diffusion_memory_does_not_grow_with_the_step_count(tmp_path):
    # The (steps + 1, N) stack at T = 2 would take 2,001 * 101 * 8 B =
    # 1.62 MB; the run may hold half of it at most, and quadrupling the
    # step count may add only the times and entropy columns.
    import tracemalloc
    cfg = _diffusion_config(tmp_path / "dif.json", 101)

    def peak(T):
        tracemalloc.start()
        try:
            assert cli.main(["diffusion", "--config", cfg, "--T", T,
                             "--dt", "1e-3", "--out",
                             str(tmp_path / "out")]) == cli.EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("0.5")  # first-call set-up, outside the comparison
    short, long = peak("0.5"), peak("2")
    assert long < 0.5 * 2001 * 101 * 8
    assert long - short < 0.1e6


def test_simulate_report_counts_thinning(tmp_path):
    argv = _simulate_config(tmp_path, [[-1.0, 1.0], [1.0, -1.0]],
                            {"type": "constant", "rho": [0.7, 0.3]})
    reports = []
    for _ in range(2):
        assert cli.main(argv) == cli.EXIT_OK
        reports.append((tmp_path / "out" / "ldp_report.json").read_bytes())
    assert reports[0] == reports[1]
    thinning = json.loads(reports[0])["thinning"]
    assert 0 < thinning["accepted"] <= thinning["proposals"]


def _fail_part_way():
    yield "a first chunk\n"
    raise RuntimeError("no second chunk")


def test_failed_atomic_write_keeps_the_earlier_file(tmp_path):
    path = str(tmp_path / "report.json")
    cli.write_json(path, {"a": 1})
    before = (tmp_path / "report.json").read_bytes()
    with pytest.raises(UnicodeEncodeError):
        cli._atomic_write(path, ["ok\n", "unpaired surrogate \ud800"])
    with pytest.raises(RuntimeError):
        cli._atomic_write(path, _fail_part_way())
    assert (tmp_path / "report.json").read_bytes() == before
    assert os.listdir(tmp_path) == ["report.json"]


def _reject_constant(name):
    raise ValueError("non-standard JSON constant %s" % name)


def test_simulate_without_hits_writes_strict_json(tmp_path, capsys):
    # n = 10 cannot start within 0.01 of (0.55, 0.45): no tilted and no
    # plain replica hits the tube, so both estimates are infinite.
    argv = _simulate_config(tmp_path, [[-1.0, 1.0], [1.0, -1.0]],
                            {"type": "constant", "rho": [0.55, 0.45]})
    with open(argv[2]) as fh:
        cfg = json.load(fh)
    cfg.update(n_list=[10], tube_radius=0.01)
    with open(argv[2], "w") as fh:
        json.dump(cfg, fh)
    assert cli.main(argv) == cli.EXIT_OK
    text = (tmp_path / "out" / "ldp_report.json").read_text()
    entry = json.loads(text, parse_constant=_reject_constant)["estimates"]["10"]
    assert entry["inf_estimate"] is True
    assert entry["estimate"] is None and entry["standard_error"] is None
    assert entry["relative_deviation_from_rate"] is None
    assert entry["plain_monte_carlo"] == {"hits": 0, "estimate": None}
    assert "inf (no tube hits)" in capsys.readouterr().out


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_write_json_refuses_non_finite_values(tmp_path, value):
    with pytest.raises(NonFiniteOutput):
        cli.write_json(str(tmp_path / "report.json"), {"x": [1.0, value]})
    assert os.listdir(tmp_path) == []


def _csv_writer_bytes(header, columns):
    """The table as `csv.writer` writes it, one cell at a time: ints by
    str, floats by repr."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for k in range(len(columns[0])):
        w.writerow([repr(float(c[k])) if isinstance(c[k], float) else str(c[k])
                    for c in columns])
    return buf.getvalue().encode()


def _table(rows, rng):
    return (["n", "hit", "x", "y"],
            [[7] * rows, [int(b) for b in rng.integers(0, 2, rows)],
             rng.standard_normal(rows).tolist(),
             (rng.uniform(size=rows) * 10.0 ** rng.integers(-300, 300, rows)
              ).tolist()])


@pytest.mark.parametrize("rows, ints", [(1301, False), (700, True)],
                         ids=["1301-float-rows", "int-and-float"])
def test_write_csv_bytes_match_csv_writer(tmp_path, rows, ints):
    header, columns = _table(rows, np.random.default_rng(rows))
    if not ints:  # three blocks of float rows, the last one partial
        header, columns = header[2:], columns[2:]
    path = tmp_path / "rows.csv"
    cli.write_csv(str(path), header, [np.array(c) for c in columns])
    assert path.read_bytes() == _csv_writer_bytes(header, columns)


def test_write_csv_refuses_mismatched_columns(tmp_path):
    # Unchecked, zip would cut every column to the shortest one.
    for columns in ([np.zeros(512), np.zeros(513)], [np.zeros((3, 2))],
                    [np.zeros(3)]):
        with pytest.raises(ValueError):
            cli.write_csv(str(tmp_path / "rows.csv"), ["a", "b"], columns)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("value", [float("nan"), np.float64("inf"),
                                   -np.inf])
def test_write_csv_refuses_non_finite_values(tmp_path, value):
    path = str(tmp_path / "rows.csv")
    header, columns = _table(600, np.random.default_rng(0))
    cli.write_csv(path, header, columns)
    before = (tmp_path / "rows.csv").read_bytes()
    for j in (2, 3):  # each float column, in the second block
        bad = [np.array(c) for c in columns]
        bad[j][550] = value
        with pytest.raises(NonFiniteOutput, match="rows.csv: .* column %s"
                           % header[j]):
            cli.write_csv(path, header, bad)
    assert (tmp_path / "rows.csv").read_bytes() == before
    assert os.listdir(tmp_path) == ["rows.csv"]


def test_non_finite_report_value_is_a_runtime_failure(tmp_path, monkeypatch,
                                                      capsys):
    original = structure.diagnostics

    def nan_defect(*args, **kwargs):
        diag = original(*args, **kwargs)
        diag["integrability_defect"] = float("nan")
        return diag

    monkeypatch.setattr(structure, "diagnostics", nan_defect)
    gen = tmp_path / "gen.json"
    chains.save_generator(chains.two_state_symmetric(), gen)
    out = tmp_path / "out"
    code = cli.main(["analyze", "--generator", str(gen), "--samples", "1",
                     "--out", str(out)])
    assert code == cli.EXIT_RUNTIME
    assert "runtime failure: diagnostics.json" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_evolve_non_finite_trajectory_is_a_runtime_failure(tmp_path, capsys):
    # Rates near the top of the float range overflow the RK4 stages to NaN
    # states, which the step checks refuse before any file is written.
    gen = tmp_path / "gen.json"
    chains.save_generator(chains.two_state_symmetric(1e300), gen)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["evolve", "--generator", str(gen), "--rho0",
                         "0.9,0.1", "--T", "0.01", "--dt", "0.001",
                         "--out", str(out)])
    assert code == cli.EXIT_RUNTIME
    assert "runtime failure" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_evolve_ldp_non_finite_trajectory_is_a_runtime_failure(tmp_path,
                                                               capsys):
    # The exact structure steps by the propagator of its generator K, which
    # overflows on these rates; the first step's state is NaN, and the mass
    # check refuses it before any file is written.
    gen = tmp_path / "gen.json"
    chains.save_generator(chains.two_state_symmetric(1e300), gen)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["evolve", "--generator", str(gen), "--rho0",
                         "0.9,0.1", "--structure", "ldp", "--T", "0.01",
                         "--dt", "0.001", "--out", str(out)])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "runtime failure" in err and "mass drifted by nan" in err
    assert os.listdir(out) == []


def test_evolve_ldp_on_a_cycle_is_a_structural_refusal(tmp_path, capsys):
    gen = tmp_path / "gen.json"
    chains.save_generator(chains.three_state_cycle(), gen)
    code = cli.main(["evolve", "--generator", str(gen), "--structure", "ldp",
                     "--T", "0.1", "--dt", "0.01",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_STRUCTURE
    assert "structural refusal" in capsys.readouterr().err


def _evolve_argv(tmp_path, g, tags, *extra):
    gen = tmp_path / "gen.json"
    chains.save_generator(g, gen)
    return ["evolve", "--generator", str(gen), "--structure", tags,
            "--out", str(tmp_path / "out"), *extra]


def test_evolve_quadratic_off_detailed_balance_is_a_structural_refusal(
        tmp_path, capsys):
    # Rate 2 forward and 1 back around a 3-cycle: weakly reversible, so
    # the quadratic member exists, but not in detailed balance, so its flow
    # is no forward equation and evolve refuses it before any output.
    g = markov.validate_generator([[-3.0, 2.0, 1.0], [1.0, -3.0, 2.0],
                                   [2.0, 1.0, -3.0]])
    gs = structure.build_structure(g, structure.Family.QUADRATIC_FAMILY)
    assert gs.flow_generator is None
    argv = _evolve_argv(tmp_path, g, "quadratic_family", "--T", "0.1",
                        "--dt", "0.01")
    assert cli.main(argv) == cli.EXIT_STRUCTURE
    assert "structural refusal" in capsys.readouterr().err
    assert os.listdir(tmp_path / "out") == []


def test_cosh_member_evolves_as_the_exact_structure(tmp_path):
    # The cosh member is the exact structure, so its flow is the same bits.
    argv = _evolve_argv(tmp_path, chains.random_reversible(5, 4),
                        "ldp,cosh_family", "--rho0", "0.1,0.2,0.3,0.15,0.25",
                        "--T", "0.5", "--dt", "0.01")
    assert cli.main(argv) == cli.EXIT_OK
    out = tmp_path / "out"
    assert ((out / "trajectory_ldp.csv").read_bytes()
            == (out / "trajectory_cosh_family.csv").read_bytes())
    report = json.loads((out / "evolve_report.json").read_text())
    assert report["gap"]["sup_norm_gap"] == 0.0


def test_evolve_tags_keep_their_order_and_name_each_structure(capsys):
    # "cosh_family" names the exact structure; every structure has a tag,
    # and the --structure help lists the tags in this order.
    assert cli.EVOLVE_TAGS == ("linear", "ldp", "cosh_family",
                               "quadratic_family")
    assert (cli.TAG_FAMILIES["cosh_family"] is cli.TAG_FAMILIES["ldp"]
            is structure.Family.LDP_EXACT)
    assert set(cli.TAG_FAMILIES.values()) == set(structure.Family)
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["evolve", "--help"])
    assert "linear|ldp|cosh_family|quadratic_family" in capsys.readouterr().out


def test_evolve_refuses_a_repeated_tag(tmp_path, capsys):
    argv = _evolve_argv(tmp_path, chains.random_reversible(4, 2),
                        "linear,ldp,linear", "--T", "0.1", "--dt", "0.01")
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "repeated structure tag" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("T,dt,code,message", [
    ("inf", "1e-3", cli.EXIT_INPUT, "need finite T and dt"),
    ("nan", "1e-3", cli.EXIT_INPUT, "need finite T and dt"),
    ("1", "nan", cli.EXIT_INPUT, "need finite T and dt"),
    # 1e15 steps: numpy refuses the 7 PiB grid without allocating it.
    ("1e12", "1e-3", cli.EXIT_RUNTIME, "runtime failure: time grid"),
    ("1e300", "1e-300", cli.EXIT_RUNTIME, "runtime failure: time grid"),
    ("1e19", "1", cli.EXIT_RUNTIME, "runtime failure: time grid")],
    ids=["T=inf", "T=nan", "dt=nan", "T=1e12", "T/dt=inf", "T/dt=1e19"])
def test_evolve_rejects_a_bad_time_grid(tmp_path, capsys, T, dt, code,
                                        message):
    argv = _evolve_argv(tmp_path, chains.random_reversible(4, 2),
                        "linear,ldp", "--T", T, "--dt", dt)
    assert cli.main(argv) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture
def one_process(monkeypatch):
    """Makes os.fork raise: every command runs in the calling process."""
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)


@pytest.mark.parametrize("tags", [
    "ldp,linear", "quadratic_family,linear,cosh_family,ldp"])
def test_evolve_writes_the_tags_one_after_another(tmp_path, one_process,
                                                  tags):
    argv = _evolve_argv(tmp_path, chains.random_reversible(4, 2), tags,
                        "--rho0", "0.4,0.3,0.2,0.1", "--T", "0.2",
                        "--dt", "0.01", "--seed", "3")
    assert cli.main(argv) == cli.EXIT_OK
    tags = tags.split(",")
    g = cli.load_generator(str(tmp_path / "gen.json"))
    rho0 = markov.as_simplex([0.4, 0.3, 0.2, 0.1], "rho0")
    out, ref = tmp_path / "out", tmp_path / "ref"
    ref.mkdir()
    trajs = []
    for tag in tags:
        if tag == "linear":
            traj = evolve.integrate_linear(rho0, g, 0.2, 0.01)
        else:
            gs = structure.build_structure(g, cli.TAG_FAMILIES[tag])
            traj = evolve.integrate_gradient_flow(rho0, gs, 0.2, 0.01)
        name = "trajectory_%s.csv" % tag
        cli.write_trajectory(str(ref / name), traj)
        assert (out / name).read_bytes() == (ref / name).read_bytes()
        trajs.append(traj)
    report = json.loads((out / "evolve_report.json").read_text())
    if len(tags) == 2:
        assert report["gap"] == evolve.compare_trajectories(*trajs)
    else:
        assert "gap" not in report
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["integration_s"]) == sorted(tags)
    assert all(s > 0 for s in manifest["integration_s"].values())


@pytest.mark.parametrize("tags,left", [
    ("linear,ldp", ["trajectory_linear.csv"]), ("ldp,linear", [])])
def test_evolve_refusal_keeps_the_serial_outputs(tmp_path, capsys,
                                                 one_process, tags, left):
    # The one-way 3-cycle has no detailed balance: ldp is refused.  The
    # files of the tags before the refused one stay written.
    argv = _evolve_argv(tmp_path, chains.three_state_cycle(), tags,
                        "--T", "0.1", "--dt", "0.01")
    assert cli.main(argv) == cli.EXIT_STRUCTURE
    assert "structural refusal" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path / "out")) == left


_ERROR_ARGS = {errors.NoConvergence: ("no luck", [1.0, 2.0])}


@pytest.mark.parametrize("cls", [
    c for c in vars(errors).values()
    if isinstance(c, type) and issubclass(c, LdgradError)],
    ids=lambda c: c.__name__)
def test_every_error_survives_a_pickle_round_trip(cls):
    # A caller that runs ldgrad in a process pool gets its errors
    # back pickled.
    err = cls(*_ERROR_ARGS.get(cls, ("message",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert (str(back), vars(back)) == (str(err), vars(err))


def test_analyze_absorbing_chain_is_an_input_error(tmp_path, capsys):
    gen = tmp_path / "gen.json"
    chains.save_generator(markov.validate_generator([[-1, 1], [0, 0]]), gen)
    code = cli.main(["analyze", "--generator", str(gen), "--samples", "1",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INPUT
    assert "not strongly connected" in capsys.readouterr().err


def test_benchmark_sweep_passes_the_benchmark_checks(tmp_path, bench):
    # Each command once, as the benchmark runs it, gated by the benchmark's
    # own output checks: the linear-vs-ldp gap, the analyze defect bounds,
    # the Girsanov gap and the diffusion residual.
    runs = bench.build_sweep(0, tmp_path / "inputs")
    assert len(runs) == 4
    for run in runs:
        out = tmp_path / run.name
        assert cli.main(run.argv + ["--out", str(out)]) == cli.EXIT_OK
        assert bench.checks.run_check(run.check, out) == [], run.name


_REDUCIBLE = {"Q": [[0.0, 0.0], [1.0, -1.0]]}


def test_analyze_refuses_a_reducible_generator_before_the_diagnostics(
        tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("diagnostics ran on a reducible chain")

    monkeypatch.setattr(structure, "diagnostics", refuse)
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(_REDUCIBLE))
    out = tmp_path / "out"
    assert cli.main(["analyze", "--generator", str(gen),
                     "--out", str(out)]) == cli.EXIT_INPUT
    assert "not strongly connected" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_refuses_a_reducible_generator_before_any_flow_or_output(
        tmp_path, capsys, one_process):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(_REDUCIBLE))
    out = tmp_path / "out"
    argv = ["evolve", "--generator", str(gen), "--rho0", "0.5,0.5",
            "--T", "0.1", "--dt", "0.01", "--out", str(out), "--structure"]
    assert cli.main(argv + ["linear,ldp"]) == cli.EXIT_INPUT
    assert "not strongly connected" in capsys.readouterr().err
    assert not out.exists()
    # The linear flow needs no pi.
    assert cli.main(argv + ["linear"]) == cli.EXIT_OK


@pytest.mark.parametrize("N", [51, 201])
def test_analyze_stiff_ou_chain_is_a_gradient_system(tmp_path, N):
    from ldgrad import diffusion
    g = diffusion.discretize_generator(
        diffusion.make_grid(-4.0, 4.0, N, "quadratic"))
    gen = tmp_path / "gen.json"
    chains.save_generator(g, gen)
    out = tmp_path / "out"
    assert cli.main(["analyze", "--generator", str(gen), "--samples", "20",
                     "--seed", "0", "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "diagnostics.json").read_text())
    assert report["verdict"] == "gradient system (detailed balance)"
    assert report["extras"]["conjugate_route"] == "tree"
    assert report["decomposition_residual_max"] <= 1e-9
    # Under detailed balance V_L = (1/2) D E_pi and L(s) - L(-s) = 2 <V_L, s>
    # hold exactly on the chain, not only in a limit.
    assert report["time_symmetry_defect_max"] <= 1e-9
    assert report["extras"]["critical_covector_gap_max"] <= 1e-9
    # Every defect is rounding noise, so no sample is a worst case.
    assert report["worst_cases"] == {}
    # Both structures drive the chain's own flow.
    assert all(rep["reproduces_drift"]
               for rep in report["family_entropy_scales"].values())


def _rerun_outputs(tmp_path, argv):
    """Run `argv` twice into two directories; return both {name: bytes}
    maps without manifest.json, the one file that may differ."""
    runs = []
    for k in range(2):
        out = tmp_path / ("out%d" % k)
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
        runs.append({p.name: p.read_bytes() for p in out.iterdir()
                     if p.name != "manifest.json"})
    return runs


def _rerun_argv(tmp_path, command):
    gen = tmp_path / "gen.json"
    chains.save_generator(chains.random_reversible(4, 2), gen)
    if command == "analyze":
        return ["analyze", "--generator", str(gen), "--samples", "3",
                "--seed", "5"], {"diagnostics.json"}
    if command == "evolve":
        return ["evolve", "--generator", str(gen), "--rho0", "0.4,0.3,0.2,0.1",
                "--structure", "linear,ldp", "--T", "0.2", "--dt", "0.01"], {
                    "trajectory_linear.csv", "trajectory_ldp.csv",
                    "evolve_report.json"}
    cfg = tmp_path / "diffusion.json"
    cfg.write_text(json.dumps({"a": -2.0, "b": 2.0, "N": 11,
                               "potential": "quadratic", "seed": 4,
                               "decomposition_samples": 3}))
    return ["diffusion", "--config", str(cfg), "--T", "0.1", "--dt", "0.01"], {
        "profiles.csv", "entropy.csv", "diffusion_report.json"}


@pytest.mark.parametrize("command", ["analyze", "evolve", "diffusion"])
def test_rerun_is_byte_identical(tmp_path, command):
    argv, names = _rerun_argv(tmp_path, command)
    first, second = _rerun_outputs(tmp_path, argv)
    assert set(first) == names
    assert first == second


# Runs in a fresh interpreter: the test process itself imports scipy for
# its oracles.
_IMPORT_GUARD = r"""
import json, os, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

from ldgrad import cli
after_import = scipy_modules()
d = sys.argv[1]
gen = os.path.join(d, "gen.json")
with open(gen, "w") as fh:
    json.dump({"Q": [[-1.0, 1.0], [1.0, -1.0]]}, fh)
sim = os.path.join(d, "sim.json")
with open(sim, "w") as fh:
    json.dump({"generator": gen, "T": 0.5, "grid_dt": 0.05,
               "target": {"type": "constant", "rho": [0.6, 0.4]},
               "tube_radius": 0.1, "n_list": [10], "replicas": 3,
               "seed": 1}, fh)
dif = os.path.join(d, "dif.json")
with open(dif, "w") as fh:
    json.dump({"a": -2.0, "b": 2.0, "N": 11, "potential": "quadratic",
               "decomposition_samples": 2}, fh)
runs = [["analyze", "--generator", gen, "--samples", "1"],
        ["evolve", "--generator", gen, "--rho0", "0.7,0.3", "--T", "0.1",
         "--dt", "0.01", "--structure", "linear,ldp"],
        ["simulate", "--config", sim],
        ["diffusion", "--config", dif, "--T", "0.1", "--dt", "0.01"]]
codes = [cli.main(argv + ["--out", os.path.join(d, argv[0])])
         for argv in runs]
print(json.dumps({"codes": codes, "after_import": after_import,
                  "after_commands": scipy_modules()}))
"""


def _fresh_interpreter(script, tmp_path):
    """Run `script` with argv[1] = tmp_path in a new interpreter that
    imports this checkout's ldgrad; returns its last output line as JSON."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_commands_load_no_scipy(tmp_path):
    result = _fresh_interpreter(_IMPORT_GUARD, tmp_path)
    assert result == {"codes": [cli.EXIT_OK] * 4, "after_import": [],
                      "after_commands": []}


# The one-way chain 1 -> 2 -> 3 is defective: Q^T has no eigenbasis.
_SCIPY_BLOCKED = r"""
import json, os, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
import numpy as np
from ldgrad import cli, evolve, markov
Q = [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]]
t = np.linspace(0.0, 10.0, 101)
states = evolve.exact_linear_solution(
    [1.0, 0.0, 0.0], markov.validate_generator(Q), t).states
erlang = np.stack([np.exp(-t), t * np.exp(-t), 1.0 - (1.0 + t) * np.exp(-t)],
                  axis=1)
d = sys.argv[1]
gen = os.path.join(d, "gen.json")
with open(gen, "w") as fh:
    json.dump({"Q": Q}, fh)
sim = os.path.join(d, "sim.json")
with open(sim, "w") as fh:
    json.dump({"generator": gen, "T": 0.5, "grid_dt": 0.05,
               "target": {"type": "linear_solution", "rho0": [0.5, 0.3, 0.2]},
               "tube_radius": 0.1, "n_list": [10], "replicas": 3,
               "seed": 1}, fh)
code = cli.main(["simulate", "--config", sim, "--out", os.path.join(d, "sim")])
print(json.dumps({"erlang_gap": float(np.abs(states - erlang).max()),
                  "code": code}))
"""


def test_defective_generator_needs_no_scipy(tmp_path):
    result = _fresh_interpreter(_SCIPY_BLOCKED, tmp_path)
    assert result["code"] == cli.EXIT_OK
    assert result["erlang_gap"] <= 1e-13


def test_package_source_imports_no_scipy():
    # A lazy import in a cold branch escapes the fresh-interpreter guards.
    src = os.path.dirname(os.path.abspath(cli.__file__))
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mods = [node.module]
            else:
                continue
            found += ["%s:%d" % (name, node.lineno) for m in mods
                      if m.split(".")[0] == "scipy"]
    assert found == []


def _package_trees():
    """{module name: parsed source} of every module of the package."""
    src = os.path.dirname(os.path.abspath(cli.__file__))
    trees = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                trees[name[:-3]] = ast.parse(fh.read(), filename=name)
    return trees


def test_every_public_name_is_reached_from_package_code():
    # A public top-level function or class, or a public method, that no
    # Name or Attribute in the package refers to is reached only by tests.
    trees = _package_trees()
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unreached = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            named = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                named += [("%s.%s" % (node.name, m.name), m)
                          for m in node.body if isinstance(m, defs)]
            unreached |= {"%s.%s" % (module, full) for full, d in named
                          if not d.name.startswith("_") and d.name not in used}
    assert unreached == set()


# Defaulted parameters that no package call sets, kept on purpose.
_KEPT_UNSET = {
    # The console script calls main() with no arguments; the tests pass argv.
    "cli.main(argv)",
    # The tests lower it to make Newton raise NoConvergence.
    "convex.conjugate(max_iter)",
}


def _functions(body, prefix, in_class):
    """(qualified name, def, whether a bound first argument precedes the
    call's arguments) of every function and method under `body`."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            yield prefix + node.name, node, in_class and not static
            yield from _functions(node.body, prefix + node.name + ".", False)
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body, prefix + node.name + ".", True)


def test_every_defaulted_parameter_is_set_by_package_code():
    # A defaulted parameter that no call in the package sets, by keyword or
    # by position, is a knob only tests turn.  A call is matched by the name
    # it calls (a constructor call by its class's name, for __init__), so
    # functions of one name share their callers.
    trees = _package_trees()
    functions = []  # (key, called name, positional, keyword-only, defaulted)
    for module, tree in trees.items():
        for qual, node, bound in _functions(tree.body, "", False):
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args]
            kwonly = [p.arg for p in a.kwonlyargs]
            defaulted = params[len(params) - len(a.defaults):] + [
                p for p, d in zip(kwonly, a.kw_defaults) if d is not None]
            parts = qual.split(".")
            name = parts[-2] if parts[-1] == "__init__" else parts[-1]
            functions.append(("%s.%s" % (module, qual), name, params[bound:],
                              kwonly, defaulted))
    calls = [node for tree in trees.values()
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unset = set()
    for key, name, positional, kwonly, defaulted in functions:
        got = set()
        for call in calls:
            f = call.func
            if name not in (getattr(f, "id", None), getattr(f, "attr", None)):
                continue
            starred = any(isinstance(x, ast.Starred) for x in call.args)
            got.update(positional if starred
                       else positional[:len(call.args)])
            for kw in call.keywords:
                got.update(positional + kwonly if kw.arg is None
                           else [kw.arg])
        unset |= {"%s(%s)" % (key, p) for p in defaulted if p not in got}
    assert unset == _KEPT_UNSET


_POLYNOMIAL_GUARD = r"""
import json, os, sys
from ldgrad import cli
d = sys.argv[1]
gen = os.path.join(d, "gen.json")
with open(gen, "w") as fh:
    json.dump({"Q": [[-1.0, 1.0], [1.0, -1.0]]}, fh)
dif = os.path.join(d, "dif.json")
with open(dif, "w") as fh:
    json.dump({"a": -2.0, "b": 2.0, "N": 11, "potential": "quadratic",
               "decomposition_samples": 2}, fh)
runs = [["analyze", "--generator", gen, "--samples", "1"],
        ["evolve", "--generator", gen, "--rho0", "0.7,0.3", "--T", "0.1",
         "--dt", "0.01", "--structure", "linear,ldp"],
        ["diffusion", "--config", dif, "--T", "0.1", "--dt", "0.01"]]
codes = [cli.main(argv + ["--out", os.path.join(d, argv[0])])
         for argv in runs]
print(json.dumps({"codes": codes,
                  "loaded": "numpy.polynomial" in sys.modules}))
"""


def test_commands_without_quadrature_skip_the_legendre_rule(tmp_path):
    # The 16-node rule of path_pairing_functional is built on first use.
    result = _fresh_interpreter(_POLYNOMIAL_GUARD, tmp_path)
    assert result == {"codes": [cli.EXIT_OK] * 3, "loaded": False}
