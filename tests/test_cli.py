import ast
import csv
import io
import json
import os
import pickle
import signal
import subprocess
import sys

import numpy as np
import pytest

import chains
from ldgrad import cli, errors, evolve, markov, structure
from ldgrad.errors import LdgradError, NonFiniteOutput


def test_no_cross_check_is_a_runtime_failure(tmp_path, monkeypatch, capsys):
    assert issubclass(structure.NoCrossCheck, LdgradError)
    err = structure.NoCrossCheck(1.0, 2.0)
    assert (err.direct, err.dual) == (1.0, 2.0)

    def disagree(*args, **kwargs):
        raise structure.NoCrossCheck(1.0, 2.0)

    monkeypatch.setattr(structure, "diagnostics", disagree)
    gen = tmp_path / "gen.json"
    markov.save_generator(chains.two_state_symmetric(), gen)
    code = cli.main(["analyze", "--generator", str(gen), "--samples", "1",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_RUNTIME
    assert "psi routes disagree" in capsys.readouterr().err


def test_simulate_ignores_a_legacy_workers_key(tmp_path):
    gen = tmp_path / "gen.json"
    markov.save_generator(chains.two_state_symmetric(), gen)
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
    markov.save_generator(markov.validate_generator(Q), gen)
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
                                       ("n_list", []), ("n_list", [10, 0])])
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
    {"seed": None}, {"n_list": [10.6]}, {"n_list": [True]}, {"n_list": 10},
    {"tube_radius": -0.1}, {"tube_radius": 0.0},
    {"tube_radius": float("inf")}, {"T": float("nan")}, {"T": "1.0"},
    {"grid_dt": float("inf")}, {"grid_dt": False}],
    ids=lambda o: "%s=%r" % next(iter(o.items())))
def test_simulate_rejects_a_bad_config(tmp_path, capsys, override):
    argv = _simulate_config(tmp_path, [[-1.0, 1.0], [1.0, -1.0]],
                            {"type": "constant", "rho": [0.6, 0.4]},
                            **override)
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "input error: config '%s" % next(iter(override)) in (
        capsys.readouterr().err)
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
    {"rho0": {"type": "uniform"}}, {"rho0": {"mean": 1.0, "var": 0.8}},
    {"rho0": [1, 2]}, {"rho0": "pi"}],
    ids=lambda o: "%s=%r" % next(iter(o.items())))
def test_diffusion_rejects_a_bad_config(tmp_path, capsys, override):
    cfg = {"a": -2.0, "b": 2.0, "N": 21, "potential": "quadratic", "seed": 4,
           "decomposition_samples": 3, **override}
    path = tmp_path / "diffusion.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["diffusion", "--config", str(path), "--T", "0.1",
                     "--dt", "0.01", "--out", str(out)]) == cli.EXIT_INPUT
    assert "input error" in capsys.readouterr().err
    assert not (out / "diffusion_report.json").exists()


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
        g, 1.0, 0.8), g.chain, T, dt, with_entropy=False)
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
        diag.integrability_defect = float("nan")
        return diag

    monkeypatch.setattr(structure, "diagnostics", nan_defect)
    gen = tmp_path / "gen.json"
    markov.save_generator(chains.two_state_symmetric(), gen)
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
    markov.save_generator(chains.two_state_symmetric(1e300), gen)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["evolve", "--generator", str(gen), "--rho0",
                         "0.9,0.1", "--T", "0.01", "--dt", "0.001",
                         "--out", str(out)])
    assert code == cli.EXIT_RUNTIME
    assert "runtime failure" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_evolve_ldp_on_a_cycle_is_a_structural_refusal(tmp_path, capsys):
    gen = tmp_path / "gen.json"
    markov.save_generator(chains.three_state_cycle(), gen)
    code = cli.main(["evolve", "--generator", str(gen), "--structure", "ldp",
                     "--T", "0.1", "--dt", "0.01",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_STRUCTURE
    assert "structural refusal" in capsys.readouterr().err


def _evolve_argv(tmp_path, g, tags, *extra):
    gen = tmp_path / "gen.json"
    markov.save_generator(g, gen)
    return ["evolve", "--generator", str(gen), "--structure", tags,
            "--out", str(tmp_path / "out"), *extra]


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
def forked(monkeypatch):
    """The pids that os.fork returns to this process."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("tags", [
    "ldp,linear", "quadratic_family,linear,cosh_family,ldp"])
def test_evolve_workers_write_the_in_process_trajectories(tmp_path, forked,
                                                          tags):
    argv = _evolve_argv(tmp_path, chains.random_reversible(4, 2), tags,
                        "--rho0", "0.4,0.3,0.2,0.1", "--T", "0.2",
                        "--dt", "0.01", "--seed", "3")
    assert cli.main(argv) == cli.EXIT_OK
    tags = tags.split(",")
    assert len(forked) == len(tags) - 1
    _assert_reaped(forked)
    g = markov.load_generator(str(tmp_path / "gen.json"))
    rho0 = markov.as_simplex([0.4, 0.3, 0.2, 0.1])
    out, ref = tmp_path / "out", tmp_path / "ref"
    ref.mkdir()
    trajs = []
    for tag in tags:
        if tag == "linear":
            traj = evolve.integrate_linear(rho0, g, 0.2, 0.01)
        else:
            gs = structure.build_structure(g, structure.Family(tag), seed=3)
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
    assert manifest["processes"] == len(tags)
    assert sorted(manifest["integration_s"]) == sorted(tags)
    assert all(s > 0 for s in manifest["integration_s"].values())


@pytest.mark.parametrize("tags,left", [
    ("linear,ldp", ["trajectory_linear.csv"]), ("ldp,linear", [])])
def test_evolve_refusal_keeps_the_serial_outputs(tmp_path, capsys, forked,
                                                 tags, left):
    # The one-way 3-cycle has no detailed balance: ldp is refused.  Files
    # of the tags before the refused one are written, as one tag after
    # another would leave them.
    argv = _evolve_argv(tmp_path, chains.three_state_cycle(), tags,
                        "--T", "0.1", "--dt", "0.01")
    assert cli.main(argv) == cli.EXIT_STRUCTURE
    _assert_reaped(forked)
    assert "structural refusal" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path / "out")) == left


def test_evolve_worker_lost_without_result_is_a_runtime_failure(
        tmp_path, capsys, monkeypatch, forked):
    # The ldp worker exits as soon as it starts integrating.
    test_pid = os.getpid()

    def exit_in_worker(*args):
        if os.getpid() == test_pid:
            raise AssertionError("ldp was integrated in the test process")
        os._exit(0)

    monkeypatch.setattr(evolve, "integrate_gradient_flow", exit_in_worker)

    def hung(signum, frame):
        raise TimeoutError("evolve waited 60 s for a dead worker")

    argv = _evolve_argv(tmp_path, chains.random_reversible(4, 2),
                        "linear,ldp", "--T", "0.1", "--dt", "0.01")
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        code = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == cli.EXIT_RUNTIME
    assert len(forked) == 1
    _assert_reaped(forked)
    assert "without a result (0 bytes received)" in capsys.readouterr().err
    assert os.listdir(tmp_path / "out") == ["trajectory_linear.csv"]


def test_worker_exception_carries_its_traceback():
    def fail():
        raise structure.NoCrossCheck(1.0, 2.0)

    with pytest.raises(structure.NoCrossCheck) as info:
        cli._Worker(fail).result()
    assert (info.value.direct, info.value.dual) == (1.0, 2.0)
    note, = info.value.__notes__
    assert note.startswith("in worker ")
    assert "in fail\n" in note


_ERROR_ARGS = {errors.NoCrossCheck: (1.0, 2.0),
               errors.NoConvergence: ("no luck", [1.0, 2.0])}


@pytest.mark.parametrize("cls", [
    c for c in vars(errors).values()
    if isinstance(c, type) and issubclass(c, LdgradError)],
    ids=lambda c: c.__name__)
def test_every_error_survives_a_pickle_round_trip(cls):
    # Worker exceptions reach the parent pickled.
    err = cls(*_ERROR_ARGS.get(cls, ("message",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert (str(back), vars(back)) == (str(err), vars(err))


def test_analyze_absorbing_chain_is_an_input_error(tmp_path, capsys):
    gen = tmp_path / "gen.json"
    markov.save_generator(markov.validate_generator([[-1, 1], [0, 0]]), gen)
    code = cli.main(["analyze", "--generator", str(gen), "--samples", "1",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INPUT
    assert "not strongly connected" in capsys.readouterr().err


@pytest.mark.parametrize("N", [51, 201])
def test_analyze_stiff_ou_chain_is_a_gradient_system(tmp_path, N):
    from ldgrad import diffusion
    g = diffusion.discretize_generator(
        diffusion.make_grid(-4.0, 4.0, N, "quadratic"))
    gen = tmp_path / "gen.json"
    markov.save_generator(g, gen)
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
    markov.save_generator(chains.random_reversible(4, 2), gen)
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
        "profiles.csv", "entropy.csv", "plot_diffusion.py",
        "diffusion_report.json"}


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
    env.pop("OUT_DIR", None)
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
