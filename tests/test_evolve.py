import csv
import io
from functools import partial

import numpy as np
import pytest

import chains
from conftest import random_interior
from ldgrad import cli, diffusion, evolve, markov, structure
from ldgrad.errors import (BoundaryPoint, GridMismatch, NonFiniteOutput,
                           NotGradientSystem, StepSizeTooLarge)
from ldgrad.structure import Family


def test_linear_stationary_at_pi(two_state):
    traj = evolve.integrate_linear(np.array([0.5, 0.5]), two_state, 1.0, 1e-2)
    assert np.abs(traj.states - 0.5).max() <= 1e-14


def test_linear_two_state_exact(two_state):
    traj = evolve.integrate_linear(np.array([1.0, 0.0]), two_state, 1.0, 1e-3)
    exact = np.array([0.5 + 0.5 * np.exp(-2.0), 0.5 - 0.5 * np.exp(-2.0)])
    assert np.abs(traj.states[-1] - exact).max() <= 1e-10
    assert np.abs(traj.states[-1] - [0.56767, 0.43233]).max() <= 1e-5
    ref = evolve.exact_linear_solution(np.array([1.0, 0.0]), two_state,
                                       traj.times)
    assert np.abs(traj.states - ref.states).max() <= 1e-10


def test_linear_cyclic_converges(cyclic):
    traj = evolve.integrate_linear(np.array([1.0, 0.0, 0.0]), cyclic, 10.0,
                                   1e-3)
    assert np.abs(traj.states[-1] - 1.0 / 3.0).max() <= 1e-6


def test_mass_conservation(two_state):
    traj = evolve.integrate_linear(np.array([0.9, 0.1]), two_state, 5.0, 1e-3)
    assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-10
    assert np.all(np.diff(traj.times) > 0)


def test_overflowing_steps_are_refused():
    # Rates near the top of the float range overflow the RK4 stages to NaN
    # states, which both step checks must refuse.
    g = chains.two_state_symmetric(1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StepSizeTooLarge):
            evolve.integrate_linear([0.9, 0.1], g, 0.01, 1e-3)


def _step_by_step(step, rho0, times):
    """Reference: one `step` and one renormalization per time, each state
    kept as its own row."""
    states = [rho0]
    for _ in range(1, times.size):
        y = step(states[-1])
        states.append(y / y.sum())
    return np.array(states)


def _rk4_stages(field, times):
    """The RK4 step of `field` on the grid `times`, stage by stage."""
    dt = times[1] - times[0]
    return lambda y: evolve._rk4(field, y, dt)


def _propagator(g, times):
    """The RK4 step of y -> Q^T y as one matrix, built from the identity;
    g is a chain's generator or the generator K of the exact structure's
    flow."""
    QT = g.q.T
    return evolve._rk4(lambda Y: QT @ Y, np.eye(g.size), times[1] - times[0])


_J = 10
_ROWS = markov.ENTROPY_CHUNK // _J


def test_rk4_equals_the_textbook_formula_bit_for_bit():
    # The in-place accumulation against the formula written out, on the
    # gradient-flow field of each structure and on the matrix field that
    # builds the propagator; the state passed in is left as it was.
    g = chains.random_reversible(_J, 3)
    QT = g.q.T
    rng = np.random.default_rng(3)
    fields = [(partial(structure.flow_field,
                       structure.build_structure(g, fam)),
               random_interior(rng, _J)) for fam in Family]
    fields.append((lambda Y: QT @ Y, np.eye(_J)))
    for field, y in fields:
        for dt in (1e-3, 7e-3):
            k1 = field(y)
            k2 = field(y + 0.5 * dt * k1)
            k3 = field(y + 0.5 * dt * k2)
            k4 = field(y + dt * k3)
            want = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            y_in = y.copy()
            assert np.array_equal(evolve._rk4(field, y, dt), want)
            assert np.array_equal(y, y_in)


@pytest.mark.parametrize("steps", [1, _ROWS - 1, _ROWS, _ROWS + 1,
                                   3 * _ROWS + 5])
def test_block_march_equals_a_step_by_step_loop(steps):
    g = chains.random_reversible(_J, 6)
    pi = markov.analyze_balance(g).invariant_measure
    rho0 = markov.project_interior(
        np.random.default_rng(6).dirichlet(np.ones(_J)), 1e-2)
    start = markov.as_simplex(rho0, "rho0")  # as both integrators take rho0
    lin = evolve.integrate_linear(rho0, g, steps * 1e-3, 1e-3)
    assert lin.times.size == steps + 1
    R = _propagator(g, lin.times)
    want = _step_by_step(lambda y: R @ y, start, lin.times)
    assert np.array_equal(lin.states, want)
    assert np.array_equal(lin.entropy_values,
                          [markov.relative_entropy(r, pi) for r in want])
    for family in Family:
        gs = structure.build_structure(g, family)
        flow = evolve.integrate_gradient_flow(rho0, gs, steps * 1e-3, 1e-3)
        # The forward equation of the structure's generator (K for the
        # exact structure, Q for the quadratic member): one matvec with its
        # propagator.
        R = _propagator(gs.flow_generator, flow.times)
        want = _step_by_step(lambda y: R @ y, start, flow.times)
        assert np.array_equal(flow.states, want)
        assert np.array_equal(flow.entropy_values,
                              [gs.entropy(r) for r in want])
        if family is Family.QUADRATIC_FAMILY:
            # The flow field m(a, b) delta stepped stage by stage is the
            # same flow to rounding (4.4e-16 here).
            stages = _step_by_step(
                _rk4_stages(partial(structure.flow_field, gs), flow.times),
                start, flow.times)
            assert np.abs(flow.states - stages).max() <= 2e-15
    # Blocks of at most _ROWS rows that tile the times in order.
    starts, sizes = zip(*((k, len(block)) for k, block in
                          evolve.linear_blocks(rho0, g, lin.times)))
    assert max(sizes) <= _ROWS
    assert list(starts) == np.cumsum((0,) + sizes[:-1]).tolist()
    assert sum(sizes) == steps + 1


@pytest.mark.parametrize("make, dt", [
    (lambda: chains.random_reversible(10, 6), 1e-3),
    (chains.three_state_cycle, 1e-3),
    (lambda: diffusion.make_grid(-4.0, 4.0, 201, "quadratic").chain, 5e-4),
], ids=["reversible10", "three_state_cycle", "ou201"])
def test_propagator_step_matches_the_rk4_stages(make, dt):
    # One matvec with the RK4 propagator per step against four field calls
    # per step: the same map, regrouped, over 2000 steps.
    g = make()
    rho0 = markov.as_simplex(markov.project_interior(
        np.random.default_rng(g.size).dirichlet(np.ones(g.size)), 1e-3),
        "rho0")
    lin = evolve.integrate_linear(rho0, g, 2000 * dt, dt)
    assert lin.times.size == 2001
    QT = g.q.T
    want = _step_by_step(_rk4_stages(lambda y: QT @ y, lin.times), rho0,
                         lin.times)
    assert np.abs(lin.states - want).max() <= 1e-14


@pytest.mark.parametrize("make, dt", [
    (lambda: chains.random_reversible(10, 6), 1e-3),
    (lambda: chains.two_state(1.0, 2.0), 1e-3),
    (lambda: diffusion.make_grid(-4.0, 4.0, 201, "quadratic").chain, 5e-4),
], ids=["reversible10", "two_state", "ou201"])
def test_exact_flow_propagator_matches_the_rk4_stages(make, dt):
    # The exact structure steps by one matvec with the propagator of K per
    # step, against four calls of its flow field per step: the same
    # map up to rounding, over 2000 steps.
    g = make()
    gs = structure.build_structure(g)
    rho0 = markov.as_simplex(markov.project_interior(
        np.random.default_rng(g.size).dirichlet(np.ones(g.size)), 1e-3),
        "rho0")
    flow = evolve.integrate_gradient_flow(rho0, gs, 2000 * dt, dt)
    assert flow.times.size == 2001
    want = _step_by_step(
        _rk4_stages(partial(structure.flow_field, gs), flow.times), rho0,
        flow.times)
    assert np.abs(flow.states - want).max() <= 1e-14


def test_gradient_flow_stationary_at_pi():
    g = chains.random_reversible(4, 2)
    gs = structure.build_structure(g)
    traj = evolve.integrate_gradient_flow(gs.pi, gs, 1.0, 1e-2)
    assert np.abs(traj.states - gs.pi).max() <= 1e-12


def test_gradient_flow_matches_linear():
    for seed in (0, 1):
        g = chains.random_reversible(4, seed)
        gs = structure.build_structure(g)
        rho0 = markov.project_interior(
            np.random.default_rng(seed).dirichlet(np.ones(4)), 1e-3)
        a = evolve.integrate_linear(rho0, g, 5.0, 1e-3)
        b = evolve.integrate_gradient_flow(rho0, gs, 5.0, 1e-3)
        gap = evolve.compare_trajectories(a, b)
        assert gap["sup_norm_gap"] <= 1e-6


def test_gradient_flow_quadratic_family_matches_linear():
    # Under detailed balance the quadratic member's flow is rho' = Q^T rho
    # and steps by Q's own propagator: the linear states bit for bit, with
    # S = (1/2) E_pi.
    g = chains.random_reversible(4, 3)
    gs = structure.build_structure(g, Family.QUADRATIC_FAMILY)
    rho0 = np.array([0.4, 0.3, 0.2, 0.1])
    a = evolve.integrate_linear(rho0, g, 5.0, 1e-3)
    b = evolve.integrate_gradient_flow(rho0, gs, 5.0, 1e-3)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(0.5 * a.entropy_values, b.entropy_values)


def test_gradient_flow_entropy_decreases(two_state):
    gs = structure.build_structure(two_state)
    traj = evolve.integrate_gradient_flow(np.array([0.9, 0.1]), gs, 5.0, 1e-3)
    diffs = np.diff(traj.entropy_values)
    assert np.all(diffs <= 1e-8)
    assert traj.entropy_values[-1] <= 1e-4  # relaxes toward 0 at pi


def test_gradient_flow_refuses_cyclic(cyclic):
    gs = structure.build_structure(cyclic, Family.LDP_EXACT)
    with pytest.raises(NotGradientSystem):
        evolve.integrate_gradient_flow(np.full(3, 1 / 3), gs, 1.0, 1e-2)


def test_gradient_flow_boundary_guard(two_state):
    gs = structure.build_structure(two_state)
    with pytest.raises(BoundaryPoint):
        evolve.integrate_gradient_flow(np.array([1.0, 0.0]), gs, 1.0, 1e-2)


def test_entropy_dissipation_identity(two_state):
    # d/dt S = -[psi(rho, rho') + psi*(rho, -DS)] along the flow
    gs = structure.build_structure(two_state)
    traj = evolve.integrate_gradient_flow(np.array([0.8, 0.2]), gs, 1.0, 1e-3)
    for k in (100, 400, 800):
        rho = traj.states[k]
        dS = (traj.entropy_values[k + 1] - traj.entropy_values[k - 1]) / 2e-3
        sdot = structure.flow_field(gs, rho)
        DS = structure.ENTROPY_SCALE * markov.relative_entropy_gradient(
            rho, gs.pi)[1]
        rhs = -(structure.psi(gs, rho, sdot)
                + gs.functional(rho)(-DS))
        assert abs(dS - rhs) <= 1e-4


def test_fourth_order_convergence(two_state):
    # Error against the exact reference drops ~16x per halving.
    rho0 = np.array([0.95, 0.05])
    errs = []
    for dt in (4e-3, 2e-3):
        traj = evolve.integrate_linear(rho0, two_state, 2.0, dt)
        ref = evolve.exact_linear_solution(rho0, two_state, traj.times)
        errs.append(np.abs(traj.states - ref.states).max())
    assert errs[0] / errs[1] >= 8.0


@pytest.mark.parametrize("make", [lambda: chains.random_reversible(10, 4),
                                  lambda: chains.random_irreducible(6, 7),
                                  chains.two_state_symmetric],
                         ids=["reversible10", "irreducible6", "two_state"])
def test_exact_linear_solution_matches_expm(make):
    from scipy.linalg import expm

    g = make()
    rho0 = np.random.default_rng(g.size).dirichlet(np.ones(g.size))
    times = np.linspace(0.0, 8.0, 41)
    traj = evolve.exact_linear_solution(rho0, g, times)
    ref = np.stack([expm(g.q.T * t) @ rho0 for t in times])
    assert np.abs(traj.states - ref).max() <= 1e-13


def test_compare_trajectories_contract(two_state):
    a = evolve.integrate_linear(np.array([0.7, 0.3]), two_state, 1.0, 1e-2)
    assert evolve.compare_trajectories(a, a) == {"sup_norm_gap": 0.0,
                                                 "at_time": 0.0}
    b = evolve.integrate_linear(np.array([0.7, 0.3]), two_state, 1.0, 2e-2)
    with pytest.raises(GridMismatch):
        evolve.compare_trajectories(a, b)


def test_csv_export(tmp_path, two_state):
    traj = evolve.integrate_linear(np.array([0.6, 0.4]), two_state, 0.1, 1e-2)
    path = tmp_path / "traj.csv"
    cli.write_trajectory(str(path), traj)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,rho_1,rho_2,entropy"
    assert len(lines) == traj.times.size + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and abs(float(first[1]) - 0.6) < 1e-15


@pytest.mark.parametrize("q", [
    # State 1 is transient: the invariant measure vanishes there.
    [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 1.0, -1.0]],
    # States 1 and 3 are absorbing: two invariant measures.
    [[0.0, 0.0, 0.0], [1.0, -2.0, 1.0], [0.0, 0.0, 0.0]],
], ids=["transient", "two-absorbing"])
def test_linear_on_reducible_chain_records_missing_entropy(q):
    g = markov.validate_generator(q)
    traj = evolve.integrate_linear(np.array([0.2, 0.5, 0.3]), g, 1.0, 1e-2)
    assert traj.entropy_values is None
    assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-12


def test_trajectory_csv_failed_write_keeps_earlier_file(tmp_path, two_state):
    path = str(tmp_path / "traj.csv")
    good = evolve.integrate_linear(np.array([0.9, 0.1]), two_state, 0.1, 1e-2)
    cli.write_trajectory(path, good)
    before = (tmp_path / "traj.csv").read_bytes()
    assert before.endswith(b"\n") and b"\r" not in before
    # The last row's entropy is not a number.
    bad = evolve.Trajectory(times=good.times, states=good.states,
                            entropy_values=np.array(
                                [0.0] * (good.times.size - 1) + [None]))
    with pytest.raises(TypeError):
        cli.write_trajectory(path, bad)
    assert (tmp_path / "traj.csv").read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["traj.csv"]


def _csv_writer_bytes(traj):
    """The export as `csv.writer` writes it, one row at a time."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator="\n")
    J = traj.states.shape[1]
    entropy = [] if traj.entropy_values is None else ["entropy"]
    w.writerow(["t"] + ["rho_%d" % (j + 1) for j in range(J)] + entropy)
    for k in range(traj.times.size):
        entropy = ([] if traj.entropy_values is None
                   else [repr(float(traj.entropy_values[k]))])
        w.writerow([repr(float(traj.times[k]))]
                   + [repr(float(x)) for x in traj.states[k]] + entropy)
    return buf.getvalue().encode()


_TRANSIENT = [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 1.0, -1.0]]


@pytest.mark.parametrize("q, T", [
    (None, 0.511),  # exactly one block of rows
    (None, 1.3),  # three blocks, the last one partial
    (_TRANSIENT, 1.3),  # no invariant measure, so no entropy column
], ids=["512-rows", "1301-rows", "no-entropy"])
def test_csv_bytes_match_csv_writer(tmp_path, q, T):
    g = (chains.random_reversible(4, 5) if q is None
         else markov.validate_generator(q))
    rho0 = np.array([0.7, 0.1, 0.1, 0.1][:g.size])
    traj = evolve.integrate_linear(rho0 / rho0.sum(), g, T, 1e-3)
    assert (traj.entropy_values is None) == (q is not None)
    path = tmp_path / "traj.csv"
    cli.write_trajectory(str(path), traj)
    assert path.read_bytes() == _csv_writer_bytes(traj)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["times", "states", "entropy_values"])
def test_trajectory_csv_refuses_non_finite_values(tmp_path, two_state, value,
                                                  where):
    path = str(tmp_path / "traj.csv")
    good = evolve.integrate_linear(np.array([0.9, 0.1]), two_state, 0.1, 1e-2)
    cli.write_trajectory(path, good)
    before = (tmp_path / "traj.csv").read_bytes()
    arrays = {k: getattr(good, k).copy()
              for k in ("times", "states", "entropy_values")}
    arrays[where].flat[3] = value
    with pytest.raises(NonFiniteOutput, match="traj.csv"):
        cli.write_trajectory(path, evolve.Trajectory(**arrays))
    assert (tmp_path / "traj.csv").read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["traj.csv"]
