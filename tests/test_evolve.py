import numpy as np
import pytest

from conftest import random_interior
from ldgrad import chains, evolve, markov, structure
from ldgrad.errors import BoundaryPoint, GridMismatch, NotGradientSystem
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
    g = chains.random_reversible(4, 3)
    gs = structure.build_structure(g, Family.QUADRATIC_FAMILY)
    rho0 = np.array([0.4, 0.3, 0.2, 0.1])
    a = evolve.integrate_linear(rho0, g, 5.0, 1e-3)
    b = evolve.integrate_gradient_flow(rho0, gs, 5.0, 1e-3)
    assert evolve.compare_trajectories(a, b)["sup_norm_gap"] <= 1e-6


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
        _, DS = gs.entropy_gradient(rho)
        rhs = -(structure.psi(gs, rho, sdot, check=False)
                + structure.psi_star(gs, rho, -DS))
        assert abs(dS - rhs) <= 1e-4


def test_fourth_order_convergence(two_state):
    # Error against the eigendecomposition reference drops ~16x per halving.
    rho0 = np.array([0.95, 0.05])
    errs = []
    for dt in (4e-3, 2e-3):
        traj = evolve.integrate_linear(rho0, two_state, 2.0, dt)
        ref = evolve.exact_linear_solution(rho0, two_state, traj.times)
        errs.append(np.abs(traj.states - ref.states).max())
    assert errs[0] / errs[1] >= 8.0


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
    evolve.trajectory_to_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,rho_1,rho_2,entropy"
    assert len(lines) == traj.times.size + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and abs(float(first[1]) - 0.6) < 1e-15


@pytest.mark.parametrize("q, reason", [
    # State 1 is transient: the invariant measure vanishes there.
    ([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 1.0, -1.0]], "non-positive"),
    # States 1 and 3 are absorbing: two invariant measures.
    ([[0.0, 0.0, 0.0], [1.0, -2.0, 1.0], [0.0, 0.0, 0.0]], "null space"),
])
def test_linear_on_reducible_chain_records_missing_entropy(q, reason):
    g = markov.validate_generator(q)
    traj = evolve.integrate_linear(np.array([0.2, 0.5, 0.3]), g, 1.0, 1e-2)
    assert traj.entropy_values is None
    assert reason in traj.meta["entropy_unavailable"]
    assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-12


def test_trajectory_csv_failed_write_keeps_earlier_file(tmp_path, two_state):
    path = str(tmp_path / "traj.csv")
    good = evolve.integrate_linear(np.array([0.9, 0.1]), two_state, 0.1, 1e-2)
    evolve.trajectory_to_csv(good, path)
    before = (tmp_path / "traj.csv").read_bytes()
    assert before.endswith(b"\r\n")
    # The last row's entropy cannot be converted to float.
    bad = evolve.Trajectory(times=good.times, states=good.states,
                            entropy_values=np.array(
                                [0.0] * (good.times.size - 1) + [None]))
    with pytest.raises(TypeError):
        evolve.trajectory_to_csv(bad, path)
    assert (tmp_path / "traj.csv").read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["traj.csv"]
