import math

import numpy as np
import pytest

import chains
from ldgrad import diffusion, evolve, markov, structure
from ldgrad.errors import BoundaryPoint, InvalidInput


def test_zero_potential_gives_random_walk():
    g = diffusion.make_grid(0, 1, 11, "zero")
    gen = diffusion.discretize_generator(g)
    inv_h2 = 1.0 / g.h ** 2
    assert gen.q[3, 4] == inv_h2 and gen.q[3, 2] == inv_h2
    assert gen.q[0, 1] == inv_h2 and np.count_nonzero(gen.q[0]) == 2
    pi = g.chain.balance.invariant_measure
    assert np.abs(pi - 1.0 / 11).max() <= 1e-15


def test_linear_potential_rates():
    g = diffusion.make_grid(0, 1, 11, "linear:1")
    gen = diffusion.discretize_generator(g)
    assert abs(gen.q[5, 6] - 100.0 * np.exp(-0.05)) <= 1e-10
    assert abs(gen.q[5, 4] - 100.0 * np.exp(0.05)) <= 1e-10
    rep = markov.analyze_balance(gen)
    assert rep.detailed_balance
    pi = np.exp(-g.potential) / np.exp(-g.potential).sum()
    assert np.abs(rep.invariant_measure - pi).max() <= 1e-12


def test_generator_always_reversible():
    for potential in ("zero", "linear:2", "quadratic"):
        g = diffusion.make_grid(-2, 2, 31, potential)
        rep = markov.analyze_balance(diffusion.discretize_generator(g))
        assert rep.detailed_balance


def test_consistency_richardson():
    # (Q phi)_i approximates phi'' - P' phi' at interior nodes, O(h^2).
    errs = []
    for N in (41, 81, 161):
        g = diffusion.make_grid(-3, 3, N, "quadratic")
        gen = diffusion.discretize_generator(g)
        phi = np.sin(g.nodes)
        exact = -np.sin(g.nodes) - g.nodes * np.cos(g.nodes)
        interior = slice(2, N - 2)
        errs.append(np.abs((gen.q @ phi) - exact)[interior].max())
    assert 3.3 <= errs[0] / errs[1] <= 4.7
    assert 3.3 <= errs[1] / errs[2] <= 4.7


def test_grid_validation():
    with pytest.raises(InvalidInput):
        diffusion.make_grid(0, 1, 2, "zero")
    with pytest.raises(InvalidInput):
        diffusion.make_grid(1, 0, 11, "zero")
    with pytest.raises(InvalidInput):
        diffusion.make_grid(0, 1, 11, "nope")
    g = diffusion.make_grid(0, 1, 5, [0.0, 1.0, 0.0, 1.0, 0.0])
    assert g.potential[1] == 1.0


def _functional(rho, g):
    """Psi*(rho, .) = f of the grid chain's quadratic member: the edge
    functional sum_{i<j} L_ij (xi_j - xi_i)^2, L_ij = m(rho_i Q_ij,
    rho_j Q_ji) with m the logarithmic mean, that is (1/2) xi . A xi for
    the Laplacian A with pair weights 2 L_ij."""
    return structure.GradientStructure(
        g.chain, structure.Family.QUADRATIC_FAMILY).functional(rho)


def _h_minus1_norm_sq(rho, s, g):
    """The dual norm ||s||^2 = <xi, s> with A xi = s, as 2 f*(s), and the
    zero-mean xi, the argmax of f*(s)."""
    res = _functional(rho, g).conjugate(s)
    return 2.0 * res.value, res.argmax


def _flux(rho, g):
    """The structure's flow Df(-DS) = -A DS."""
    DS = diffusion._entropy_gradient(rho,
                                     g.chain.balance.invariant_measure)
    return _functional(rho, g).gradient(-DS)


def _cost(rho, s, g):
    """The structure's cost f*(s - flow)."""
    return _functional(rho, g).conjugate(np.asarray(s) - _flux(rho, g)).value


def test_h_minus1_trivial_and_scaling():
    g = diffusion.make_grid(0, 1, 11, "zero")
    rho = np.full(11, 1.0 / 11)
    val, xi = _h_minus1_norm_sq(rho, np.zeros(11), g)
    assert val == 0.0 and np.abs(xi).max() == 0.0 and abs(xi.mean()) == 0.0
    rng = np.random.default_rng(2)
    s = rng.standard_normal(11)
    s -= s.mean()
    v1, _ = _h_minus1_norm_sq(rho, s, g)
    v4, _ = _h_minus1_norm_sq(rho, 2 * s, g)
    assert abs(v4 - 4 * v1) <= 1e-10 * max(1.0, v1)
    assert v1 >= 0.0


def test_h_minus1_uniform_matches_eigen_oracle():
    # Uniform rho on the zero potential is pi, so each pair has a = b =
    # rho_bar / h^2 and the log mean is that common value: A = 2 rho_bar
    # (-Delta_h), and value = (1/(2 rho_bar)) s^T (-Delta_h)^{-1} s,
    # computed independently in the Neumann cosine eigenbasis.
    N = 11
    g = diffusion.make_grid(0, 1, N, "zero")
    rho = np.full(N, 1.0 / N)
    rng = np.random.default_rng(5)
    for _ in range(5):
        s = rng.standard_normal(N)
        s -= s.mean()
        val, xi = _h_minus1_norm_sq(rho, s, g)
        ks = np.arange(1, N)
        lam = (2.0 - 2.0 * np.cos(np.pi * ks / N)) / g.h ** 2
        V = np.cos(np.pi * np.outer(ks, 2 * np.arange(N) + 1) / (2 * N))
        coef = V @ s / (V ** 2).sum(axis=1)
        oracle = 0.5 * N * np.sum(coef ** 2 * (V ** 2).sum(axis=1) / lam)
        assert abs(val - oracle) <= 1e-12 * max(1.0, oracle)
        # returned potential solves the weighted system
        A_xi = _functional(rho, g).gradient(xi)
        assert np.abs(A_xi - s).max() <= 1e-10
        assert abs(xi.mean()) <= 1e-15


def test_h_minus1_rejects_nonzero_sum():
    g = diffusion.make_grid(0, 1, 5, "zero")
    with pytest.raises(InvalidInput):
        _h_minus1_norm_sq(np.full(5, 0.2), np.ones(5), g)


def test_wasserstein_structure_at_pi():
    g = diffusion.make_grid(0, 1, 21, "linear:1")
    pi = g.chain.balance.invariant_measure
    DS = diffusion._entropy_gradient(pi, pi)
    # DS is constant, so its zero-mean part, the flux and the cost of
    # standing still vanish
    assert np.abs(DS - DS.mean()).max() <= 1e-12
    assert np.abs(_flux(pi, g)).max() <= 1e-10
    assert abs(_cost(pi, np.zeros(21), g)) <= 1e-20
    assert abs(0.5 * markov.relative_entropy(pi, pi)) <= 1e-15


def test_exact_decomposition_residual():
    g = diffusion.make_grid(0, 1, 51, "linear:1")
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        rho = 0.5 * rng.dirichlet(np.ones(51)) + 0.5 / 51
        s = rng.standard_normal(51)
        s = 0.01 * (s - s.mean())
        worst = max(worst, diffusion.decomposition_residual(rho, s, g))
    assert worst <= 1e-12


def test_decomposition_residual_relative_on_wild_samples():
    g = diffusion.make_grid(0, 1, 51, "quadratic")
    rng = np.random.default_rng(12)
    for _ in range(20):
        rho = markov.project_interior(rng.dirichlet(np.ones(51)), 1e-4)
        s = rng.standard_normal(51)
        s -= s.mean()
        res = diffusion.decomposition_residual(rho, s, g)
        scale = max(1.0, _cost(rho, s, g))
        assert res <= 1e-9 * scale


def test_decomposition_residual_refuses_an_empty_node():
    # Refused before any numerics: unchecked, the log of the empty nodes
    # warns (an error under this suite's filterwarnings) and the residual
    # fails later as a non-finite slope that names neither rho nor a node.
    g = diffusion.make_grid(0, 1, 5, "zero")
    rho = np.array([0.5, 0.0, 0.0, 0.0, 0.5])
    with pytest.raises(BoundaryPoint, match="node 1 "):
        diffusion.decomposition_residual(rho, np.zeros(5), g)


@pytest.mark.parametrize("N", [51, 201, 801, 1601])
def test_flux_is_the_chain_drift(N):
    # The log-mean pair flux L_ij delta is a - b exactly, so the structure's
    # flow is the forward equation Q^T rho of the grid chain, to rounding:
    # node by node, a few eps of the terms rho_j |Q_ji| (each about 1/h^2
    # times the flux) that cancel there.  The worst ratio measured is 4.3
    # (N = 801).
    g = diffusion.make_grid(-4, 4, N, "quadratic")
    rho = diffusion.gaussian_initial_masses(g, 1.0, 0.8)
    drift = markov.drift(rho, g.chain)
    scale = np.abs(g.chain.q).T @ rho
    assert np.all(np.abs(_flux(rho, g) - drift)
                  <= 16 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("N", [51, 201, 801, 1601])
def test_grid_chain_pi_is_exp_minus_p(N):
    # The grid chain is a path, so pi comes from the rate ratios
    # Q_{i,i+1} / Q_{i+1,i} = e^{P_i - P_{i+1}} in log space: it is e^{-P}
    # to rounding, where a dense solve of Q^T pi = 0 loses digits with N.
    g = diffusion.make_grid(-4, 4, N, "quadratic")
    w = np.exp(-g.potential)
    pi = g.chain.balance.invariant_measure
    assert np.abs(pi / (w / w.sum()) - 1).max() <= 1e-13


def test_ou_relaxation():
    g = diffusion.make_grid(-5, 5, 201, "quadratic")
    gen = diffusion.discretize_generator(g)
    rho0 = diffusion.gaussian_initial_masses(g, 1.0, 0.64)
    traj = evolve.integrate_linear(rho0, gen, 10.0, 1e-3)
    pi = g.chain.balance.invariant_measure
    assert np.abs(traj.states[-1] - pi).max() <= 1e-3
    # intermediate time against the exact OU marginal at grid scale
    mid = traj.states[1000]
    oracle = chains.ou_exact_marginal(g, 1.0, 0.64, 1.0)
    assert np.abs(mid - oracle).max() <= 5e-3
    # entropy decreases along the way
    ent = [markov.relative_entropy(traj.states[k], pi)
           for k in range(0, traj.times.size, 500)]
    assert np.all(np.diff(ent) < 0)


def test_entropy_curve_refinement():
    curves = {}
    for N in (51, 101, 201):
        g = diffusion.make_grid(-5, 5, N, "quadratic")
        gen = diffusion.discretize_generator(g)
        rho0 = diffusion.gaussian_initial_masses(g, 1.0, 0.64)
        traj = evolve.integrate_linear(rho0, gen, 5.0, 1e-3)
        pi = g.chain.balance.invariant_measure
        curves[N] = np.array([markov.relative_entropy(traj.states[k], pi)
                              for k in range(0, traj.times.size, 10)])
    g1 = np.abs(curves[51] - curves[101]).max()
    g2 = np.abs(curves[101] - curves[201]).max()
    assert g1 / g2 >= 3.0  # O(h^2)
    c_fit = g1 / (10.0 / 50) ** 2
    assert np.isfinite(c_fit)


def test_truncation_tail_mass_documented():
    g5 = diffusion.make_grid(-5, 5, 201, "quadratic")
    g6 = diffusion.make_grid(-6, 6, 241, "quadratic")
    assert diffusion.gaussian_tail_mass(g5) > diffusion.TAIL_MASS_TARGET
    assert diffusion.gaussian_tail_mass(g6) < diffusion.TAIL_MASS_TARGET


@pytest.mark.parametrize("a,b", [(-4.0, 4.0), (-2.0, 4.0), (1.0, 3.0)])
def test_gaussian_tail_mass_is_the_mass_outside_the_grid(a, b):
    # P(X < a) + P(X > b) for a standard normal X, by the normal cdf.
    cdf = [0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in (a, b)]
    want = cdf[0] + 1.0 - cdf[1]
    got = diffusion.gaussian_tail_mass(diffusion.make_grid(a, b, 41,
                                                           "quadratic"))
    assert abs(got - want) <= 1e-15
    if a == -b:  # a symmetric grid: both tails, each erfc(b / sqrt 2) / 2
        assert got == math.erfc(b / math.sqrt(2.0))


def test_profiles_rows():
    g = diffusion.make_grid(0, 1, 5, "zero")
    rows = diffusion.profiles_rows(g, np.full(5, 0.2))
    assert len(rows) == 5
    x, dens, pdens, ds = rows[2]
    assert abs(dens - 0.2 / g.h) <= 1e-15
    assert abs(dens - pdens) <= 1e-15


def _pair_weights(rho, g):
    """Oracle weights w_k = 2 L_k of pair {k, k+1}, written out from the
    rates, with the logarithmic mean L_k = (a - b) / log(a / b),
    a = rho_k Q_{k,k+1}, b = rho_{k+1} Q_{k+1,k} (a where a = b)."""
    q = g.chain.q
    k = np.arange(g.N - 1)
    a, b = rho[k] * q[k, k + 1], rho[k + 1] * q[k + 1, k]
    same = a == b
    return 2.0 * np.where(same, a,
                          (a - b) / np.log(np.where(same, 2.0, a / b)))


def _pinned_stiffness(rho, g):
    """Oracle matrix: A on nodes 1..N-1 with node 0 pinned at zero, in the
    upper banded form of `solveh_banded`.  The diagonal is w_{k-1} + w_k
    (w_{N-2} alone at the last node) and the off-diagonal -w_k."""
    w = _pair_weights(rho, g)
    return np.vstack([np.append(0.0, -w[1:]),
                      np.append(w[:-1] + w[1:], w[-1])])


def test_h_minus1_matches_solveh_banded():
    # Oracle: LAPACK's tridiagonal solve of A(rho) xi = s.
    from scipy.linalg import solveh_banded
    N = 201
    g = diffusion.make_grid(0, 1, N, "quadratic")
    rng = np.random.default_rng(9)
    for _ in range(10):
        rho = markov.project_interior(rng.dirichlet(np.ones(N)), 1e-6)
        s = rng.standard_normal(N)
        s -= s.mean()
        ref = np.append(0.0, solveh_banded(_pinned_stiffness(rho, g), s[1:]))
        val, xi = _h_minus1_norm_sq(rho, s, g)
        assert abs(val - ref @ s) <= 1e-12 * (ref @ s)
        assert abs(xi.mean()) <= 1e-15 * np.abs(xi).max()


def test_structure_cost_matches_solveh_banded():
    # Oracle: the flux -A DS from the pair weights written out, and the cost
    # f*(r) = (1/2) <xi, r>, r = s - flux, from LAPACK's solve of A xi = r.
    # The split psi + psi_star(-DS) + <DS, s> that `decomposition_residual`
    # compares the cost with matches the same oracle.
    from scipy.linalg import solveh_banded
    N = 101
    g = diffusion.make_grid(-4, 4, N, "quadratic")
    gs = structure.GradientStructure(g.chain,
                                     structure.Family.QUADRATIC_FAMILY)
    pi = g.chain.balance.invariant_measure
    rng = np.random.default_rng(13)
    for _ in range(10):
        rho = 0.5 * rng.dirichlet(np.ones(N)) + 0.5 / N
        s = rng.standard_normal(N)
        s -= s.mean()
        DS = 0.5 * (np.log(rho / pi) + 1.0)
        d = _pair_weights(rho, g) * np.diff(DS)
        A_DS = np.zeros(N)
        A_DS[:-1] -= d
        A_DS[1:] += d
        r = s + A_DS
        ref = solveh_banded(_pinned_stiffness(rho, g), r[1:])
        want = 0.5 * (ref @ r[1:])
        assert abs(_cost(rho, s, g) - want) <= 1e-12 * want
        F = _functional(rho, g)
        split = structure.psi(gs, rho, s) + F(-DS) + float(DS @ s)
        assert abs(split - want) <= 1e-12 * want


def test_h_minus1_has_no_exponent_guard():
    # Two near-empty middle nodes carry the whole flux of 200: the
    # potential jumps by 2.5e5 across them (their pair weight 2 L is about
    # 2 rho_100 / h^2), far above EXP_GUARD, and phi = z^2/2 has no
    # exponential to overflow.
    from scipy.linalg import solveh_banded
    N = 201
    g = diffusion.make_grid(-5, 5, N, "quadratic")
    rho = np.ones(N)
    rho[100] = rho[101] = 201e-6
    rho /= rho.sum()
    s = 2.0 * np.concatenate([np.ones(100), [0.0], -np.ones(100)])
    val, xi = _h_minus1_norm_sq(rho, s, g)
    assert np.abs(np.diff(xi)).max() > 300 * markov.EXP_GUARD
    banded = _pinned_stiffness(rho, g)
    ref = solveh_banded(banded, s[1:])
    # The rates vary along the potential, so the banded diagonal
    # w_{k-1} + w_k rounds, and at potentials of 2.5e5 that rounding costs
    # LAPACK's solve about 1e-11 of the value.  One step of iterative
    # refinement, with the residual s - A xi taken pair by pair from the
    # weights, restores the oracle to rounding.
    flux = _pair_weights(rho, g) * np.diff(np.append(0.0, ref))
    r = s.copy()
    r[:-1] += flux
    r[1:] -= flux
    ref += solveh_banded(banded, r[1:])
    assert abs(val - ref @ s[1:]) <= 1e-12 * (ref @ s[1:])
