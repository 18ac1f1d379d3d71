import math

import numpy as np
import pytest

import chains
from ldgrad import diffusion, evolve, markov
from ldgrad.errors import DegenerateWeight, InvalidInput


def test_zero_potential_gives_random_walk():
    g = diffusion.make_grid(0, 1, 11, "zero")
    gen = diffusion.discretize_generator(g)
    inv_h2 = 1.0 / g.h ** 2
    assert gen.q[3, 4] == inv_h2 and gen.q[3, 2] == inv_h2
    assert gen.q[0, 1] == inv_h2 and np.count_nonzero(gen.q[0]) == 2
    pi = g.invariant_masses()
    assert np.abs(pi - 1.0 / 11).max() <= 1e-15


def test_linear_potential_rates():
    g = diffusion.make_grid(0, 1, 11, "linear:1")
    gen = diffusion.discretize_generator(g)
    assert abs(gen.q[5, 6] - 100.0 * np.exp(-0.05)) <= 1e-10
    assert abs(gen.q[5, 4] - 100.0 * np.exp(0.05)) <= 1e-10
    rep = markov.analyze_balance(gen)
    assert rep.detailed_balance
    assert np.abs(rep.invariant_measure - g.invariant_masses()).max() <= 1e-12


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


def _h_minus1_norm_sq(rho, s, g):
    """The dual Sobolev norm ||s||^2 = <xi, s> with A(rho) xi = s, as
    2 F*(s) of F = stiffness_functional(rho, g), and the zero-mean xi, the
    argmax of F*(s)."""
    res = diffusion.stiffness_functional(rho, g).conjugate(s)
    return 2.0 * res.value, res.argmax


def _flux(rho, g):
    """The drift-diffusion flux -2 A(rho) DS = -2 DF(DS)."""
    DS = diffusion._entropy_gradient(rho, g.invariant_masses())
    return -2.0 * diffusion.stiffness_functional(rho, g).gradient(DS)


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
    # Uniform rho: value = (1/rho_bar) s^T (-Delta_h)^{-1} s, computed
    # independently in the Neumann cosine eigenbasis.
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
        oracle = N * np.sum(coef ** 2 * (V ** 2).sum(axis=1) / lam)
        assert abs(val - oracle) <= 1e-12 * max(1.0, oracle)
        # returned potential solves the weighted system
        A_xi = diffusion.stiffness_functional(rho, g).gradient(xi)
        assert np.abs(A_xi - s).max() <= 1e-10
        assert abs(xi.mean()) <= 1e-15


def test_h_minus1_degenerate_weight():
    g = diffusion.make_grid(0, 1, 5, "zero")
    rho = np.array([0.5, 0.0, 0.0, 0.0, 0.5])
    s = np.array([1.0, 0.0, 0.0, 0.0, -1.0])
    with pytest.raises(DegenerateWeight):
        _h_minus1_norm_sq(rho, s, g)


def test_h_minus1_rejects_nonzero_sum():
    g = diffusion.make_grid(0, 1, 5, "zero")
    with pytest.raises(InvalidInput):
        _h_minus1_norm_sq(np.full(5, 0.2), np.ones(5), g)


def test_wasserstein_structure_at_pi():
    g = diffusion.make_grid(0, 1, 21, "linear:1")
    pi = g.invariant_masses()
    DS = diffusion._entropy_gradient(pi, pi)
    # DS is constant, so its zero-mean part and the flux vanish
    assert np.abs(DS - DS.mean()).max() <= 1e-12
    assert np.abs(_flux(pi, g)).max() <= 1e-10
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
        scale = max(1.0, diffusion.quadratic_cost(rho, s, g))
        assert res <= 1e-9 * scale


def test_flux_drift_matches_generator_to_h_squared():
    gaps = []
    for N in (51, 101):
        g = diffusion.make_grid(-5, 5, N, "quadratic")
        gen = diffusion.discretize_generator(g)
        rho = diffusion.gaussian_initial_masses(g, 0.5, 0.9)
        drift = markov.drift(rho, gen)
        gaps.append(np.abs(_flux(rho, g) - drift).max()
                    / np.abs(drift).max())
    assert 3.0 <= gaps[0] / gaps[1] <= 5.0  # O(h^2)
    fitted_c = gaps[0] / (10.0 / 50) ** 2
    assert fitted_c < 10.0  # sanity on the reported constant


def test_ou_relaxation():
    g = diffusion.make_grid(-5, 5, 201, "quadratic")
    gen = diffusion.discretize_generator(g)
    rho0 = diffusion.gaussian_initial_masses(g, 1.0, 0.64)
    traj = evolve.integrate_linear(rho0, gen, 10.0, 1e-3)
    pi = g.invariant_masses()
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
        pi = g.invariant_masses()
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


def _pinned_stiffness(rho, g):
    """Oracle matrix: A(rho) on nodes 1..N-1 with node 0 pinned at zero, in
    the upper banded form of `solveh_banded`.  The diagonal is
    m_{i-1/2} + m_{i+1/2} (m_{N-3/2} alone at the last node) and the
    off-diagonal -m_{i+1/2}."""
    m = 0.5 * (rho[:-1] + rho[1:]) / g.h ** 2
    return np.vstack([np.append(0.0, -m[1:]),
                      np.append(m[:-1] + m[1:], m[-1])])


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


def test_quadratic_cost_matches_solveh_banded():
    # Oracle: the flux -2 A(rho) DS from the stiffness written out, and the
    # cost (1/4) <xi, r>, r = s - flux, from LAPACK's solve of A(rho) xi = r.
    from scipy.linalg import solveh_banded
    N = 101
    g = diffusion.make_grid(-4, 4, N, "quadratic")
    pi = g.invariant_masses()
    rng = np.random.default_rng(13)
    for _ in range(10):
        rho = 0.5 * rng.dirichlet(np.ones(N)) + 0.5 / N
        s = rng.standard_normal(N)
        s -= s.mean()
        DS = 0.5 * (np.log(rho / pi) + 1.0)
        d = 0.5 * (rho[:-1] + rho[1:]) / g.h ** 2 * np.diff(DS)
        A_DS = np.zeros(N)
        A_DS[:-1] -= d
        A_DS[1:] += d
        r = s + 2.0 * A_DS
        ref = solveh_banded(_pinned_stiffness(rho, g), r[1:])
        want = 0.25 * (ref @ r[1:])
        got = diffusion.quadratic_cost(rho, s, g)
        assert abs(got - want) <= 1e-12 * want


def test_h_minus1_has_no_exponent_guard():
    # Two near-empty middle nodes carry the whole flux: the potential jumps
    # by 2.5e5 across them, far above EXP_GUARD, and phi = z^2/2 has no
    # exponential to overflow.
    from scipy.linalg import solveh_banded
    N = 201
    g = diffusion.make_grid(-5, 5, N, "quadratic")
    rho = np.ones(N)
    rho[100] = rho[101] = 201e-6
    rho /= rho.sum()
    s = np.concatenate([np.ones(100), [0.0], -np.ones(100)])
    val, xi = _h_minus1_norm_sq(rho, s, g)
    assert np.abs(np.diff(xi)).max() > 300 * markov.EXP_GUARD
    banded = _pinned_stiffness(rho, g)
    ref = solveh_banded(banded, s[1:])
    # The weights differ by a factor of 5,000, which costs LAPACK's solve
    # alone about 1e-12 of the value; one step of iterative refinement
    # with the banded product restores the oracle to rounding.
    upper, diag = banded
    r = s[1:] - diag * ref
    r[:-1] -= upper[1:] * ref[1:]
    r[1:] -= upper[1:] * ref[:-1]
    ref += solveh_banded(banded, r)
    assert abs(val - ref @ s[1:]) <= 1e-12 * (ref @ s[1:])
