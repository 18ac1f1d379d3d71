import numpy as np
import pytest

import chains
from conftest import (cosh_conjugate, finite_diff_gradient,
                      finite_diff_hessian, grid_search_conjugate_2state,
                      two_state_cost_closed_form)
from ldgrad import convex, markov
from ldgrad.errors import InvalidInput, NoConvergence, UnboundedConjugate


def _quadratic():
    """f(xi) = |xi|^2 / 2 with its gradient and Hessian, as arguments of
    convex.conjugate."""
    return (lambda xi: 0.5 * xi @ xi,
            {"grad": lambda xi: xi, "hess": lambda xi: np.eye(xi.size)})


def _of_difference(phi, dphi, ddphi):
    """f(xi) = phi(xi_0 - xi_1) on two states with its gradient and
    Hessian, as arguments of convex.conjugate."""
    e = np.array([1.0, -1.0])
    return (lambda xi: phi(xi[0] - xi[1]),
            {"grad": lambda xi: dphi(xi[0] - xi[1]) * e,
             "hess": lambda xi: ddphi(xi[0] - xi[1]) * np.outer(e, e)})


def _cosh_difference():
    return _of_difference(lambda u: np.cosh(u) - 1.0, np.sinh, np.cosh)


def test_project_zero_sum_examples():
    assert np.allclose(convex.project_zero_sum([1, 1, 1]), [0, 0, 0])
    assert np.allclose(convex.project_zero_sum([2, 0]), [1, -1])
    assert np.allclose(convex.project_zero_sum([3, 0, 0]), [2, -1, -1])


def test_project_zero_sum_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        convex.project_zero_sum([np.inf, 0.0])


def test_finite_diff_gradient_quadratic_and_linear():
    g = finite_diff_gradient(lambda x: x @ x, np.array([1.0, 2.0]), 1e-5)
    assert np.abs(g - [2.0, 4.0]).max() <= 1e-8
    g = finite_diff_gradient(lambda x: x.sum(), np.array([3.0, -1.0, 0.5]),
                             1e-6)
    assert np.abs(g - 1.0).max() <= 1e-9


def test_finite_diff_gradient_entropy():
    pi = np.array([0.5, 0.5])
    f = lambda r: float(np.sum(r * np.log(r / pi)))
    g = finite_diff_gradient(f, np.array([0.3, 0.7]), 1e-6)
    exact = np.log(np.array([0.6, 1.4])) + 1.0
    assert np.abs(g - exact).max() <= 1e-6


def test_finite_diff_gradient_rejects_bad_eval():
    with np.errstate(invalid="ignore"), pytest.raises(InvalidInput):
        finite_diff_gradient(lambda x: np.log(x[0]), np.array([1e-12, 1.0]),
                             1e-6)


def test_conjugate_self_dual_quadratic():
    f, derivs = _quadratic()
    res = convex.conjugate(f, np.array([1.0, -1.0]), **derivs)
    assert res.converged
    assert abs(res.value - 1.0) <= 1e-10
    assert np.abs(res.argmax - [1.0, -1.0]).max() <= 1e-8


def test_conjugate_hamiltonian_at_stationarity(two_state):
    rho = np.array([0.5, 0.5])
    H = markov.hamiltonian_functional(rho, two_state)
    res = convex.conjugate(H, np.zeros(2), grad=H.gradient, hess=H.hessian)
    assert abs(res.value) <= 1e-12
    assert np.abs(res.argmax).max() <= 1e-6


def test_conjugate_cosh_against_grid_oracle():
    f, derivs = _cosh_difference()
    # Slope (1, -1): pairing u * 1 in the difference coordinate.
    oracle, _ = grid_search_conjugate_2state(1.0, lambda u: np.cosh(u) - 1.0)
    res = convex.conjugate(f, np.array([1.0, -1.0]), **derivs)
    assert abs(res.value - oracle) <= 1e-7
    assert abs(res.value - (np.arcsinh(1.0) - np.sqrt(2.0) + 1.0)) <= 1e-10
    # Slope (1/2, -1/2): same oracle, half pairing.
    oracle2, _ = grid_search_conjugate_2state(0.5, lambda u: np.cosh(u) - 1.0)
    res2 = convex.conjugate(f, np.array([0.5, -0.5]), **derivs)
    assert abs(res2.value - oracle2) <= 1e-7
    assert abs(res2.value - (cosh_conjugate(0.5) + 1.0)) <= 1e-10


def test_conjugate_fenchel_inequality():
    rng = np.random.default_rng(3)
    f, derivs = _of_difference(lambda u: np.cosh(u) - 1.0 + 0.25 * u * u,
                               lambda u: np.sinh(u) + 0.5 * u,
                               lambda u: np.cosh(u) + 0.5)
    for _ in range(5):
        s = rng.normal(0, 0.8)
        res = convex.conjugate(f, np.array([s, -s]), tol=1e-10, **derivs)
        for _ in range(100):
            xi = rng.normal(0, 2, 2)
            xi -= xi.mean()
            assert res.value + f(xi) >= xi @ np.array([s, -s]) - 1e-12
        # equality at the argmax
        gap = res.value + f(res.argmax) - res.argmax @ np.array([s, -s])
        assert abs(gap) <= 10 * 1e-10


def test_double_conjugation_recovers_two_state_cost(two_state):
    rho = np.array([0.35, 0.65])

    def L_vec(svec):
        return two_state_cost_closed_form(rho, svec[0], 1.0, 1.0)

    def L_grad(svec):
        # Envelope theorem: grad_s L is the maximizing covector; its
        # difference coordinate is log of the positive root.
        s1 = svec[0]
        a, c = rho[0], rho[1]
        d = np.log((-s1 + np.sqrt(s1 * s1 + 4 * a * c)) / (2 * a))
        return np.array([-d / 2, d / 2])

    def inner(xi):
        # H extends constantly along the constants direction, so projecting
        # keeps finite-difference probes of the outer solve legal.
        return convex.conjugate(L_vec, convex.project_zero_sum(xi),
                                tol=1e-11, grad=L_grad,
                                hess=finite_diff_hessian(L_grad))

    rng = np.random.default_rng(8)
    for _ in range(50):
        s1 = rng.normal(0, 0.6)
        outer_grad = lambda xi: inner(xi).argmax
        back = convex.conjugate(lambda xi: inner(xi).value,
                                np.array([s1, -s1]), tol=1e-8,
                                grad=outer_grad,
                                hess=finite_diff_hessian(outer_grad))
        assert abs(back.value - L_vec([s1])) <= 1e-6


def test_conjugate_invariant_under_constant_shift():
    base, derivs = _cosh_difference()
    shift = lambda xi: convex.project_zero_sum(xi + 3.7)
    s = np.array([0.4, -0.4])
    v1 = convex.conjugate(base, s, **derivs).value
    v2 = convex.conjugate(lambda xi: base(shift(xi)), s,
                          grad=lambda xi: derivs["grad"](shift(xi)),
                          hess=lambda xi: derivs["hess"](shift(xi))).value
    assert abs(v1 - v2) <= 1e-10


def test_conjugate_unbounded_detected(two_state, cyclic):
    # Mass must leave an empty state: the cost is +infinity.  With the
    # exact Hessian, which decays like e^{xi_1 - xi_0}, the Newton step is
    # far longer than the box; the line search must still reach the box.
    H = markov.hamiltonian_functional(np.array([1.0, 0.0]), two_state)
    with pytest.raises(UnboundedConjugate):
        convex.conjugate(H, np.array([0.5, -0.5]), grad=H.gradient,
                         hess=H.hessian)
    # The same on a graph with a cycle, by the package's own Newton route.
    with pytest.raises(UnboundedConjugate):
        markov.lagrangian(np.array([0.0, 0.5, 0.5]),
                          np.array([-0.5, 0.25, 0.25]), cyclic)


def test_conjugate_rejects_nonzero_sum_slope():
    f, derivs = _quadratic()
    with pytest.raises(InvalidInput):
        convex.conjugate(f, np.array([1.0, 1.0]), **derivs)


def test_conjugate_budget_exhausted_raises_with_best_iterate():
    g = chains.random_reversible(5, 4)
    rho = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    H = markov.hamiltonian_functional(rho, g)
    s = convex.project_zero_sum(np.array([1.0, -0.5, 0.3, -0.2, -0.6]))
    with pytest.raises(NoConvergence) as err:
        convex.conjugate(H, s, grad=H.gradient, hess=H.hessian, max_iter=1)
    best = err.value.best
    assert best is not None and not best.converged
    assert best.iterations == 1
    assert best.residual_norm > convex.DEFAULT_TOL
    assert abs(best.argmax.sum()) <= 1e-12
    assert best.value == pytest.approx(float(best.argmax @ s) - H(best.argmax))
    # The converged run from the same start goes past the first iterate.
    full = convex.conjugate(H, s, grad=H.gradient, hess=H.hessian)
    assert full.converged and full.value >= best.value
