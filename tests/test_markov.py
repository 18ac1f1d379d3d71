import json

import numpy as np
import pytest

import chains
from conftest import (cosh_conjugate, finite_diff_gradient,
                      grid_search_conjugate_2state, random_interior,
                      random_zero_sum, two_state_cost_closed_form)
from ldgrad import cli, convex, markov
from ldgrad.errors import (BoundaryPoint, DegenerateInvariantMeasure,
                           InfiniteEntropy, InvalidGenerator, InvalidInput,
                           ReducibleChain)


def test_validate_accepts_symmetric_two_state():
    g = markov.validate_generator([[-1, 1], [1, -1]])
    assert g.size == 2 and g.weakly_reversible


def test_validate_accepts_cyclic():
    g = markov.validate_generator([[-1, 1, 0], [0, -1, 1], [1, 0, -1]])
    assert not g.weakly_reversible
    assert np.allclose(g.q.sum(axis=1), 0.0)


def test_validate_rejects_negative_offdiagonal():
    with pytest.raises(InvalidGenerator):
        markov.validate_generator([[-1, 2], [-1, 1]])


def test_validate_rejects_bad_row_sum():
    with pytest.raises(InvalidGenerator):
        markov.validate_generator([[-1, 1.1], [1, -1]])


def test_validate_repairs_tiny_row_sum():
    g = markov.validate_generator([[-1 + 1e-12, 1], [1, -1]])
    assert g.q.sum(axis=1).max() == 0.0


def test_generator_file_roundtrip(tmp_path, two_state):
    path = tmp_path / "gen.json"
    chains.save_generator(two_state, path)
    assert json.loads(path.read_text())["labels"] == ["1", "2"]
    g = cli.load_generator(path)
    assert np.array_equal(g.q, two_state.q)
    path.write_text(json.dumps({"labels": ["a"], "Q": [[0.0]]}))
    with pytest.raises(InvalidGenerator):
        cli.load_generator(path)


def test_balance_two_state(two_state):
    rep = markov.analyze_balance(two_state)
    assert np.allclose(rep.invariant_measure, [0.5, 0.5])
    assert rep.detailed_balance


def test_balance_cyclic(cyclic):
    rep = markov.analyze_balance(cyclic)
    assert np.abs(rep.invariant_measure - 1.0 / 3.0).max() <= 1e-14
    assert not rep.detailed_balance
    assert abs(rep.max_violation - 1.0 / 3.0) <= 1e-12


def test_balance_asymmetric_two_state():
    g = markov.validate_generator([[-2, 2], [1, -1]])
    rep = markov.analyze_balance(g)
    assert np.abs(rep.invariant_measure - [1 / 3, 2 / 3]).max() <= 1e-14
    assert rep.detailed_balance


def test_balance_flag_matches_double_loop():
    for seed in range(6):
        g = (chains.random_reversible(5, seed) if seed % 2 == 0
             else chains.random_irreducible(5, seed))
        rep = markov.analyze_balance(g)
        pi = rep.invariant_measure
        worst = 0.0
        for i in range(5):
            for j in range(5):
                if i != j:
                    worst = max(worst, abs(pi[i] * g.q[i, j] - pi[j] * g.q[j, i]))
        assert abs(worst - rep.max_violation) <= 1e-15
        scale = max(pi[i] * g.q[i, j] for i in range(5) for j in range(5) if i != j)
        assert rep.detailed_balance == (worst <= markov.BALANCE_TOL * scale)


def test_balance_rejects_reducible():
    g = markov.validate_generator([[-1, 1, 0, 0], [1, -1, 0, 0],
                                   [0, 0, -2, 2], [0, 0, 2, -2]])
    with pytest.raises(ReducibleChain):
        markov.analyze_balance(g)


def test_balance_rejects_absorbing():
    # State 1 reaches state 0 in no graph path: reducible, not degenerate.
    g = markov.validate_generator([[-1, 1], [0, 0]])
    with pytest.raises(ReducibleChain):
        markov.analyze_balance(g)


def test_balance_rejects_rounding_level_invariant_mass():
    # Irreducible, but pi_0 = 1e-20 / (1 + 1e-20) is below the 1e-14 guard.
    g = markov.validate_generator([[-1.0, 1.0], [1e-20, -1e-20]])
    with pytest.raises(DegenerateInvariantMeasure):
        markov.analyze_balance(g)


def test_relative_entropy_values():
    pi = np.array([0.5, 0.5])
    assert markov.relative_entropy(pi, pi) == 0.0
    assert abs(markov.relative_entropy(np.array([1.0, 0.0]), pi)
               - np.log(2.0)) <= 1e-15
    val = markov.relative_entropy(np.array([0.25, 0.75]), pi)
    oracle = 0.25 * np.log(0.5) + 0.75 * np.log(1.5)
    assert abs(val - oracle) <= 1e-15
    assert abs(val - 0.13081) <= 1e-5


def test_relative_entropy_infinite():
    with pytest.raises(InfiniteEntropy):
        markov.relative_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("J", [10, 201])
def test_relative_entropy_of_a_stack_equals_each_row(J):
    rng = np.random.default_rng(J)
    pi = rng.dirichlet(np.ones(J))
    # More rows than one chunk holds, so that chunk boundaries are crossed.
    n = 3 * (markov.ENTROPY_CHUNK // J) + 7
    assert n * J > 2 * markov.ENTROPY_CHUNK
    stack = rng.dirichlet(np.ones(J), size=n)
    stack[5, ::3] = 0.0
    stack[n - 2, 0] = 0.0
    stack[n - 1] = pi
    out = markov.relative_entropy(stack, pi)
    assert out.shape == (n,)
    rows = np.array([markov.relative_entropy(row, pi) for row in stack])
    assert np.array_equal(out, rows)
    assert out[n - 1] == 0.0


def test_relative_entropy_of_a_stack_charging_a_null_state_is_infinite():
    pi = np.array([0.5, 0.5, 0.0])
    n = markov.ENTROPY_CHUNK  # the charged row sits in the last chunk
    stack = np.tile([0.5, 0.5, 0.0], (n, 1))
    assert np.array_equal(markov.relative_entropy(stack, pi), np.zeros(n))
    stack[n - 1] = [0.4, 0.4, 0.2]
    with pytest.raises(InfiniteEntropy):
        markov.relative_entropy(stack, pi)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_relative_entropy_refuses_a_non_finite_entry(value):
    # `rho > 0` is False for NaN: unchecked, a NaN entry counts as zero mass.
    pi = np.array([0.5, 0.5])
    with pytest.raises(InvalidInput):
        markov.relative_entropy(np.array([value, 0.5]), pi)
    n = 2 * markov.ENTROPY_CHUNK  # the bad row lies past the first chunk
    stack = np.tile(pi, (n, 1))
    stack[n - 1, 0] = value
    with pytest.raises(InvalidInput):
        markov.relative_entropy(stack, pi)


def test_relative_entropy_gradient():
    pi = np.array([0.5, 0.5])
    raw, zs = markov.relative_entropy_gradient(np.array([0.25, 0.75]), pi)
    assert np.abs(raw - (np.log([0.5, 1.5]) + 1.0)).max() <= 1e-15
    assert abs(zs.sum()) <= 1e-15
    raw, zs = markov.relative_entropy_gradient(pi, pi)
    assert np.abs(zs).max() == 0.0
    with pytest.raises(BoundaryPoint):
        markov.relative_entropy_gradient(np.array([1.0, 0.0]), pi)


def test_hamiltonian_zero_potential(two_state, cyclic):
    rng = np.random.default_rng(0)
    for g in (two_state, cyclic):
        rho = random_interior(rng, g.size)
        assert markov.hamiltonian(rho, np.zeros(g.size), g) == 0.0


def test_hamiltonian_two_state_closed_form(two_state):
    rho = np.array([0.5, 0.5])
    for a in (0.5, -0.3, 1.7):
        xi = np.array([a, -a])
        brute = sum(rho[i] * two_state.q[i, j] * (np.exp(xi[j] - xi[i]) - 1.0)
                    for i in range(2) for j in range(2) if i != j)
        assert abs(markov.hamiltonian(rho, xi, two_state)
                   - (np.cosh(2 * a) - 1.0)) <= 1e-14
        assert abs(markov.hamiltonian(rho, xi, two_state) - brute) <= 1e-14
    assert abs(markov.hamiltonian(rho, np.array([0.5, -0.5]), two_state)
               - 0.54308) <= 1e-5


def test_hamiltonian_cyclic_closed_form(cyclic):
    rng = np.random.default_rng(4)
    for _ in range(10):
        rho = random_interior(rng, 3)
        xi = random_zero_sum(rng, 3)
        closed = (rho[0] * np.exp(xi[1] - xi[0]) + rho[1] * np.exp(xi[2] - xi[1])
                  + rho[2] * np.exp(xi[0] - xi[2]) - 1.0)
        assert abs(markov.hamiltonian(rho, xi, cyclic) - closed) <= 1e-13


def test_hamiltonian_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    for seed in range(5):
        g = (chains.random_reversible(4, seed) if seed % 2 == 0
             else chains.random_irreducible(4, seed))
        for _ in range(10):
            rho = random_interior(rng, 4)
            xi = random_zero_sum(rng, 4)
            grad = markov.hamiltonian_functional(rho, g).gradient(xi)
            fd = finite_diff_gradient(
                lambda z: markov.hamiltonian(rho, z, g), xi, 1e-6)
            assert np.abs(grad - fd).max() <= 1e-6
            assert abs(grad.sum()) <= 1e-12


def test_hamiltonian_hessian_matches_finite_differences(cyclic):
    rng = np.random.default_rng(2)
    rho = random_interior(rng, 3)
    xi = random_zero_sum(rng, 3)
    F = markov.hamiltonian_functional(rho, cyclic)
    H = F.hessian(xi)
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1e-6
        col = (F.gradient(xi + e) - F.gradient(xi - e)) / 2e-6
        assert np.abs(H[:, k] - col).max() <= 1e-6


def test_hamiltonian_convexity(two_state, cyclic):
    rng = np.random.default_rng(7)
    for g in (two_state, cyclic, chains.random_reversible(5, 1)):
        rho = random_interior(rng, g.size)
        for _ in range(100):
            x1 = random_zero_sum(rng, g.size)
            x2 = random_zero_sum(rng, g.size)
            lam = rng.random()
            lhs = markov.hamiltonian(rho, lam * x1 + (1 - lam) * x2, g)
            rhs = (lam * markov.hamiltonian(rho, x1, g)
                   + (1 - lam) * markov.hamiltonian(rho, x2, g))
            assert lhs <= rhs + 1e-12


def test_hamiltonian_overflow_guard(two_state):
    with pytest.raises(markov.ExponentOverflow):
        markov.hamiltonian(np.array([0.5, 0.5]), np.array([400.0, -400.0]),
                           two_state)


def test_lagrangian_zero_on_flow(two_state, cyclic):
    rng = np.random.default_rng(5)
    for g in (two_state, cyclic, chains.random_reversible(6, 3)):
        for _ in range(10):
            rho = random_interior(rng, g.size)
            res = markov.lagrangian(rho, markov.drift(rho, g), g)
            assert 0.0 <= res.value <= 1e-10


def test_lagrangian_two_state_closed_form_and_grid_oracle(two_state):
    rho = np.array([0.5, 0.5])
    s1 = 0.5
    res = markov.lagrangian(rho, np.array([s1, -s1]), two_state)
    closed = two_state_cost_closed_form(rho, s1, 1.0, 1.0)
    grid, _ = grid_search_conjugate_2state(
        -s1, lambda u: rho[0] * np.expm1(u) + rho[1] * np.expm1(-u))
    assert abs(res.value - closed) <= 1e-12
    assert abs(res.value - grid) <= 1e-7
    # 2 sqrt(rho1 rho2) (cosh*(s1 / (2 sqrt(rho1 rho2))) + 1) at rho = pi
    c = 2.0 * np.sqrt(rho[0] * rho[1])
    assert abs(res.value - c * (cosh_conjugate(s1 / c) + 1.0)) <= 1e-12


def test_lagrangian_positive_off_flow():
    rng = np.random.default_rng(11)
    g = chains.random_reversible(4, 2)
    for _ in range(10):
        rho = random_interior(rng, 4)
        delta = random_zero_sum(rng, 4)
        delta *= 0.1 / np.linalg.norm(delta)
        res = markov.lagrangian(rho, markov.drift(rho, g) + delta, g)
        assert res.value >= 1e-6


def test_lagrangian_at_rest_equals_minus_min_hamiltonian(cyclic):
    rng = np.random.default_rng(13)
    rho = random_interior(rng, 3)
    res = markov.lagrangian(rho, np.zeros(3), cyclic)
    # -min H = 1 - 3 (rho1 rho2 rho3)^{1/3} for the uniform cycle
    assert abs(res.value - (1.0 - 3.0 * np.prod(rho) ** (1.0 / 3.0))) <= 1e-10
    assert res.value >= 0.0


def test_drift_examples(two_state, cyclic):
    assert np.allclose(markov.drift(np.array([0.5, 0.5]), two_state), 0.0)
    assert np.allclose(markov.drift(np.array([1.0, 0.0]), two_state), [-1, 1])
    assert np.allclose(markov.drift(np.array([1.0, 0.0, 0.0]), cyclic),
                       [-1, 1, 0])
    pi = markov.analyze_balance(cyclic).invariant_measure
    assert np.abs(markov.drift(pi, cyclic)).max() <= 1e-15


def test_irreducibility_matches_strong_components_oracle():
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
    rng = np.random.default_rng(20)
    verdicts = []
    for _ in range(2000):
        J = int(rng.integers(2, 12))
        adj = rng.random((J, J)) < rng.uniform(0.05, 0.6)
        np.fill_diagonal(adj, False)
        n_comp, _ = connected_components(csr_matrix(adj), directed=True,
                                         connection="strong")
        assert markov._strongly_connected(adj) == (n_comp == 1)
        verdicts.append(n_comp == 1)
    assert 0.2 < np.mean(verdicts) < 0.8  # reducible graphs included


# Exact conjugate on tree generators.

def _random_tree_generator(rng, J, one_way_prob):
    """Random labelled tree on J states: each tree edge carries both
    directions, or with probability one_way_prob a single one."""
    label = rng.permutation(J)
    Q = np.zeros((J, J))
    for v in range(1, J):
        p, c = label[int(rng.integers(0, v))], label[v]
        r = rng.uniform(0.2, 3.0, 2)
        if rng.random() < one_way_prob:
            r[int(rng.integers(0, 2))] = 0.0
        Q[p, c], Q[c, p] = r
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return markov.validate_generator(Q)


def _ou_generator(N):
    from ldgrad import diffusion
    return diffusion.discretize_generator(
        diffusion.make_grid(-4.0, 4.0, N, "quadratic"))


def _newton(H, s, tol=convex.DEFAULT_TOL):
    return convex.conjugate(H, s, tol=tol, grad=H.gradient, hess=H.hessian)


def test_tree_route_is_decided_by_the_graph(two_state, cyclic):
    assert two_state.tree is not None
    assert _ou_generator(21).tree is not None
    assert cyclic.tree is None
    assert chains.random_reversible(6, 3).tree is None
    # Three edges on four states, with a cycle and an isolated state.
    g = markov.validate_generator([[-2, 1, 1, 0], [1, -2, 1, 0],
                                   [1, 1, -2, 0], [0, 0, 0, 0]])
    assert g.tree is None


def _as_given(a, b):
    return a, b


def _geometric_both_ways(a, b):
    w = np.sqrt(a * b)
    return w, w


# The edge potentials, as (phi tuple, rule from a pair's forward and
# backward weights to the weights it is evaluated at, oracle phi).  "cosh"
# is the cosh member, which is the exact structure: expm1 with sqrt(ab) both
# ways, whose pair sum 2 sqrt(ab) (cosh d - 1) the cosh oracle checks.
_PHIS = {"expm1": (markov.EXPM1, _as_given, markov.EXPM1),
         "quadratic": (markov.QUADRATIC, _as_given, markov.QUADRATIC),
         "cosh": (markov.EXPM1, _geometric_both_ways,
                  (lambda z: np.cosh(z) - 1.0, np.sinh, np.cosh))}


def _dense_edge_reference(W, phi, xi):
    """(value, gradient, Hessian) of sum_{i != j} W_ij phi(xi_j - xi_i), one
    term per ordered pair of states, by plain loops."""
    J = xi.size
    value, grad, hess = 0.0, np.zeros(J), np.zeros((J, J))
    for i in range(J):
        for j in range(J):
            if i != j:
                d = xi[j] - xi[i]
                value += W[i, j] * float(phi[0](np.array(d)))
                slope = W[i, j] * float(phi[1](np.array(d)))
                grad[j] += slope
                grad[i] -= slope
                curv = W[i, j] * float(phi[2](np.array(d)))
                hess[i, j] -= curv
                hess[j, i] -= curv
                hess[i, i] += curv
                hess[j, j] += curv
    return value, grad, hess


@pytest.mark.parametrize("name", _PHIS)
@pytest.mark.parametrize("chain", ["cycle", "irreducible-0", "irreducible-1"])
def test_pair_functional_matches_a_dense_loop_with_one_way_edges(chain, name):
    g = (chains.three_state_cycle() if chain == "cycle"
         else chains.random_irreducible(6, int(chain[-1])))
    i, j, fwd, bwd = g.pairs
    assert np.any(np.minimum(fwd, bwd) == 0)  # one-way edges included
    phi, weights, oracle = _PHIS[name]
    rng = np.random.default_rng([80, g.size])
    for _ in range(5):
        rho = random_interior(rng, g.size)
        W = rho[:, None] * g.q
        np.fill_diagonal(W, 0.0)
        W = weights(W, W.T)[0]
        F = markov.EdgeFunctional(g, *weights(rho[i] * fwd, rho[j] * bwd),
                                  phi)
        xi = random_zero_sum(rng, g.size)
        value, grad, hess = _dense_edge_reference(W, oracle, xi)
        assert abs(F(xi) - value) <= 1e-13 * abs(value)
        assert np.abs(F.gradient(xi) - grad).max() <= 1e-13 * np.abs(
            grad).max()
        assert np.abs(F.hessian(xi) - hess).max() <= 1e-13 * np.abs(
            hess).max()


# The expm1 cases keep the plain seed as their id.
@pytest.mark.parametrize("name,seed", [
    pytest.param(name, seed, id=str(seed) if name == "expm1"
                 else "%s-%d" % (name, seed))
    for name in _PHIS for seed in range(8)])
def test_tree_conjugate_matches_newton_on_random_trees(name, seed):
    phi, weights, _ = _PHIS[name]
    # The cosh member needs every pair both ways: a one-way pair would have
    # no weight and cut the tree.
    one_way_prob = 0.3 * (seed % 2) if name != "cosh" else 0.0
    rng = np.random.default_rng([77, seed])
    for J in (2, 3, 7, 20, 50):
        g = _random_tree_generator(rng, J, one_way_prob)
        assert g.tree is not None
        rho = random_interior(rng, J)
        i, j, fwd, bwd = g.pairs
        H = markov.EdgeFunctional(g, *weights(rho[i] * fwd, rho[j] * bwd),
                                  phi)
        # s is the slope at a known maximiser, so every one-way edge
        # carries a flux of its own sign.
        xi = random_zero_sum(rng, J)
        s = H.gradient(xi)
        res = H.conjugate(s)
        # Below the default tol, so that Newton's own error stays under
        # the argmax bound.
        ref = _newton(H, s, tol=1e-12)
        assert res.iterations == 0 and res.converged
        assert abs(res.value - ref.value) <= 1e-12 * abs(ref.value)
        assert np.abs(res.argmax - ref.argmax).max() <= 1e-9
        assert np.abs(res.argmax - xi).max() <= 1e-9
        assert abs(res.argmax.sum()) <= 1e-12
        assert res.residual_norm <= 1e-12


@pytest.mark.parametrize("N", [21, 51])
def test_tree_conjugate_matches_newton_on_ou_samples(N):
    from ldgrad.errors import NoConvergence, UnboundedConjugate
    g = _ou_generator(N)
    compared = 0
    for i in range(20):
        rng = np.random.default_rng([0, i])
        rho = markov.project_interior(rng.dirichlet(np.ones(N)), 1e-6)
        s = convex.project_zero_sum(rng.standard_normal(N))
        H = markov.hamiltonian_functional(rho, g)
        res = markov.lagrangian(rho, s, g)
        try:
            ref = _newton(H, s)
        except (NoConvergence, UnboundedConjugate):
            continue  # Newton's box, not the cost: the tree route is finite
        compared += 1
        assert abs(res.value - ref.value) <= 1e-12 * abs(ref.value)
        assert np.abs(res.argmax - ref.argmax).max() <= 1e-9
    assert compared >= 15


@pytest.mark.parametrize("seed", range(4))
def test_tree_cost_at_rest_is_the_hellinger_sum(seed):
    rng = np.random.default_rng([78, seed])
    for J in (2, 9, 50):
        g = _random_tree_generator(rng, J, one_way_prob=0.0)
        rho = random_interior(rng, J)
        i, k = np.nonzero(np.triu(g.q > 0, k=1))
        a, b = rho[i] * g.q[i, k], rho[k] * g.q[k, i]
        want = float(np.sum((np.sqrt(a) - np.sqrt(b)) ** 2))
        got = markov.lagrangian(rho, np.zeros(J), g).value
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("name", _PHIS)
def test_edge_maximiser_solves_the_edge_equation(name):
    # Contract of the 4th entry of a phi tuple: z with
    # a phi'(z) - b phi'(-z) = j, and a mask of the edges with finite cost;
    # the oracle's phi' checks it.
    phi, weights, oracle = _PHIS[name]
    rng = np.random.default_rng(79)
    a, b = weights(*rng.uniform(0.05, 5.0, (2, 200)))
    j = 3.0 * rng.standard_normal(200)
    z, finite = phi[3](a, b, j)
    assert finite.all()
    assert np.abs(a * oracle[1](z) - b * oracle[1](-z) - j).max() <= (
        1e-12 * max(1.0, np.abs(j).max()))
    # No weight in either direction: finite (z = 0) only at zero flux.
    z, finite = phi[3](np.zeros(3), np.zeros(3), np.array([0.5, -0.5, 0.0]))
    assert finite.tolist() == [False, False, True] and z[2] == 0.0


def test_tree_conjugate_refuses_infinite_costs(two_state):
    from ldgrad.errors import UnboundedConjugate
    one_way = markov.validate_generator([[-1.0, 1.0], [0.0, 0.0]])
    rho = np.array([0.5, 0.5])
    # Right sign: mass moves along the edge 0 -> 1, z = log(j / a).
    res = markov.lagrangian(rho, np.array([-0.3, 0.3]), one_way)
    assert res.argmax[1] - res.argmax[0] == pytest.approx(np.log(0.3 / 0.5))
    cases = [(one_way, rho, [0.3, -0.3]),   # wrong sign
             (one_way, rho, [0.0, 0.0]),    # zero flux: sup not attained
             (two_state, np.array([0.0, 1.0]), [-0.5, 0.5]),  # empty state
             (_ou_generator(4), np.zeros(4), [0.1, -0.1, 0.2, -0.2])]
    for g, r, s in cases:
        with pytest.raises(UnboundedConjugate):
            markov.lagrangian(r, np.array(s), g)
    # No weight and no flux: the edge contributes nothing.
    assert markov.lagrangian(np.zeros(4), np.zeros(4),
                             _ou_generator(4)).value == 0.0


def test_tree_conjugate_guards_the_exponent(two_state):
    H = markov.EdgeFunctional(two_state, np.array([1e-310]), np.array([1.0]))
    with pytest.raises(markov.ExponentOverflow):
        H.conjugate(np.array([-1.0, 1.0]))


def test_tree_solves_make_no_newton_call(monkeypatch):
    from ldgrad import structure

    def refuse(*args, **kwargs):
        raise AssertionError("Newton called on a tree generator")

    monkeypatch.setattr(convex, "conjugate", refuse)
    g = _ou_generator(21)
    d = structure.diagnostics(g, sample_count=3, seed=1)
    assert d["extras"]["conjugate_route"] == "tree"
    assert d["decomposition_residual_max"] <= 1e-12
    rng = np.random.default_rng(3)
    rho = markov.project_interior(rng.dirichlet(np.ones(21)), 1e-6)
    s = convex.project_zero_sum(rng.standard_normal(21))
    for family in structure.Family:
        gs = structure.build_structure(g, family)
        assert structure.psi(gs, rho, s) > 0.0
