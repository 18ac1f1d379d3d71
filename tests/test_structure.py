import dataclasses
import json

import numpy as np
import pytest

import chains
from conftest import (cosh_conjugate, finite_diff_gradient,
                      grid_search_conjugate_2state, log_mean, random_interior,
                      random_zero_sum)
from ldgrad import convex, diffusion, markov, structure
from ldgrad.errors import (BoundaryPoint, ExponentOverflow,
                           NotGradientSystem, NotWeaklyReversible)
from ldgrad.structure import Family


def test_critical_covector_two_state(two_state):
    rho = np.array([0.25, 0.75])
    V = structure.critical_covector(rho, two_state)
    expected = convex.project_zero_sum(0.5 * np.log(rho / 0.5))
    assert np.abs(V - expected).max() <= 1e-10
    assert np.abs(V - [-0.27465, 0.27465]).max() <= 1e-5
    # the covector zeroes the Hamiltonian gradient
    grad = markov.hamiltonian_functional(rho, two_state).gradient(V)
    assert np.abs(grad).max() <= 1e-10


def test_critical_covector_cyclic_closed_form(cyclic):
    rng = np.random.default_rng(21)
    for _ in range(20):
        rho = random_interior(rng, 3)
        V = structure.critical_covector(rho, cyclic)
        closed = np.array([np.log(rho[0] / rho[2]), np.log(rho[1] / rho[0]),
                           np.log(rho[2] / rho[1])]) / 3.0
        assert np.abs(V - closed).max() <= 1e-9
    pi = np.full(3, 1 / 3)
    assert np.abs(structure.critical_covector(pi, cyclic)).max() <= 1e-10


def test_critical_covector_requires_interior(two_state):
    with pytest.raises(BoundaryPoint):
        structure.critical_covector(np.array([1.0, 0.0]), two_state)


def test_psi_star_zero_at_zero(two_state):
    rng = np.random.default_rng(1)
    rho = random_interior(rng, 2)
    for fam in Family:
        gs = structure.build_structure(two_state, fam)
        assert gs.functional(rho)(np.zeros(2)) == 0.0


def test_psi_star_two_state_closed_form(two_state):
    gs = structure.build_structure(two_state, Family.LDP_EXACT)
    rho = np.array([0.5, 0.5])
    xi = np.array([1.0, -1.0])
    val = gs.functional(rho)(xi)
    # Shifted-Hamiltonian oracle: H(rho, V + xi) - H(rho, V)
    V = structure.critical_covector(rho, two_state)
    oracle = structure._shifted_hamiltonian(rho, V, two_state)(xi)
    assert abs(val - oracle) <= 1e-12
    # 2-state closed form 2 sqrt(rho1 rho2 Q12 Q21) (cosh(2 xi_1) - 1)
    assert abs(val - 2.0 * 0.5 * (np.cosh(2.0) - 1.0)) <= 1e-12
    assert abs(val - (np.cosh(2.0) - 1.0)) <= 1e-12


def test_psi_star_quadratic_family_log_mean_oracle(two_state):
    gs = structure.build_structure(two_state, Family.QUADRATIC_FAMILY)
    rho = np.array([0.25, 0.75])
    xi = np.array([1.0, -1.0])
    val = gs.functional(rho)(xi)
    # independent route: L_12 = L_21 = pi Q * logmean(r), psi = z^2/2 at z = -+2
    pi = 0.5
    L = pi * 1.0 * log_mean(0.5, 1.5)
    oracle = 2.0 * L * 0.5 * 4.0
    assert abs(val - oracle) <= 1e-14
    assert abs(val - 2.0 / np.log(3.0)) <= 1e-14
    assert abs(val - 1.82048) <= 1e-5


def test_psi_star_family_requires_weak_reversibility(cyclic):
    with pytest.raises(NotWeaklyReversible):
        structure.build_structure(cyclic, Family.QUADRATIC_FAMILY)


def test_psi_values_two_state(two_state):
    gs = structure.build_structure(two_state, Family.LDP_EXACT)
    rho = np.array([0.5, 0.5])
    # s = 0 gives 0 for every structure
    for fam in Family:
        gsf = structure.build_structure(two_state, fam)
        assert abs(structure.psi(gsf, rho, np.zeros(2))) <= 1e-12
    s = np.array([0.5, -0.5])
    val = structure.psi(gs, rho, s)
    # at rho = pi the potential equals the full cost; dense-grid oracle
    oracle, _ = grid_search_conjugate_2state(
        -s[0], lambda u: rho[0] * np.expm1(u) + rho[1] * np.expm1(-u))
    assert abs(val - oracle) <= 1e-7
    c = 2.0 * np.sqrt(rho[0] * rho[1])
    assert abs(val - c * (cosh_conjugate(s[0] / c) + 1.0)) <= 1e-10


def test_psi_nonnegative_on_reversible():
    g = chains.random_reversible(4, 5)
    gs = structure.build_structure(g, Family.LDP_EXACT)
    rng = np.random.default_rng(6)
    for _ in range(100):
        rho = random_interior(rng, 4)
        s = random_zero_sum(rng, 4)
        assert structure.psi(gs, rho, s) >= -1e-9


def test_psi_cross_check_runs(two_state, cyclic):
    # Psi, the conjugate of the shifted Hamiltonian, against the L-route
    # L(rho, s) + H(rho, V_L) - <V_L, s>, also without detailed balance.
    rng = np.random.default_rng(3)
    for g in (two_state, cyclic, chains.random_reversible(6, 1)):
        gs = structure.build_structure(g, Family.LDP_EXACT)
        for _ in range(5):
            rho = random_interior(rng, g.size)
            s = random_zero_sum(rng, g.size)
            V = structure.critical_covector(rho, g)
            via_l = (markov.lagrangian(rho, s, g).value
                     + markov.hamiltonian(rho, V, g) - float(V @ s))
            assert abs(structure.psi(gs, rho, s) - via_l) <= 1e-12


def test_decompose_zero_cost_on_flow():
    g = chains.random_reversible(5, 9)
    rng = np.random.default_rng(4)
    rho = random_interior(rng, 5)
    out = structure.decompose(g, rho, markov.drift(rho, g))
    assert abs(out["lagrangian"]) <= 1e-10
    assert abs(out["psi"] + out["psi_star"] + out["pairing"]) <= 1e-7
    assert out["system_label"] == "gradient system"


def test_decompose_unconditional_residual(cyclic):
    rng = np.random.default_rng(14)
    for _ in range(25):
        rho = random_interior(rng, 3)
        s = random_zero_sum(rng, 3)
        out = structure.decompose(cyclic, rho, s)
        assert abs(out["residual"]) <= 1e-7
        assert out["system_label"] == "covector system"
    for seed in range(4):
        g = (chains.random_reversible(6, seed) if seed % 2 == 0
             else chains.random_irreducible(6, seed))
        for _ in range(10):
            rho = random_interior(rng, 6)
            s = random_zero_sum(rng, 6)
            assert abs(structure.decompose(g, rho, s)["residual"]) <= 1e-7


def test_decompose_two_state_grid_oracle(two_state):
    rho = np.array([0.25, 0.75])
    s = np.array([0.1, -0.1])
    out = structure.decompose(two_state, rho, s)
    assert abs(out["residual"]) <= 1e-7
    lag_oracle, _ = grid_search_conjugate_2state(
        -s[0], lambda u: rho[0] * np.expm1(u) + rho[1] * np.expm1(-u))
    assert abs(out["lagrangian"] - lag_oracle) <= 1e-7
    V = structure.critical_covector(rho, two_state)
    d = V[1] - V[0]
    psi_oracle, _ = grid_search_conjugate_2state(
        -s[0],
        lambda u: (rho[0] * np.exp(d) * np.expm1(u)
                   + rho[1] * np.exp(-d) * np.expm1(-u)))
    assert abs(out["psi"] - psi_oracle) <= 1e-7


def test_nonnegativity_dichotomy():
    g = chains.random_reversible(4, 13)
    rng = np.random.default_rng(17)
    rho = random_interior(rng, 4)
    V = structure.critical_covector(rho, g)
    # Psi*_{L,V}(rho, xi) = H(rho, V + xi) - H(rho, V)
    shifted = structure._shifted_hamiltonian(rho, V, g)
    vals = []
    for _ in range(1000):
        xi = random_zero_sum(rng, 4)
        vals.append(shifted(xi))
    assert min(vals) >= -1e-9
    assert shifted(np.zeros(4)) == 0.0
    # a perturbed covector breaks non-negativity somewhere
    delta = random_zero_sum(rng, 4)
    delta *= 0.1 / np.linalg.norm(delta)
    Vp = V + delta
    shifted = structure._shifted_hamiltonian(rho, Vp, g)
    perturbed_min = min(shifted(random_zero_sum(rng, 4)) for _ in range(1000))
    assert perturbed_min < -1e-4


def test_diagnostics_two_state(two_state):
    d = structure.diagnostics(two_state, sample_count=10, seed=0)
    assert d["time_symmetry_defect_max"] <= 1e-7
    assert d["psi_star_symmetry_defect"] <= 1e-7
    assert d["integrability_defect"] <= 1e-7
    assert d["decomposition_residual_max"] <= 1e-7
    assert d["critical_covector_is_half_entropy_gradient"]
    assert d["detailed_balance"]


def test_diagnostics_cyclic(cyclic):
    d = structure.diagnostics(cyclic, sample_count=10, seed=0)
    assert d["time_symmetry_defect_max"] > 1e-2
    assert d["integrability_defect"] > 1e-2
    assert d["psi_star_symmetry_defect"] > 1e-2
    assert not d["critical_covector_is_half_entropy_gradient"]
    assert not d["detailed_balance"]
    # the decomposition stays exact without detailed balance
    assert d["decomposition_residual_max"] <= 1e-7
    # worst_cases names each real defect, and not the decomposition's
    # rounding noise
    assert set(d["worst_cases"]) == {"time_symmetry", "psi_star_symmetry",
                                     "critical_covector", "integrability"}
    assert all(w["defect"] > d["tol"] for w in d["worst_cases"].values())


def test_diagnostics_constructed_reversible():
    d = structure.diagnostics(chains.random_reversible(5, 3), sample_count=10,
                              seed=1)
    assert d["time_symmetry_defect_max"] <= 1e-6
    assert d["psi_star_symmetry_defect"] <= 1e-6
    assert d["integrability_defect"] <= 1e-6
    assert d["critical_covector_is_half_entropy_gradient"]
    # every defect is rounding noise, so no sample is a worst case
    assert d["worst_cases"] == {}


def test_diagnostics_json_serializable(cyclic):
    d = structure.diagnostics(cyclic, sample_count=5, seed=2)
    payload = json.loads(json.dumps(d))
    assert payload["detailed_balance"] is False
    assert set(payload["worst_cases"]["integrability"]) == {"sample", "defect"}
    assert set(payload["extras"]) == {"critical_covector_gap_max",
                                      "conjugate_route"}
    # The 3-cycle is not a tree, so its conjugates go to Newton.
    assert payload["extras"]["conjugate_route"] == "newton"


def test_diagnostics_solves_for_the_covector_once_per_sample(monkeypatch):
    calls = []
    original = structure.critical_covector

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(structure, "critical_covector", counted)
    structure.diagnostics(chains.random_irreducible(5, 4), sample_count=4,
                          seed=0)
    assert len(calls) == 4


def _loop_integral_midpoint(vertices, field, segments):
    """Midpoint-rule line integral of a covector field around the closed
    piecewise-linear loop through `vertices` (each edge split into
    `segments` pieces)."""
    total = 0.0
    n = len(vertices)
    for e in range(n):
        a = vertices[e]
        b = vertices[(e + 1) % n]
        d = (b - a) / segments
        for k in range(segments):
            total += float(field(a + (k + 0.5) * d) @ d)
    return total


def _largest_loop_integral(g, segments=16):
    """Largest |loop integral of V_L| over triangles in the simplex
    interior: midpoint rule at `segments` and 2 x `segments` pieces per
    edge, Richardson-extrapolated.  The 3-state chain gets one fixed
    triangle, larger chains two seeded random ones."""
    J = g.size
    if J == 3:
        triangles = [np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3],
                               [0.3, 0.2, 0.5]])]
    else:
        rng = np.random.default_rng(5)
        triangles = [np.stack([0.7 * rng.dirichlet(np.ones(J)) + 0.3 / J
                               for _ in range(3)]) for _ in range(2)]

    def field(rho):
        return structure.critical_covector(rho, g)

    worst = 0.0
    for verts in triangles:
        coarse = _loop_integral_midpoint(verts, field, segments)
        fine = _loop_integral_midpoint(verts, field, 2 * segments)
        worst = max(worst, abs((4.0 * fine - coarse) / 3.0))
    return worst


_JACOBIAN_CHAINS = {
    "cycle": (chains.three_state_cycle, False),
    "irreducible6_1": (lambda: chains.random_irreducible(6, 1), False),
    "irreducible6_2": (lambda: chains.random_irreducible(6, 2), False),
    "reversible5_3": (lambda: chains.random_reversible(5, 3), True),
}


@pytest.mark.parametrize("name", sorted(_JACOBIAN_CHAINS))
def test_jacobian_defect_agrees_with_loop_integrals(name):
    make, integrable = _JACOBIAN_CHAINS[name]
    g = make()
    loop = _largest_loop_integral(g)
    defect = structure.diagnostics(g, sample_count=3,
                                   seed=0)["integrability_defect"]
    if integrable:
        assert loop <= 1e-6 and defect <= 1e-6
    else:
        assert loop > 1e-2 and defect > 1e-2


@pytest.mark.parametrize("name", sorted(_JACOBIAN_CHAINS))
def test_covector_jacobian_matches_finite_difference(name):
    g = _JACOBIAN_CHAINS[name][0]()
    J = g.size
    rho = 0.5 * np.random.default_rng(9).dirichlet(np.ones(J)) + 0.5 / J
    D = structure.covector_jacobian(
        rho, structure.critical_covector(rho, g), g)
    assert np.abs(D.sum(axis=0)).max() <= 1e-12
    h = 1e-6

    def covector(rho):
        H = markov.hamiltonian_functional(rho, g)
        return H.conjugate(np.zeros(J), tol=1e-13).argmax

    fd = np.stack([(covector(rho + h * e) - covector(rho - h * e)) / (2 * h)
                   for e in np.eye(J)], axis=1)
    assert np.abs(D - fd).max() <= 1e-6


def test_flow_field_stationary_at_pi():
    g = chains.random_reversible(4, 8)
    gs = structure.build_structure(g)
    assert np.abs(structure.flow_field(gs, gs.pi)).max() <= 1e-12


def test_flow_field_matches_drift_ldp():
    rng = np.random.default_rng(19)
    for seed in (0, 1, 2):
        g = chains.random_reversible(5, seed)
        gs = structure.build_structure(g, Family.LDP_EXACT)
        for _ in range(10):
            rho = random_interior(rng, 5)
            gap = np.abs(structure.flow_field(gs, rho)
                         - markov.drift(rho, g)).max()
            assert gap <= 1e-8
            assert abs(structure.flow_field(gs, rho).sum()) <= 1e-12


@pytest.mark.parametrize("family", [Family.QUADRATIC_FAMILY,
                                    Family.LDP_EXACT], ids=lambda f: f.value)
def test_flow_field_family_matches_drift(family):
    rng = np.random.default_rng(23)
    for seed in (0, 1, 2):
        g = chains.random_reversible(8, seed)
        gs = structure.build_structure(g, family)
        rep = structure.determine_entropy_scale(g, family)
        assert structure.ENTROPY_SCALE == rep["selected_scale"] == 0.5
        assert rep["reproduces_drift"]
        for _ in range(20):
            rho = random_interior(rng, 8)
            gap = np.abs(structure.flow_field(gs, rho)
                         - markov.drift(rho, g)).max()
            assert gap <= 1e-12


def test_flow_field_refuses_non_reversible(cyclic):
    gs = structure.build_structure(cyclic, Family.LDP_EXACT)
    with pytest.raises(NotGradientSystem):
        structure.flow_field(gs, np.full(3, 1 / 3))


def test_flow_field_matches_finite_difference_of_psi_star():
    g = chains.random_reversible(4, 31)
    gs = structure.build_structure(g, Family.LDP_EXACT)
    rng = np.random.default_rng(33)
    rho = random_interior(rng, 4)
    DS = structure.ENTROPY_SCALE * markov.relative_entropy_gradient(
        rho, gs.pi)[1]
    fd = finite_diff_gradient(gs.functional(rho), -DS, 1e-6)
    assert np.abs(structure.flow_field(gs, rho) - fd).max() <= 1e-6


def _rebuilt_dual_gradient(gs, rho, xi):
    """D_xi Psi*(rho, xi) with every pair weight rebuilt from rho and Q at
    each call."""
    g = gs.generator
    i, j, fwd, bwd = g.pairs
    a, b = rho[i] * fwd, rho[j] * bwd
    if gs.family is Family.QUADRATIC_FAMILY:
        d = np.log(a / b)
        near = np.abs(d) < structure.LOG_RATIO_GUARD
        w = np.where(near, 0.5 * (a + b), (a - b) / np.where(near, 1.0, d))
        phi = (None, lambda z: z, None, None, np.inf)
    else:
        # sqrt(rho_i Q_ij rho_j Q_ji), forward and back; the cosh member is
        # the exact structure, phi = expm1
        w = np.sqrt(a * b)
        phi = markov.EXPM1
    return markov.EdgeFunctional(g, w, w, phi).gradient(xi)


_WIDE = np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant


def _long_double_flow(gs, rho):
    """The pair flux of the flow rebuilt in long double from the same
    float64 rho, rates and pi, summed per node, with the per-node rounding
    scale S_n = sum over the pairs at n of |f| + |df/dd| (1 + |L_i| + |L_j|),
    d = delta / 2 the pair difference of xi = -DS."""
    ld = np.longdouble
    i, j, fwd, bwd = gs.generator.pairs
    rho = rho.astype(ld)
    a, b = rho[i] * fwd, rho[j] * bwd
    L = np.log(rho / gs.pi)
    delta = L[i] - L[j]
    if gs.family is Family.QUADRATIC_FAMILY:
        # The log mean as b expm1(t) / t, t = log(a / b): no cancellation.
        t = np.log(a / b)
        w = np.where(t == 0, b, b * np.expm1(t) / np.where(t == 0, 1, t))
        f, df = w * delta, 2 * w
    else:
        w = np.sqrt(a * b)
        f, df = 2 * w * np.sinh(delta / 2), 2 * w * np.cosh(delta / 2)
    J = rho.size
    net, scale = np.zeros(J, ld), np.zeros(J, ld)
    np.add.at(net, j, f)
    np.add.at(net, i, -f)
    pair = np.abs(f) + np.abs(df) * (1 + np.abs(L[i]) + np.abs(L[j]))
    np.add.at(scale, i, pair)
    np.add.at(scale, j, pair)
    return net, scale


@pytest.mark.skipif(not _WIDE, reason="long double is no wider than float64")
@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("seed", [0, 1])
def test_cached_flow_field_equals_the_rebuilt_formula(family, seed):
    # The flow against its pair-flux formula rebuilt in long double, to
    # 4 eps of each node's rounding scale, over four chains per seed at each
    # J: half the points anywhere inside, half within 1e-3 of pi, where the
    # fluxes are small and the quadratic member's log mean cancels most,
    # and one within the log mean's guard band.
    worst = 0.0
    for J in (4, 10, 30):
        for k in range(4 * seed, 4 * seed + 4):
            gs = structure.build_structure(chains.random_reversible(J, k),
                                           family)
            rng = np.random.default_rng([k, J])
            rhos = [random_interior(rng, J) for _ in range(10)]
            rhos += [gs.pi * (1.0 + 1e-3 * random_zero_sum(rng, J))
                     for _ in range(10)]
            rhos.append(gs.pi * (1.0 + 1e-10 * random_zero_sum(rng, J)))
            for rho in rhos:
                rho = rho / rho.sum()
                flow = gs.flow(rho)
                assert np.array_equal(structure.flow_field(gs, rho), flow)
                want, scale = _long_double_flow(gs, rho)
                err = np.abs(flow.astype(np.longdouble) - want)
                worst = max(worst, float((err / scale).max()))
    assert worst <= 4 * np.finfo(float).eps
    # Frozen: a structure is the value (generator, family).
    with pytest.raises(dataclasses.FrozenInstanceError):
        gs.family = Family.LDP_EXACT


@pytest.mark.parametrize("make", [
    lambda: chains.random_reversible(10, 6),
    lambda: chains.random_reversible(30, 2),
    lambda: chains.two_state(1.0, 2.0),
    lambda: chains.random_irreducible(6, 3),
    lambda: chains.random_irreducible(12, 7),
    chains.three_state_cycle,
], ids=["reversible10", "reversible30", "two_state", "irreducible6",
        "irreducible12", "three_state_cycle"])
def test_exact_flow_is_the_forward_equation_of_K(make):
    # The exact structure's pair flux sqrt(4ab) sinh(delta / 2) is
    # rho_i K_ij - rho_j K_ji, K_ij = sqrt(Q_ij Q_ji pi_j / pi_i), for every
    # rho, with or without detailed balance: the flow is K^T rho to 8 eps
    # of each node's scale (|K|^T rho, its inflow plus its outflow).  On the
    # one-way cycle every K_ij is 0, and so is the flow.
    g = make()
    gs = structure.build_structure(g)
    K = gs.flow_generator.q
    assert gs.flow_generator is gs.flow_generator  # built once
    off = ~np.eye(g.size, dtype=bool)
    assert np.all(K[off] >= 0.0)
    assert np.array_equal(np.diag(K), -np.where(off, K, 0.0).sum(axis=1))
    eps = np.finfo(float).eps
    rng = np.random.default_rng(g.size)
    for _ in range(20):
        rho = random_interior(rng, g.size)
        err = np.abs(gs.flow(rho) - K.T @ rho)
        assert np.all(err <= 8 * eps * (np.abs(K).T @ rho))
    if g.balance.detailed_balance:
        # pi_i Q_ij = pi_j Q_ji, so K = Q to rounding: the gradient flow is
        # the forward equation of the chain itself.
        assert np.all(np.abs(K - g.q) <= 8 * eps * np.abs(g.q))
        # The quadratic member's pair flux is then a - b: its flow is the
        # forward equation of the chain's own generator.
        assert structure.build_structure(
            g, Family.QUADRATIC_FAMILY).flow_generator is g


def test_flow_generator_forms_no_product_of_rates():
    # Q_ij Q_ji = 1e600 overflows; sqrt(Q_ij) sqrt(Q_ji) does not, and
    # building K warns of nothing (warnings are errors in this suite).
    g = chains.two_state_symmetric(1e300)
    K = structure.build_structure(g).flow_generator.q
    assert np.all(np.abs(K - g.q) <= 2 * np.finfo(float).eps * np.abs(g.q))


def _balanced_chains(bench):
    """Chains in detailed balance whose solved pi balances Q to rounding
    (random conductances) and to about 1e-11 (stiff grid chains)."""
    yield from (chains.random_reversible(J, J) for J in (4, 10, 20, 40))
    for N in (21, 51, 201):
        yield markov.validate_generator(bench.ou_grid(N))
        yield diffusion.make_grid(-4.0, 4.0, N, "quadratic").chain


def test_quadratic_flux_is_the_forward_equation_within_the_balance_gap(
        bench):
    # The pair flux m(a, b) delta is (a - b) - A_ij m(a, b) with
    # A_ij = log(pi_i Q_ij) - log(pi_j Q_ji) and m(a, b) <= max(a, b), so the
    # formula is within (|A_ij| + 16 eps) max(a, b), summed over a node's
    # pairs, of Q^T rho: the only gap between the quadratic member's flux
    # and the forward equation it steps by is the solved pi's.
    eps = np.finfo(float).eps
    for g in _balanced_chains(bench):
        gs = structure.build_structure(g, Family.QUADRATIC_FAMILY)
        assert gs.flow_generator is g
        i, j, fwd, bwd = g.pairs
        A = np.abs(np.log(gs.pi[i] * fwd) - np.log(gs.pi[j] * bwd))
        rng = np.random.default_rng(g.size)
        for _ in range(20):
            rho = random_interior(rng, g.size)
            pair = (A + 16 * eps) * np.maximum(rho[i] * fwd, rho[j] * bwd)
            bound = (np.bincount(i, pair, g.size)
                     + np.bincount(j, pair, g.size))
            assert np.all(np.abs(gs.flow(rho) - g.q.T @ rho) <= bound)


def test_log_mean_of_an_empty_pair_is_zero():
    # m(a, 0) = m(0, b) = m(0, 0) = 0, the limits of the log mean, with no
    # warning (warnings are errors in this suite); positive pairs keep the
    # quotient's bits.
    a = np.array([0.5, 0.0, 0.0, 0.3, 0.2])
    b = np.array([0.0, 0.3, 0.0, 0.1, 0.2])
    m = structure._log_mean(a, b)
    assert np.array_equal(m, [0.0, 0.0, 0.0, (0.3 - 0.1) / np.log(0.3 / 0.1),
                              0.2])
    g = diffusion.make_grid(0.0, 1.0, 5, "zero").chain
    gs = structure.build_structure(g, Family.QUADRATIC_FAMILY)
    weights = gs.functional([0.5, 0.0, 0.0, 0.0, 0.5]).fwd
    assert np.array_equal(weights, [0.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("family", list(Family))
def test_cached_flow_field_raises_as_the_rebuilt_formula(family):
    g = chains.random_reversible(10, 2)
    rho = random_interior(np.random.default_rng(2), 10)
    gs = structure.build_structure(g, family)
    # At the scale 1/2 no double-precision rho takes the flow's potential
    # differences near EXP_GUARD (at most about 361), so a steep xi goes to
    # Psi* directly.  Only the exponentiating potentials are guarded;
    # phi = z^2/2 gives a finite gradient there.
    xi = -1e4 * (np.log(rho / gs.pi) + 1.0)
    i, j = g.pairs.i, g.pairs.j
    assert np.abs(xi[j] - xi[i]).max() > markov.EXP_GUARD
    if family is Family.QUADRATIC_FAMILY:
        want = _rebuilt_dual_gradient(gs, rho, xi)
        assert np.isfinite(want).all()
        assert np.array_equal(gs.functional(rho).gradient(xi), want)
    else:
        with pytest.raises(ExponentOverflow):
            _rebuilt_dual_gradient(gs, rho, xi)
        with pytest.raises(ExponentOverflow):
            gs.functional(rho).gradient(xi)
    for low in (0.0, 1e-301):
        edge = rho.copy()
        edge[3] = low
        with pytest.raises(BoundaryPoint):
            structure.flow_field(gs, edge)
    # Weakly reversible, but the cycle 1 -> 2 -> 3 -> 1 fails Kolmogorov's
    # criterion: no detailed balance.
    skew = markov.validate_generator([[-3.0, 1.0, 2.0], [2.0, -3.0, 1.0],
                                      [1.0, 2.0, -3.0]])
    with pytest.raises(NotGradientSystem):
        structure.flow_field(structure.build_structure(skew, family),
                             np.full(3, 1 / 3))


def test_fenchel_equality_on_flow():
    g = chains.random_reversible(5, 12)
    gs = structure.build_structure(g)
    rng = np.random.default_rng(41)
    for _ in range(5):
        rho = random_interior(rng, 5)
        DS = structure.ENTROPY_SCALE * markov.relative_entropy_gradient(
            rho, gs.pi)[1]
        sdot = markov.drift(rho, g)
        total = (structure.psi(gs, rho, sdot)
                 + gs.functional(rho)(-DS) + float(DS @ sdot))
        assert abs(total) <= 1e-8


def test_psi_star_symmetry_iff_detailed_balance(cyclic):
    rng = np.random.default_rng(51)
    for seed in range(3):
        g = chains.random_reversible(5, 100 + seed)
        rho = random_interior(rng, 5)
        V = structure.critical_covector(rho, g)
        for _ in range(20):
            xi = random_zero_sum(rng, 5)
            gap = abs(markov.hamiltonian(rho, V - xi, g)
                      - markov.hamiltonian(rho, V + xi, g))
            assert gap <= 1e-7
    d = structure.diagnostics(cyclic, sample_count=8, seed=7)
    assert d["psi_star_symmetry_defect"] >= 1e-2


def test_entropy_scale_report_shows_both_members_reproduce_the_drift():
    g = chains.random_reversible(5, 77)
    for family in Family:
        rep = structure.determine_entropy_scale(g, family, seed=0)
        assert rep["family"] == family.value and "candidates" not in rep
        assert rep["selected_scale"] == 0.5 and rep["reproduces_drift"]
        assert rep["selected_residual"] <= 1e-12


def _dense_diff(xi):
    return xi[None, :] - xi[:, None]


def _off_diagonal(Q):
    off = Q.copy()
    np.fill_diagonal(off, 0.0)
    return off


def _both_ways(g):
    """g with each one-way rate Q_ij matched by Q_ji = Q_ij / 2: weakly
    reversible, and as sparse as g."""
    off = _off_diagonal(g.q)
    off += 0.5 * off.T * (off == 0)
    np.fill_diagonal(off, -off.sum(axis=1))
    return markov.validate_generator(off)


def _edge_instances(g, rho, V):
    """Every edge functional of the package, as a function that builds it,
    with an independent dense oracle for its value."""
    Q = g.q
    K = rho[:, None] * _off_diagonal(Q)  # K_ij = rho_i Q_ij

    def dense_h(xi):
        return float(np.sum(rho[:, None] * Q * np.expm1(_dense_diff(xi))))

    def family(fam):
        return lambda: structure.GradientStructure(
            generator=g, family=fam).functional(rho)

    # One weight per ordered pair, m(K_ij, K_ji), zero on a one-way pair.
    geo_w = np.sqrt(K * K.T)
    quad_w = np.array([[log_mean(a, b) if a > 0 and b > 0 else 0.0
                        for a, b in zip(row, col)]
                       for row, col in zip(K, K.T)])
    return {
        "hamiltonian": (lambda: markov.hamiltonian_functional(rho, g),
                        dense_h),
        "shifted_hamiltonian": (lambda: structure._shifted_hamiltonian(
                                    rho, V, g),
                                lambda xi: dense_h(V + xi) - dense_h(V)),
        "ldp_psi_star": (family(Family.LDP_EXACT),
                         lambda xi: float(np.sum(geo_w * np.expm1(_dense_diff(xi))))),
        # The cosh form of Psi* is the exact structure's.
        "cosh_family": (family(Family.LDP_EXACT),
                        lambda xi: float(np.sum(geo_w * (np.cosh(_dense_diff(xi)) - 1.0)))),
        "quadratic_family": (family(Family.QUADRATIC_FAMILY),
                             lambda xi: float(np.sum(quad_w * 0.5 * _dense_diff(xi) ** 2))),
    }


@pytest.mark.parametrize("name", ["hamiltonian", "shifted_hamiltonian",
                                  "ldp_psi_star", "cosh_family",
                                  "quadratic_family"])
@pytest.mark.parametrize("seed", [3, 8])
def test_edge_functional_matches_dense_and_finite_differences(name, seed):
    # A chain with zero rates, so the pairs are not the dense pattern.  The
    # quadratic member needs every pair both ways.
    g = chains.random_irreducible(5, seed)
    if name == "quadratic_family":
        g = _both_ways(g)
    assert np.count_nonzero(g.q) < g.size ** 2
    rng = np.random.default_rng(seed)
    rho = random_interior(rng, 5)
    V = structure.critical_covector(rho, g)
    make, dense = _edge_instances(g, rho, V)[name]
    F = make()
    for _ in range(3):
        xi = random_zero_sum(rng, 5)
        assert abs(F(xi) - dense(xi)) <= 1e-12 * max(1.0, abs(dense(xi)))
        fd = finite_diff_gradient(F, xi, 1e-5)
        assert np.abs(F.gradient(xi) - fd).max() <= 1e-7
        H = F.hessian(xi)
        assert np.array_equal(H, H.T)
        fd_h = np.stack([finite_diff_gradient(
            lambda x: F.gradient(x)[i], xi, 1e-5) for i in range(5)])
        assert np.abs(H - fd_h).max() <= 1e-7
