import json
import math

import numpy as np
import pytest

import chains
from conftest import (assert_path_consistent, birth_death_tube_logp,
                      particle_rng)
from ldgrad import evolve, markov, particle, structure
from ldgrad.errors import (InvalidInput, ThinningBoundExceeded, TiltTooStrong,
                          UnboundedConjugate)

# Golden jump record for simulate(two_state_symmetric, n=3, T=2, seed=77,
# initial [0, 1, 0]); regenerate by rerunning that call and pasting.
GOLDEN_TIMES = [0.15662220870686297, 1.8741332715511063, 1.9418397904596327]
GOLDEN_PARTICLES = [1, 0, 2]
GOLDEN_FROM = [1, 0, 0]
GOLDEN_TO = [0, 1, 1]


def _clock_reference(g, T, init, seed):
    """Untilted paths one particle at a time, from the same two uniforms per
    jump as `simulate`: an Exp(lambda_i) holding time from the first and the
    first target j with cumsum(Q_i.)_j > u2 lambda_i from the second."""
    off = g.q - np.diag(np.diag(g.q))
    jumps = []
    for k, state in enumerate(init):
        rng, t, lam = particle_rng(seed, k), 0.0, off[state].sum()
        while lam > 0.0:
            u1, u2 = rng.random(2)
            t += -math.log1p(-u1) / lam
            if t >= T:
                break
            nxt = int(np.argmax(np.cumsum(off[state]) > u2 * lam))
            jumps.append((t, k, state, nxt))
            state, lam = nxt, off[nxt].sum()
    jumps.sort()
    return [list(col) for col in zip(*jumps)]


def test_simulate_golden_record(two_state):
    p = particle.simulate(two_state, 3, 2.0, np.array([0, 1, 0]), seed=77)
    assert p.jump_times.tolist() == GOLDEN_TIMES
    assert p.jump_particles.tolist() == GOLDEN_PARTICLES
    assert p.jump_from.tolist() == GOLDEN_FROM
    assert p.jump_to.tolist() == GOLDEN_TO
    assert p.meta["proposals"] == p.meta["accepted"] == 3
    assert_path_consistent(p)
    # The thinning loop at zero tilt against the per-particle clocks, also on
    # a chain with unequal exit rates and a zero rate.
    g = markov.validate_generator([[-1.5, 1.5, 0.0], [0.4, -1.1, 0.7],
                                   [2.0, 0.3, -2.3]])
    init = particle.deterministic_assignment(np.full(3, 1.0 / 3.0), 20)
    for chain, T, start, seed in ((two_state, 2.0, [0, 1, 0], 77),
                                  (g, 3.0, init, 5)):
        p = particle.simulate(chain, len(start), T, start, seed=seed)
        times, parts, froms, tos = _clock_reference(chain, T, start, seed)
        assert p.jump_times.size == len(times) > 0
        assert np.allclose(p.jump_times, times, rtol=1e-12, atol=0.0)
        assert p.jump_particles.tolist() == parts
        assert p.jump_from.tolist() == froms
        assert p.jump_to.tolist() == tos


def test_simulate_seed_determinism(two_state):
    init = particle.deterministic_assignment(np.array([0.5, 0.5]), 200)
    a = particle.simulate(two_state, 200, 3.0, init, seed=5)
    b = particle.simulate(two_state, 200, 3.0, init, seed=5)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.jump_particles, b.jump_particles)
    assert np.array_equal(a.jump_to, b.jump_to)
    c = particle.simulate(two_state, 200, 3.0, init, seed=6)
    assert not np.array_equal(a.jump_times, c.jump_times)


def test_mean_jump_count_matches_holding_law(two_state):
    # Exp(1) holding times: jumps over [0, 5] are Poisson(5) per particle.
    n = 10000
    init = particle.deterministic_assignment(np.array([1.0, 0.0]), n)
    p = particle.simulate(two_state, n, 5.0, init, seed=123)
    counts = np.bincount(p.jump_particles, minlength=n)
    se = math.sqrt(5.0 / n)
    assert abs(counts.mean() - 5.0) <= 3 * se


def test_zero_tilt_equals_untilted_same_seed(two_state):
    init = particle.deterministic_assignment(np.array([1.0, 0.0]), 50)
    zero = particle.TiltField.constant(np.zeros(2), 5.0)
    a = particle.simulate(two_state, 50, 5.0, init, seed=123, tilt=zero)
    b = particle.simulate(two_state, 50, 5.0, init, seed=123)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.jump_to, b.jump_to)


def test_tilt_too_strong(two_state):
    big = particle.TiltField.constant(np.array([40.0, -40.0]), 1.0)
    with pytest.raises(TiltTooStrong):
        particle.simulate(two_state, 1, 1.0, np.array([0]), seed=0, tilt=big)


def test_tilted_rate_above_its_bound_is_an_error(monkeypatch):
    table = particle._thinning_table

    def halved(*args):
        c, xc, b, Lam = table(*args)
        return c, xc, 0.5 * b, 0.5 * Lam

    monkeypatch.setattr(particle, "_thinning_table", halved)
    g = chains.random_irreducible(3, 21)
    init = particle.deterministic_assignment(np.full(3, 1.0 / 3.0), 30)
    with pytest.raises(ThinningBoundExceeded):
        particle.simulate(g, 30, 2.0, init, seed=8, tilt=_three_state_tilt(2.0))


def test_tilted_law_concentrates_on_target(two_state):
    # Law of large numbers under the tilted generator.
    target = np.array([0.7, 0.3])
    tilt = particle.TiltField.constant(
        structure.critical_covector(target, two_state), 1.0)
    n = 2000
    init = particle.deterministic_assignment(target, n)
    grid = np.linspace(0, 1.0, 101)
    hits = 0
    for r in range(20):
        p = particle.simulate(two_state, n, 1.0, init, seed=31,
                              tilt=tilt, stream_offset=r * n)
        emp = particle.empirical_measure_path(p, grid, J=2)
        if np.abs(emp - target).max() <= 0.05:
            hits += 1
    assert hits >= 18  # >= 90 percent of replicas stay in the tube


def test_empirical_measure_path_basics(two_state):
    p = particle.ParticlePath(
        n=2, horizon=1.0, initial_states=np.array([0, 1]),
        jump_times=np.array([]), jump_particles=np.array([], dtype=int),
        jump_from=np.array([], dtype=int), jump_to=np.array([], dtype=int))
    emp = particle.empirical_measure_path(p, np.linspace(0, 1, 5), J=2)
    assert np.all(emp == 0.5)
    init = particle.deterministic_assignment(np.array([1.0, 0.0]), 10000)
    ps = particle.simulate(two_state, 10000, 5.0, init, seed=41)
    emp = particle.empirical_measure_path(ps, np.array([0.0, 5.0]), J=2)
    assert np.all(emp[0] == [1.0, 0.0])
    exact = 0.5 + 0.5 * math.exp(-10.0)
    assert abs(emp[1][0] - exact) <= 0.02
    # every entry is the double k/n
    assert np.array_equal(emp, np.round(emp * 10000) / 10000)


def test_empirical_measure_right_continuity(two_state):
    p = particle.ParticlePath(
        n=1, horizon=1.0, initial_states=np.array([0]),
        jump_times=np.array([0.5]), jump_particles=np.array([0]),
        jump_from=np.array([0]), jump_to=np.array([1]))
    emp = particle.empirical_measure_path(p, np.array([0.5]), J=2)
    assert np.all(emp[0] == [0.0, 1.0])
    # Hand-built paths may give the empty jump arrays without a dtype.
    still = particle.ParticlePath(
        n=1, horizon=1.0, initial_states=[0], jump_times=np.array([]),
        jump_particles=[], jump_from=[], jump_to=[])
    assert np.all(particle.empirical_measure_path(still, [1.0], J=2) == [1, 0])
    zero = particle.TiltField.constant(np.zeros(2), 1.0)
    assert particle.girsanov_log_density(still, zero, chains.two_state(1, 1)) == 0


def test_empirical_measure_matches_event_loop():
    g = chains.random_irreducible(4, 5)
    init = particle.deterministic_assignment(np.full(4, 0.25), 50)
    p = particle.simulate(g, 50, 2.0, init, seed=9)
    # Grid times on, between and beyond the jump times.
    grid = np.sort(np.concatenate([np.linspace(0, 2.0, 41),
                                   p.jump_times[::7]]))
    counts = np.bincount(p.initial_states, minlength=4).astype(float)
    loop, ev = [], 0
    for t in grid:
        while ev < p.jump_times.size and p.jump_times[ev] <= t:
            counts[p.jump_from[ev]] -= 1.0
            counts[p.jump_to[ev]] += 1.0
            ev += 1
        loop.append(counts / p.n)
    emp = particle.empirical_measure_path(p, grid, J=4)
    assert np.array_equal(emp, np.array(loop))
    with pytest.raises(InvalidInput):
        particle.empirical_measure_path(p, grid[::-1], J=4)


def test_girsanov_zero_tilt_is_exactly_zero(two_state):
    init = particle.deterministic_assignment(np.array([0.6, 0.4]), 20)
    p = particle.simulate(two_state, 20, 2.0, init, seed=3)
    zero = particle.TiltField.constant(np.zeros(2), 2.0)
    assert particle.girsanov_log_density(p, zero, two_state) == 0.0


def test_girsanov_constant_tilt_no_jump_closed_form():
    # Slow chain so the seeded single particle never jumps over [0, T].
    g = chains.two_state(q12=0.01, q21=0.01)
    T = 1.0
    p = particle.simulate(g, 1, T, np.array([0]), seed=1)
    assert p.jump_times.size == 0
    xi = np.array([0.3, -0.4])
    tilt = particle.TiltField.constant(xi, T)
    val = particle.girsanov_log_density(p, tilt, g)
    closed = -T * g.q[0, 1] * math.expm1(xi[1] - xi[0])
    assert abs(val - closed) <= 1e-15
    # equivalently -int H(1_i, xi) dt with zero pairing
    assert abs(val + T * markov.hamiltonian(np.array([1.0, 0.0]), xi, g)) <= 1e-15


@pytest.mark.parametrize("n,seed", [(1, 11), (10, 12), (100, 13)])
def test_girsanov_equals_pairing_functional(two_state, n, seed):
    # two_state, and a chain with zero rates and no reversibility; the last
    # tilt's knots [0.3, 0.8, 1.2] leave the field clamped at both ends of
    # [0, 2], which pins the table's anchoring F_i(0) = 0.
    for g in (two_state, chains.random_irreducible(4, seed)):
        J = g.size
        init = particle.deterministic_assignment(np.full(J, 1.0 / J), n)
        p = particle.simulate(g, n, 2.0, init, seed=seed)
        rng = np.random.default_rng(seed)
        tilts = [particle.TiltField.constant(np.linspace(0.5, -0.5, J), 2.0)]
        for knots in (np.linspace(0, 2.0, 5), np.linspace(0, 2.0, 5),
                      np.array([0.3, 0.8, 1.2])):
            vals = rng.normal(0, 0.6, (knots.size, J))
            vals -= vals.mean(axis=1, keepdims=True)
            tilts.append(particle.TiltField.piecewise_linear(knots, vals))
        for tilt in tilts:
            a = particle.girsanov_log_density(p, tilt, g)
            b = particle.path_pairing_functional(p, tilt, g)
            assert abs(a - b) <= 1e-10


def test_girsanov_on_tilted_paths(two_state):
    tilt = particle.TiltField.constant(np.array([0.2, -0.2]), 1.5)
    init = particle.deterministic_assignment(np.array([0.7, 0.3]), 40)
    p = particle.simulate(two_state, 40, 1.5, init, seed=8, tilt=tilt)
    a = particle.girsanov_log_density(p, tilt, two_state)
    b = particle.path_pairing_functional(p, tilt, two_state)
    assert abs(a - b) <= 1e-10


def test_rate_functional_zero_on_linear_solution(two_state):
    traj = evolve.integrate_linear(np.array([1.0, 0.0]), two_state, 2.0, 1e-3)
    out = particle.path_rate_functional(traj.times, traj.states, two_state)
    assert out["value"] <= 1e-6
    assert np.all(out["per_time"] >= 0.0)


def test_rate_functional_constant_path(two_state):
    times = np.linspace(0, 2.0, 201)
    rho = np.array([0.7, 0.3])
    states = np.tile(rho, (times.size, 1))
    out = particle.path_rate_functional(times, states, two_state)
    expected = 2.0 * markov.lagrangian(rho, np.zeros(2), two_state).value
    assert abs(out["value"] - expected) <= 1e-9
    # under detailed balance this also equals T * Psi*(rho, -DS)
    gs = structure.build_structure(two_state)
    DS = structure.ENTROPY_SCALE * markov.relative_entropy_gradient(
        rho, gs.pi)[1]
    assert abs(out["value"] - 2.0 * gs.functional(rho)(-DS)) <= 1e-9
    assert out["value"] > 0.0


def test_time_reversal_identity(two_state):
    # int [L(rho, -rho') - L(rho, rho')] dt = E_pi(rho_0) - E_pi(rho_T)
    traj = evolve.integrate_linear(np.array([0.9, 0.1]), two_state, 2.0, 1e-3)
    fwd = particle.path_rate_functional(traj.times, traj.states, two_state)
    rev = particle.path_rate_functional(traj.times, traj.states[::-1],
                                        two_state)
    pi = np.array([0.5, 0.5])
    diff = (markov.relative_entropy(traj.states[0], pi)
            - markov.relative_entropy(traj.states[-1], pi))
    assert abs((rev["value"] - fwd["value"]) - diff) <= 1e-4


def test_rate_functional_unbounded_reports_time(two_state):
    times = np.linspace(0, 1.0, 11)
    states = np.tile(np.array([1.0, 0.0]), (11, 1))
    states[5:] = [0.0, 1.0]  # non-a.c. jump forces an infeasible velocity
    with pytest.raises(UnboundedConjugate) as err:
        particle.path_rate_functional(times, states, two_state)
    assert "t =" in str(err.value)


def test_tilt_then_reweight_unbiased(two_state):
    # E_tilted[e^{-G} 1_A] must equal the plain probability of A (n = 1).
    # A = {no jumps in [0, T], start in state 1}: P(A) = e^{-T}.  Particle r
    # of one R-particle run is the one-particle run with stream_offset = r,
    # and every path in A has the weight of the one-particle no-jump path.
    T = 1.0
    tilt = particle.TiltField.constant(np.array([0.3, -0.3]), T)
    R = 50000
    p = particle.simulate(two_state, R, T, np.zeros(R, dtype=int), seed=777,
                          tilt=tilt)
    still = particle.ParticlePath(
        n=1, horizon=T, initial_states=[0], jump_times=np.array([]),
        jump_particles=[], jump_from=[], jump_to=[])
    w = math.exp(-particle.girsanov_log_density(still, tilt, two_state))
    hits = R - np.unique(p.jump_particles).size
    acc = hits * w
    acc2 = hits * w * w
    est = acc / R
    se = math.sqrt(max(acc2 / R - est * est, 0.0) / R)
    truth = math.exp(-T)
    # combined error: estimator SE plus nothing on the exact side
    assert abs(est - truth) <= 3 * se


def _three_state_tilt(T):
    # Knots strictly inside (0, T): the field is clamped at both ends.
    return particle.TiltField.piecewise_linear(
        np.array([0.25, 0.7, 1.1]) * T,
        np.array([[0.6, -0.4, 0.1], [-0.5, 0.3, 0.8], [0.2, 0.7, -0.6]]))


def _keep_jumps(path, keep):
    """The path with only the jumps that `keep` (a mask or index list)
    selects."""
    return particle.ParticlePath(
        n=path.n, horizon=path.horizon, initial_states=path.initial_states,
        **{name: getattr(path, name)[keep] for name in (
            "jump_times", "jump_particles", "jump_from", "jump_to")})


def test_tilted_particle_streams(monkeypatch):
    # Particle k of an n-particle run is the one-particle run with
    # stream_offset = k, and no path depends on how the particles are
    # chunked or on the width of the stream blocks they read.
    g = chains.random_irreducible(3, 21)
    T = 2.0
    tilt = _three_state_tilt(T)
    n = 60
    init = particle.deterministic_assignment(np.full(3, 1.0 / 3.0), n)
    p = particle.simulate(g, n, T, init, seed=8, tilt=tilt)
    assert_path_consistent(p)
    assert p.meta["accepted"] == p.jump_times.size > 0
    assert p.meta["proposals"] > p.meta["accepted"]
    for k in range(n):
        one = particle.simulate(g, 1, T, init[k:k + 1], seed=8, tilt=tilt,
                                stream_offset=k)
        mine = p.jump_particles == k
        assert np.array_equal(one.jump_times, p.jump_times[mine])
        assert np.array_equal(one.jump_from, p.jump_from[mine])
        assert np.array_equal(one.jump_to, p.jump_to[mine])
    monkeypatch.setattr(particle, "THINNING_BLOCK", 8)
    monkeypatch.setattr(particle, "_block_width", lambda b, c: 4)
    q = particle.simulate(g, n, T, init, seed=8, tilt=tilt)
    for name in ("jump_times", "jump_particles", "jump_from", "jump_to"):
        assert np.array_equal(getattr(q, name), getattr(p, name))
    assert q.meta == p.meta
    # Replica r of one run of R n particles on stream block b is the
    # n-particle run with stream_offset = (b R + r) n, tilted and untilted:
    # its grouped empirical measure and G are those of that run, bit for
    # bit, also once the jumps of a middle and of the last replica are taken
    # out.
    R, b = 4, 3
    grid = np.linspace(0.0, T, 21)
    for field in (tilt, None):
        run = particle.simulate(g, R * n, T, np.tile(init, R), seed=8,
                                tilt=field, stream_offset=b * R * n)
        assert run.meta["tilted"] == (field is not None)
        ones = [particle.simulate(g, n, T, init, seed=8, tilt=field,
                                  stream_offset=(b * R + r) * n)
                for r in range(R)]
        for empty in (None, 1, R - 1):
            if empty is not None:
                run = _keep_jumps(run, run.jump_particles // n != empty)
                ones[empty] = _keep_jumps(ones[empty], [])
            emp = particle.empirical_measure_path(run, grid, 3, R)
            G = particle.girsanov_log_density(run, tilt, g, R)
            assert emp.shape == (R, grid.size, 3) and G.shape == (R,)
            for r, one in enumerate(ones):
                assert np.array_equal(
                    emp[r], particle.empirical_measure_path(one, grid, 3))
                assert G[r] == particle.girsanov_log_density(one, tilt, g)
    # The keyed streams are particle_rng's, also from a block boundary on.
    streams = particle.ParticleStreams(8)
    for stream in (0, 5, 2 ** 40):
        ref = particle_rng(8, stream).random(12)
        assert np.array_equal(streams.at(stream).random(12), ref)
        assert np.array_equal(streams.at(stream, 8).random(4), ref[8:])


def test_tilted_law_matches_forward_equation():
    # The tilted empirical measure against the exact time-inhomogeneous
    # forward equation d rho/dt = rho Q_t, Q_t(i, j) = Q_ij e^{xi_t(j) -
    # xi_t(i)}, entrywise within 4 multinomial standard errors.
    from scipy.integrate import solve_ivp

    g = chains.random_irreducible(3, 2)
    T = 1.5
    tilt = _three_state_tilt(T)
    n = 20000
    init = particle.deterministic_assignment(np.array([0.6, 0.3, 0.1]), n)
    p = particle.simulate(g, n, T, init, seed=4, tilt=tilt)
    grid = np.linspace(0.0, T, 16)
    emp = particle.empirical_measure_path(p, grid, J=3)

    def forward(t, rho):
        xi = tilt.value_at(t)
        Qt = g.q * np.exp(xi[None, :] - xi[:, None])
        np.fill_diagonal(Qt, 0.0)
        np.fill_diagonal(Qt, -Qt.sum(axis=1))
        return rho @ Qt

    sol = solve_ivp(forward, (0.0, T), np.bincount(init, minlength=3) / n,
                    t_eval=grid, rtol=1e-10, atol=1e-12, max_step=0.01)
    exact = sol.y.T
    se = np.sqrt(exact * (1.0 - exact) / n)
    assert np.all(np.abs(emp - exact) <= 4.0 * se + 1e-12)
    # The tilt moves the law well beyond that band.
    plain = particle.simulate(g, n, T, init, seed=4)
    drift = np.abs(particle.empirical_measure_path(plain, grid, J=3) - exact)
    assert drift.max() > 20.0 * se.max()


def test_optimal_tilt_constant_target(two_state):
    times = np.linspace(0, 1.0, 101)
    rho = np.array([0.7, 0.3])
    states = np.tile(rho, (times.size, 1))
    rate = particle.path_rate_functional(times, states, two_state)
    tilt = particle._tilt_from_knots(times, rate["knots"])
    V = structure.critical_covector(rho, two_state)
    assert np.abs(tilt.value_at(0.5) - V).max() <= 1e-9
    assert tilt.smoothness == "constant"


def test_experiment_report_determinism_on_rerun(two_state):
    times = np.linspace(0, 0.5, 26)
    states = np.tile(np.array([0.7, 0.3]), (times.size, 1))
    reports = []
    for _ in range(2):
        rep, table = particle.rate_vs_probability_experiment(
            two_state, times, states, 0.05, [100, 50], 20, seed=55)
        assert list(table) == ["n", "replica", "hit", "G", "log_weight",
                               "distance"]
        assert all(c.shape == (40,) for c in table.values())
        reports.append(json.dumps(rep, sort_keys=True) + json.dumps(
            {key: c.tolist() for key, c in table.items()}))
    assert reports[0] == reports[1]


def test_rate_functional_knots_are_the_optimal_tilt(two_state):
    times = np.linspace(0, 1.0, 51)
    states = evolve.exact_linear_solution(np.array([0.9, 0.1]), two_state,
                                          times).states
    rate = particle.path_rate_functional(times, states, two_state)
    tilt = particle._tilt_from_knots(times, rate["knots"])
    assert rate["knots"].shape == states.shape
    assert np.array_equal(tilt.knot_values, rate["knots"])
    # Each knot is the stationary point D_xi H(rho_t, xi) = rho'_t of the
    # finite-difference velocity (central inside, one-sided at the ends).
    sdot = np.gradient(states, times[1] - times[0], axis=0)
    for m in (0, 25, 50):
        grad = markov.hamiltonian_functional(states[m], two_state).gradient(
            rate["knots"][m])
        assert np.abs(grad - sdot[m]).max() <= 1e-9


def test_experiment_typical_tube_probability_near_one(two_state):
    # Target = exact solution path: hits are near-certain and the estimate
    # of -(1/n) log p-hat is near zero, matching I_T = 0.
    times = np.linspace(0, 1.0, 51)
    states = evolve.exact_linear_solution(np.array([0.6, 0.4]), two_state,
                                          times).states
    rep, _ = particle.rate_vs_probability_experiment(
        two_state, times, states, 0.1, [400], 30, seed=17)
    assert rep["rate_functional"] <= 1e-6
    entry = rep["estimates"]["400"]
    assert entry["hit_fraction"] >= 0.9
    assert abs(entry["estimate"]) <= 0.01


def test_experiment_estimator_tracks_birth_death_truth(two_state):
    # The weighted estimator must be consistent with the exact tube
    # probability computed by birth-death filtering (the independent oracle);
    # both sit below the center-path rate because the tube admits cheaper
    # paths -- that gap is reported, not hidden.
    times = np.linspace(0, 1.0, 101)
    states = np.tile(np.array([0.7, 0.3]), (times.size, 1))
    n = 500
    rep, _ = particle.rate_vs_probability_experiment(
        two_state, times, states, 0.05, [n], 200, seed=2026)
    est = rep["estimates"][str(n)]["estimate"]
    truth = -birth_death_tube_logp(n, 1.0, 0.01, 0.7, 0.05) / n
    assert abs(est - truth) <= 0.35 * truth
    assert truth < rep["rate_functional"]  # tube entropy effect


def test_deterministic_assignment():
    init = particle.deterministic_assignment(np.array([0.7, 0.3]), 10)
    assert np.bincount(init, minlength=2).tolist() == [7, 3]
    init = particle.deterministic_assignment(np.array([1 / 3, 1 / 3, 1 / 3]), 10)
    assert init.size == 10 and np.bincount(init).sum() == 10
    emp = np.bincount(init, minlength=3) / 10
    assert np.abs(emp - 1 / 3).max() <= 0.1


def test_tilt_field_contract():
    with pytest.raises(InvalidInput):
        particle.TiltField.piecewise_linear(np.array([0.0, 0.0, 1.0]),
                                            np.zeros((3, 2)))
    knots = particle.TiltField.piecewise_linear(
        np.array([0.0, 1.0]), np.array([[0.0, 0.0], [1.0, -1.0]]))
    assert np.allclose(knots.value_at(0.5), [0.5, -0.5])
    assert np.allclose(knots.value_at(2.0), [1.0, -1.0])  # clamped
    assert not knots.is_zero and knots.max_abs == 1.0
    # An array of times gives the scalar rows exactly, clamped at both ends.
    tilt = particle.TiltField.piecewise_linear(
        np.array([0.3, 0.8, 1.2]), np.array([[0.1, -0.2], [0.7, 0.4],
                                             [-0.5, 0.3]]))
    times = np.array([0.0, 0.3, 0.41, 0.8, 1.0, 1.2, 2.0])
    assert np.array_equal(tilt.value_at(times),
                          np.stack([tilt.value_at(float(t)) for t in times]))


def test_logsumexp_equals_scipy_bit_for_bit():
    from scipy.special import logsumexp
    rng = np.random.default_rng(8)
    cases = [[3.0], [-2.5], [1.0, 1.0], [0.0] * 7, [-1.0, 2.0, 2.0, 0.5],
             [-800.0, 0.0, 1.0], [745.0, -745.0, 10.0, 745.0]]
    for _ in range(500):
        a = rng.standard_normal(int(rng.integers(1, 40)))
        a *= rng.choice([1.0, 30.0, 1000.0])  # spreads beyond 700 included
        if rng.random() < 0.3:
            a = np.round(a)  # tied maxima
        cases.append(a)
    for a in cases:
        a = np.asarray(a, dtype=float)
        assert particle._logsumexp(a) == float(logsumexp(a))
