"""Independent-particle simulation and pathwise rate-functional machinery.

n independent continuous-time Markov particles are simulated exactly
(per-particle exponential clocks; thinning under a time-dependent tilt whose
rates are Q_ij e^{xi_t(j) - xi_t(i)}).  Every particle draws from its own
counter-based RNG stream keyed by (seed, stream id), so results are
byte-identical regardless of the order in which particles are simulated.

The pathwise objects follow two deliberately independent computational
routes that must agree to 1e-10:

  * `girsanov_log_density` evaluates the per-particle boundary-minus-integral
    form of the tilted log density (time integrals in closed form per
    constant-state interval),
  * `path_pairing_functional` evaluates G(rho, xi) = int <xi, rho'> -
    H(rho_t, xi_t) dt from the jump-sum pairing and Gauss-Legendre
    quadrature.

`path_rate_functional` integrates the cost L(rho_t, rho_t') along a measure
path, and `rate_vs_probability_experiment` runs the tilt-then-reweight
estimate of tube probabilities against that cost.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from . import convex, markov
from .errors import (InvalidInput, QuadratureWarning, TiltTooStrong,
                     UnboundedConjugate)

_MASK64 = (1 << 64) - 1
_GAUSS16 = np.polynomial.legendre.leggauss(16)
_GAUSS8 = np.polynomial.legendre.leggauss(8)
TILT_EXPONENT_CAP = 60.0
PROPOSAL_BUDGET = 5e7


def particle_rng(seed, stream):
    """Counter-based generator for one particle stream; key = (seed, stream)."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def deterministic_assignment(rho0, n):
    """Largest-remainder rounding of n * rho0 into per-state counts, then
    states listed in index order.  Makes the initial empirical measure match
    rho0 to 1/n precision with no randomness."""
    rho0 = markov.as_simplex(rho0)
    raw = n * rho0
    counts = np.floor(raw).astype(int)
    short = n - counts.sum()
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return np.repeat(np.arange(rho0.size), counts)


@dataclass
class TiltField:
    """Time-dependent potential, constant or piecewise linear in t."""
    knot_times: np.ndarray
    knot_values: np.ndarray  # shape (K, J)
    smoothness: str = "piecewise-linear"

    @classmethod
    def constant(cls, xi, T):
        xi = np.asarray(xi, dtype=float)
        return cls(knot_times=np.array([0.0, float(T)]),
                   knot_values=np.stack([xi, xi]), smoothness="constant")

    @classmethod
    def piecewise_linear(cls, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or np.any(np.diff(times) <= 0):
            raise InvalidInput("knot times must be strictly increasing")
        if values.shape[0] != times.size:
            raise InvalidInput("one knot value row per knot time")
        return cls(knot_times=times, knot_values=values)

    @property
    def is_zero(self):
        return bool(np.all(self.knot_values == 0.0))

    @property
    def max_abs(self):
        return float(np.abs(self.knot_values).max())

    def value_at(self, t):
        tt = self.knot_times
        if t <= tt[0]:
            return self.knot_values[0]
        if t >= tt[-1]:
            return self.knot_values[-1]
        k = int(np.searchsorted(tt, t, side="right")) - 1
        lam = (t - tt[k]) / (tt[k + 1] - tt[k])
        return (1.0 - lam) * self.knot_values[k] + lam * self.knot_values[k + 1]

    def segment_slope(self, k):
        dt = self.knot_times[k + 1] - self.knot_times[k]
        return (self.knot_values[k + 1] - self.knot_values[k]) / dt

    def segments_between(self, a, b):
        """Yield (t0, t1) subintervals of [a, b] on which the field is linear."""
        cuts = [a]
        for t in self.knot_times:
            if a < t < b:
                cuts.append(float(t))
        cuts.append(b)
        for t0, t1 in zip(cuts[:-1], cuts[1:]):
            if t1 > t0:
                yield t0, t1


@dataclass
class ParticlePath:
    n: int
    horizon: float
    initial_states: np.ndarray
    jump_times: np.ndarray
    jump_particles: np.ndarray
    jump_from: np.ndarray
    jump_to: np.ndarray
    meta: dict = field(default_factory=dict)

    def validate(self):
        if np.any(self.jump_times <= 0) or np.any(self.jump_times > self.horizon):
            raise InvalidInput("jump times must lie in (0, T]")
        if np.any(self.jump_from == self.jump_to):
            raise InvalidInput("self-jumps recorded")
        if np.any(np.diff(self.jump_times) < 0):
            raise InvalidInput("jumps not time-sorted")
        state = self.initial_states.copy()
        for t, k, i, j in zip(self.jump_times, self.jump_particles,
                              self.jump_from, self.jump_to):
            if state[k] != i:
                raise InvalidInput("inconsistent per-particle state sequence")
            state[k] = j
        return True

    def jumps_of_particle(self, k):
        m = self.jump_particles == k
        return self.jump_times[m], self.jump_from[m], self.jump_to[m]

    def final_states(self):
        state = self.initial_states.copy()
        for k, j in zip(self.jump_particles, self.jump_to):
            state[k] = j
        return state

    def jumps_per_particle(self):
        return np.bincount(self.jump_particles, minlength=self.n)


def _simulate_particle_plain(rng, state, T, exit_rate, cum_rates):
    """Exact per-particle simulation; returns (times, froms, tos)."""
    t = 0.0
    J = len(cum_rates)
    times, froms, tos = [], [], []
    while True:
        lam = exit_rate[state]
        if lam <= 0.0:
            break
        t += rng.exponential(1.0 / lam)
        if t >= T:
            break
        u = rng.random() * lam
        nxt = min(int(np.searchsorted(cum_rates[state], u, side="right")), J - 1)
        times.append(t)
        froms.append(state)
        tos.append(nxt)
        state = nxt
    return times, froms, tos


def _simulate_particle_tilted(rng, state, T, Q, exit_rate, tilt):
    """Thinning with a per-knot-interval bound gamma_i * e^{2 max|xi|}."""
    t = 0.0
    times, froms, tos = [], [], []
    knots = tilt.knot_times
    J = Q.shape[0]
    while t < T:
        k = int(np.searchsorted(knots, t, side="right")) - 1
        k = min(max(k, 0), knots.size - 2)
        seg_end = min(float(knots[k + 1]), T)
        if seg_end <= t:  # beyond the last knot: field is frozen
            seg_end = T
        m = max(np.abs(tilt.knot_values[k]).max(),
                np.abs(tilt.knot_values[k + 1]).max())
        bound = exit_rate[state] * math.exp(2.0 * m)
        if bound <= 0.0:
            t = seg_end
            if seg_end >= T:
                break
            continue
        t_prop = t + rng.exponential(1.0 / bound)
        if t_prop >= seg_end:
            t = seg_end
            if seg_end >= T:
                break
            continue
        t = t_prop
        xi = tilt.value_at(t)
        rates = Q[state] * np.exp(xi - xi[state])
        rates[state] = 0.0
        lam = rates.sum()
        if rng.random() * bound < lam:
            u = rng.random() * lam
            nxt = int(np.searchsorted(np.cumsum(rates), u, side="right"))
            nxt = min(nxt, J - 1)
            times.append(t)
            froms.append(state)
            tos.append(nxt)
            state = nxt
    return times, froms, tos


def simulate(g, n, T, initial_states, seed, tilt=None, stream_offset=0):
    """Exact simulation of n independent particles over [0, T].

    A zero tilt dispatches to the plain simulator, so the zero-tilt and
    untilted code paths coincide by construction.  Reproducible for fixed
    (inputs, seed): particle k draws only from stream (seed, stream_offset+k).
    """
    if n < 1 or T <= 0:
        raise InvalidInput("need n >= 1 and T > 0")
    initial_states = np.asarray(initial_states, dtype=int)
    if initial_states.size != n:
        raise InvalidInput("one initial state per particle")
    Q = g.q
    J = g.size
    off = Q.copy()
    np.fill_diagonal(off, 0.0)
    exit_rate = off.sum(axis=1)
    gamma = exit_rate.max()

    tilted = tilt is not None and not tilt.is_zero
    if tilted:
        expo = 2.0 * tilt.max_abs
        if expo > TILT_EXPONENT_CAP:
            raise TiltTooStrong(
                "2 max|xi| = %.3g exceeds the thinning cap %.3g"
                % (expo, TILT_EXPONENT_CAP))
        if gamma * math.exp(expo) * T * n > PROPOSAL_BUDGET:
            raise TiltTooStrong("thinning proposal budget exceeded")

    cum_rates = [np.cumsum(off[i]) for i in range(J)]

    all_t, all_p, all_f, all_to = [], [], [], []
    for k in range(n):
        rng = particle_rng(seed, stream_offset + k)
        st = int(initial_states[k])
        if tilted:
            ts, fs, tos = _simulate_particle_tilted(rng, st, T, Q, exit_rate,
                                                    tilt)
        else:
            ts, fs, tos = _simulate_particle_plain(rng, st, T, exit_rate,
                                                   cum_rates)
        all_t.extend(ts)
        all_p.extend([k] * len(ts))
        all_f.extend(fs)
        all_to.extend(tos)

    order = np.argsort(np.asarray(all_t), kind="stable")
    return ParticlePath(
        n=n, horizon=float(T), initial_states=initial_states,
        jump_times=np.asarray(all_t, dtype=float)[order],
        jump_particles=np.asarray(all_p, dtype=int)[order],
        jump_from=np.asarray(all_f, dtype=int)[order],
        jump_to=np.asarray(all_to, dtype=int)[order],
        meta={"seed": seed, "stream_offset": stream_offset,
              "tilted": bool(tilted)})


def empirical_measure_path(path, grid, J=None):
    """Right-continuous empirical measure at the grid times (entries are
    multiples of 1/n)."""
    grid = np.asarray(grid, dtype=float)
    if np.any(grid < 0) or np.any(grid > path.horizon + 1e-12):
        raise InvalidInput("grid must lie inside [0, T]")
    if J is None:
        J = int(max(path.initial_states.max(initial=0),
                    path.jump_to.max(initial=0),
                    path.jump_from.max(initial=0))) + 1
    counts = np.bincount(path.initial_states, minlength=J).astype(float)
    out = np.empty((grid.size, J))
    ev = 0
    n_ev = path.jump_times.size
    for gi, t in enumerate(grid):
        while ev < n_ev and path.jump_times[ev] <= t:
            counts[path.jump_from[ev]] -= 1.0
            counts[path.jump_to[ev]] += 1.0
            ev += 1
        out[gi] = counts / path.n
    return out


def _exp_integral_linear(c0, c1, a, b):
    """int_a^b exp(c0 + c1 t) dt, exact."""
    if abs(c1) * (b - a) < 1e-8:
        # Trapezoid is exact to O((c1 dt)^2) <= 1e-16 here.
        return 0.5 * (b - a) * (math.exp(c0 + c1 * a) + math.exp(c0 + c1 * b))
    return (math.exp(c0 + c1 * b) - math.exp(c0 + c1 * a)) / c1


def _interval_h_integral_analytic(state, a, b, Q, tilt):
    """int_a^b H(1_state, xi_t) dt in closed form (xi piecewise linear)."""
    total = 0.0
    row = Q[state]
    for t0, t1 in tilt.segments_between(a, b):
        xi0 = tilt.value_at(t0)
        xi1 = tilt.value_at(t1)
        for j in range(row.size):
            if j == state or row[j] == 0.0:
                continue
            d0 = xi0[j] - xi0[state]
            d1 = xi1[j] - xi1[state]
            slope = (d1 - d0) / (t1 - t0)
            c0 = d0 - slope * t0
            total += row[j] * (_exp_integral_linear(c0, slope, t0, t1)
                               - (t1 - t0))
    return total


def _interval_h_integral_gauss(state, a, b, Q, tilt, nodes):
    x, w = nodes
    row = Q[state]
    total = 0.0
    for t0, t1 in tilt.segments_between(a, b):
        m0 = 0.5 * (t0 + t1)
        h0 = 0.5 * (t1 - t0)
        acc = 0.0
        for xk, wk in zip(x, w):
            t = m0 + h0 * xk
            xi = tilt.value_at(t)
            val = 0.0
            for j in range(row.size):
                if j != state and row[j] != 0.0:
                    val += row[j] * math.expm1(xi[j] - xi[state])
            acc += wk * val
        total += h0 * acc
    return total


def _particle_intervals(path, k):
    """Constant-state intervals (a, b, state) of particle k covering [0, T]."""
    ts, fs, tos = path.jumps_of_particle(k)
    segs = []
    t_prev = 0.0
    state = int(path.initial_states[k])
    for t, f, to in zip(ts, fs, tos):
        segs.append((t_prev, float(t), state))
        t_prev = float(t)
        state = int(to)
    segs.append((t_prev, path.horizon, state))
    return segs


def girsanov_log_density(path, tilt, g, method="analytic"):
    """(1/n) log of the tilted path density against the original law.

    Per particle: xi_T(x_{T-}) - xi_0(x_0) - int [xi'_t(x_t) + H(1_{x_t},
    xi_t)] dt, with the xi' integral telescoping exactly and the H integral
    in closed form per constant-state interval.  `method="gauss"` switches
    the H integral to 16-node Gauss-Legendre with an 8-node error estimate;
    a QuadratureWarning is emitted if the estimate exceeds 1e-9.
    """
    Q = g.q
    xi_0 = tilt.value_at(0.0)
    xi_T = tilt.value_at(path.horizon)
    total = 0.0
    worst_quad = 0.0
    for k in range(path.n):
        segs = _particle_intervals(path, k)
        x0 = int(path.initial_states[k])
        xT = segs[-1][2]
        acc = xi_T[xT] - xi_0[x0]
        for a, b, state in segs:
            # int xi'_t(x_t) dt over a constant-state interval is exact.
            acc -= tilt.value_at(b)[state] - tilt.value_at(a)[state]
            if method == "analytic":
                acc -= _interval_h_integral_analytic(state, a, b, Q, tilt)
            else:
                v16 = _interval_h_integral_gauss(state, a, b, Q, tilt, _GAUSS16)
                v8 = _interval_h_integral_gauss(state, a, b, Q, tilt, _GAUSS8)
                worst_quad = max(worst_quad, abs(v16 - v8))
                acc -= v16
        total += acc
    if method != "analytic" and worst_quad > 1e-9:
        warnings.warn("quadrature error estimate %.3e" % worst_quad,
                      QuadratureWarning)
    return total / path.n


def path_pairing_functional(path, tilt, g):
    """G(rho, xi) = int <xi, rho'> - H(rho_t, xi_t) dt for an empirical path.

    Independent route: the pairing is the jump sum (1/n) sum_m
    [xi_{tau_m}(to) - xi_{tau_m}(from)] and the H integral uses Gauss
    quadrature on the piecewise-constant empirical measure.
    """
    pairing = 0.0
    for t, i, j in zip(path.jump_times, path.jump_from, path.jump_to):
        xi = tilt.value_at(float(t))
        pairing += xi[j] - xi[i]
    pairing /= path.n

    # H integral: piecewise-constant rho between event times (the tilt's own
    # knots are handled inside segments_between).
    cuts = np.unique(np.concatenate([[0.0, path.horizon], path.jump_times]))
    Q = g.q
    J = Q.shape[0]
    counts = np.bincount(path.initial_states, minlength=J).astype(float)
    ev = 0
    n_ev = path.jump_times.size
    x, w = _GAUSS16
    h_int = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        rho = counts / path.n
        for t0, t1 in tilt.segments_between(float(a), float(b)):
            m0 = 0.5 * (t0 + t1)
            h0 = 0.5 * (t1 - t0)
            acc = 0.0
            for xk, wk in zip(x, w):
                xi = tilt.value_at(m0 + h0 * xk)
                acc += wk * float(
                    np.sum(rho[:, None] * Q * np.expm1(xi[None, :] - xi[:, None])))
            h_int += h0 * acc
        while ev < n_ev and path.jump_times[ev] <= b:
            counts[path.jump_from[ev]] -= 1.0
            counts[path.jump_to[ev]] += 1.0
            ev += 1
    return pairing - h_int


def mollify_path(states, window=5):
    """Centered moving average down the time axis (shrinking windows at the
    ends), then renormalized; empirical paths are piecewise constant and the
    cost functional needs an absolutely continuous representative."""
    if window < 1 or window % 2 == 0:
        raise InvalidInput("window must be a positive odd integer")
    states = np.asarray(states, dtype=float)
    if window == 1:
        return states.copy()
    half = window // 2
    out = np.empty_like(states)
    T = states.shape[0]
    for t in range(T):
        lo = max(0, t - half)
        hi = min(T, t + half + 1)
        out[t] = states[lo:hi].mean(axis=0)
    return out / out.sum(axis=1, keepdims=True)


def path_rate_functional(times, states, g, tol=convex.DEFAULT_TOL,
                         mollify_window=None, interior_floor=1e-9):
    """I_T = int L(rho_t, rho'_t) dt on a uniform grid.

    rho' by central differences (one-sided at the ends), L by Newton
    conjugation with warm starts, trapezoid in time.  Returns the value with
    a per-time breakdown and the per-time maximizers ("knots"), which are the
    optimal tilt at the grid times (see `optimal_tilt`).  Empirical inputs
    should be mollified (window reported alongside results).
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    dt = times[1] - times[0]
    if np.abs(np.diff(times) - dt).max() > 1e-9 * max(dt, 1.0):
        raise InvalidInput("time grid must be uniform")
    if mollify_window is not None:
        states = mollify_path(states, mollify_window)
        states = np.stack([markov.project_interior(r, interior_floor)
                           for r in states])
    M = times.size
    sdot = np.empty_like(states)
    sdot[1:-1] = (states[2:] - states[:-2]) / (2.0 * dt)
    sdot[0] = (states[1] - states[0]) / dt
    sdot[-1] = (states[-1] - states[-2]) / dt

    per_time = np.empty(M)
    knots = np.empty_like(states)
    x0 = None
    for m in range(M):
        try:
            res = markov.lagrangian(states[m], convex.project_zero_sum(sdot[m]),
                                    g, tol=tol, x0=x0)
        except UnboundedConjugate as exc:
            raise UnboundedConjugate(
                "cost unbounded at t = %.6g: %s" % (times[m], exc)) from exc
        per_time[m] = res.value
        knots[m] = x0 = res.argmax
    weights = np.full(M, dt)
    weights[0] = weights[-1] = 0.5 * dt
    value = float(weights @ per_time)
    return {"value": value, "per_time": per_time, "times": times,
            "knots": knots, "mollify_window": mollify_window}


def tightness_stats(path, g, M=None):
    """Per-particle jump statistics and the Chernoff envelope
    exp(-n M / 2) * exp(n gamma T (e - 1)) at a configurable M."""
    counts = path.jumps_per_particle()
    gamma = g.max_exit_rate
    T = path.horizon
    if M is None:
        M = 2.0 * gamma * T * (math.e - 1.0) + 1.0
    exponent = path.n * (gamma * T * (math.e - 1.0) - M / 2.0)
    return {
        "mean_jumps": float(counts.mean()),
        "max_jumps": int(counts.max()),
        "gamma": gamma,
        "M": float(M),
        "chernoff_exponent": float(exponent),
        "chernoff_bound_rhs": float(math.exp(min(exponent, 700.0))),
    }


def _tilt_from_knots(times, knots):
    if np.abs(knots - knots[0]).max() < 1e-12:
        return TiltField.constant(knots[0], float(times[-1]))
    return TiltField.piecewise_linear(times, knots)


def optimal_tilt(times, states, g, tol=convex.DEFAULT_TOL):
    """Tilt that makes the target path typical: at each node, the maximizer
    of <xi, rho'> - H(rho, xi), i.e. the stationarity condition
    D_xi H(rho, xi) = rho'.  These are the knots of `path_rate_functional`."""
    rate = path_rate_functional(times, states, g, tol=tol)
    return _tilt_from_knots(rate["times"], rate["knots"])


def _one_replica(g, n, T, init, seed, tilt, stream_offset, grid, target,
                 tube):
    p = simulate(g, n, T, init, seed, tilt=tilt, stream_offset=stream_offset)
    emp = empirical_measure_path(p, grid, J=g.size)
    dist = float(np.abs(emp - target).max())
    G = girsanov_log_density(p, tilt, g)
    return {"hit": dist <= tube, "distance": dist, "G": float(G),
            "jumps": int(p.jump_times.size)}


def rate_vs_probability_experiment(g, target_times, target_states,
                                   tube_radius, n_list, replicas, seed,
                                   ess_threshold=0.1):
    """Tilt-then-reweight estimate of tube probabilities against I_T.

    For each n: simulate `replicas` copies of n particles under the
    optimally tilted generator (all particles start from the deterministic
    assignment matching target(0), so the initial cost is 0 to 1/n
    precision), count sup-norm tube hits, reweight by exp(-n G), and report
    -(1/n) log p-hat next to I_T(target).  Plain Monte Carlo is reported
    only when n * I_T is small enough for hits to be observable.

    The sup-norm-on-grid tube is a declared surrogate for the pathwise
    topology of the underlying theory; estimates are labelled accordingly.
    Zero hits give an infinite estimate (reported, not fatal); a small
    effective sample size sets `variance_flagged`.
    """
    target_times = np.asarray(target_times, dtype=float)
    target_states = np.asarray(target_states, dtype=float)
    T = float(target_times[-1])
    rate = path_rate_functional(target_times, target_states, g)
    I_T = rate["value"]
    tilt = _tilt_from_knots(target_times, rate["knots"])

    results = {}
    per_replica_rows = []
    for ni, n in enumerate(n_list):
        init = deterministic_assignment(target_states[0], n)
        rows = [_one_replica(g, n, T, init, seed, tilt, (ni * replicas + r) * n,
                             target_times, target_states, tube_radius)
                for r in range(replicas)]
        hits = np.array([r["hit"] for r in rows])
        Gs = np.array([r["G"] for r in rows])
        log_w = -n * Gs
        for r, row in enumerate(rows):
            per_replica_rows.append({"n": n, "replica": r, "hit": int(row["hit"]),
                                     "G": row["G"],
                                     "log_weight": float(-n * row["G"]),
                                     "distance": row["distance"]})
        if hits.any():
            log_sum = float(logsumexp(log_w[hits]))
            log_p = log_sum - math.log(replicas)
            estimate = -log_p / n
            # Delta-method standard error of -(1/n) log p-hat.
            w_shift = np.exp(log_w[hits] - log_w[hits].max())
            mean_w = w_shift.sum() / replicas
            var_w = (np.sum((w_shift - mean_w) ** 2)
                     + (replicas - hits.sum()) * mean_w ** 2) / (replicas - 1)
            se_log = math.sqrt(var_w / replicas) / mean_w
            se_estimate = se_log / n
            ess = float(w_shift.sum() ** 2 / np.sum(w_shift ** 2))
            inf_estimate = False
        else:
            estimate = math.inf
            se_estimate = math.inf
            ess = 0.0
            inf_estimate = True
        plain = None
        if n * I_T < 10.0:
            plain_hits = 0
            for r in range(replicas):
                stream_offset = ((len(n_list) + ni) * replicas + r) * n
                p = simulate(g, n, T, init, seed, stream_offset=stream_offset)
                emp = empirical_measure_path(p, target_times, J=g.size)
                if float(np.abs(emp - target_states).max()) <= tube_radius:
                    plain_hits += 1
            plain = {"hits": plain_hits,
                     "estimate": (-math.log(plain_hits / replicas) / n
                                  if plain_hits else math.inf)}
        results[str(n)] = {
            "estimate": float(estimate),
            "standard_error": float(se_estimate),
            "hit_fraction": float(hits.mean()),
            "effective_sample_size": ess,
            "variance_flagged": bool(ess < ess_threshold * replicas),
            "inf_estimate": inf_estimate,
            "relative_deviation_from_rate": (
                float(estimate / I_T - 1.0) if np.isfinite(estimate) and I_T > 0
                else None),
            "log_weight_sd": float(np.std(log_w)),
            "plain_monte_carlo": plain,
        }
    # Exactness spot check: both G routes on one fresh replica.
    p0 = simulate(g, max(n_list[0], 1), T,
                  deterministic_assignment(target_states[0], n_list[0]), seed,
                  tilt=tilt, stream_offset=10 ** 9)
    g_a = girsanov_log_density(p0, tilt, g)
    g_b = path_pairing_functional(p0, tilt, g)
    report = {
        "rate_functional": I_T,
        "initial_cost_note": "deterministic start matching target(0); "
                             "initial-datum cost 0 to 1/n precision",
        "tube_radius": tube_radius,
        "tube_metric": "sup over grid times of l-infinity distance "
                       "(declared surrogate for the pathwise topology)",
        "n_list": list(n_list),
        "replicas": replicas,
        "seed": seed,
        "estimates": results,
        "girsanov_consistency_abs_gap": float(abs(g_a - g_b)),
        "tilt": {"kind": tilt.smoothness, "max_abs": tilt.max_abs},
    }
    return report, per_replica_rows
