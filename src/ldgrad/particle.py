"""Independent-particle simulation and pathwise rate-functional machinery.

n independent continuous-time Markov particles are simulated exactly under
a time-dependent tilt, with rates Q_ij e^{xi_t(j) - xi_t(i)}, by thinning all
particles at once against a per-state bound on each knot segment of the tilt
(the exit rate is convex there, so its larger end value bounds it).  An
untilted run is the zero tilt, whose bound is the exit rate itself, so every
proposal is a jump.  Every particle draws from its own counter-based Philox
stream keyed by (seed, stream id), so a particle's path does not depend on n
or on the other particles.

The pathwise objects follow two deliberately independent computational
routes that must agree to GIRSANOV_TOL = 1e-10:

  * `girsanov_log_density` sums the boundary-minus-integral form of the
    tilted log density over the jump list, with one per-state table
    Phi_i(t) = xi_t(i) + int_0^t H(1_i, xi_u) du whose integral is in
    closed form on each knot segment of the tilt,
  * `path_pairing_functional` evaluates G(rho, xi) = int <xi, rho'> -
    H(rho_t, xi_t) dt from the jump-sum pairing and 16-node Gauss-Legendre
    quadrature of the dense H integrand on the piecewise-constant
    empirical measure.

`path_rate_functional` integrates the cost L(rho_t, rho_t') along a measure
path, and `rate_vs_probability_experiment` runs the tilt-then-reweight
estimate of tube probabilities against that cost, on replicas that are
blocks of particles of one run, analysed together without a path each.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import convex, markov
from .errors import (InvalidInput, ThinningBoundExceeded, TiltTooStrong,
                     UnboundedConjugate)

TILT_EXPONENT_CAP = 60.0
PROPOSAL_BUDGET = 5e7
# Relative slack for a tilted rate against its bound: far above the rounding
# of the interpolated tilt (about 1e-14 at the exponent cap), far below any
# real bound error.
BOUND_SLACK = 1e-10
# Uniforms (or bound-table entries) per particle chunk held at once by the
# tilted thinning, 8 MB of doubles.
THINNING_BLOCK = 1 << 20
ESS_THRESHOLD = 0.1
# The agreement of the two routes of the module docstring.
GIRSANOV_TOL = 1e-10


def deterministic_assignment(rho0, n):
    """Largest-remainder rounding of n * rho0 into per-state counts, then
    states listed in index order.  Makes the initial empirical measure match
    rho0 to 1/n precision with no randomness."""
    rho0 = markov.as_simplex(rho0, "rho0")
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
        """xi_t, clamped to the first/last knot value outside the knots: one
        row per time of an array t, shape (J,) for a scalar t."""
        t = np.asarray(t, dtype=float)
        tt = self.knot_times
        k = np.searchsorted(tt, t, side="right") - 1
        lo = np.maximum(k, 0)
        hi = np.minimum(k + 1, tt.size - 1)
        span = tt[hi] - tt[lo]  # 0 where clamped
        lam = np.divide(t - tt[lo], span, out=np.zeros(t.shape),
                        where=span > 0)[..., None]
        kv = self.knot_values
        return (1.0 - lam) * kv[lo] + lam * kv[hi]


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

    def __post_init__(self):
        # The state and particle arrays are used as indices, also when empty.
        for name in ("initial_states", "jump_particles", "jump_from",
                     "jump_to"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=int))


def _tilted_rates(off, xi, states):
    """Row r: the tilted rates off_ij e^{xi_r(j) - xi_r(i)} out of i =
    states[r] (0 at j = i, because off has a zero diagonal)."""
    return off[states] * np.exp(xi - xi[np.arange(states.size), states][:, None])


def _thinning_table(tilt, off, T):
    """Cuts 0 = c_0 < ... < c_S = T (the tilt knots inside (0, T)), xi at the
    cuts, the bound b[s, i] on the exit rate lambda_i on segment s, and
    Lam[s, i] = int_0^{c_s} b(u, i) du.

    xi is linear on each segment, so lambda_i(t) = sum_j off_ij e^{xi_t(j) -
    xi_t(i)}, a sum of exponentials of linear functions, is convex there and
    peaks at an end: b[s, i] = max(lambda_i(c_s), lambda_i(c_{s+1})).
    """
    tt = tilt.knot_times
    c = np.concatenate([[0.0], tt[(tt > 0.0) & (tt < T)], [float(T)]])
    xc = tilt.value_at(c)
    J = off.shape[0]
    rates = _tilted_rates(off, np.repeat(xc, J, axis=0),
                          np.tile(np.arange(J), c.size))
    lam = np.cumsum(rates, axis=1)[:, -1].reshape(c.size, J)
    b = np.maximum(lam[:-1], lam[1:])
    Lam = np.zeros((c.size, J))
    Lam[1:] = np.cumsum(b * np.diff(c)[:, None], axis=0)
    return c, xc, b, Lam


def _block_width(b, c):
    """Uniforms per stream block: two per proposal, for the mean plus 4
    standard deviations plus 2 of the at most 1 + Poisson(int max_i b)
    proposals of a particle, rounded up to a multiple of 4 (the words a
    Philox counter step makes).  A particle that uses up its block reads the
    next block of its stream."""
    top = float(b.max(axis=1) @ np.diff(c))
    return 4 * math.ceil((top + 4.0 * math.sqrt(top) + 2.0) / 2.0)


def _simulate_tilted(streams, stream_offset, initial_states, T, off, tilt):
    """Thinning for all particles at once; returns (times, particles, froms,
    tos, proposals) with the jumps in step order.

    A particle in state i at level Lam_i(t) proposes the time where Lam_i
    reaches Lam_i(t) + E, E ~ Exp(1): one step per proposal, whatever the
    number of knots, and never onto a segment where b = 0 (Lam_i is flat
    there).  The proposal at t' is accepted when u b < lambda_i(t'), and the
    same u b picks the target against the cumulative rates, so a proposal
    takes exactly two uniforms.  Particle k reads them in order from its own
    stream (seed, stream_offset + k), in blocks whose width depends only on
    the inputs, so its path does not depend on n, on the other particles or
    on the block width.
    """
    c, xc, b, Lam = _thinning_table(tilt, off, T)
    S = c.size - 1
    width = _block_width(b, c)
    chunk = max(1, THINNING_BLOCK // max(width, S + 1))
    n = initial_states.size
    jumps = []
    proposals = 0
    for lo in range(0, n, chunk):
        ks = np.arange(lo, min(lo + chunk, n))
        U = np.empty((ks.size, width))
        for r, k in enumerate(ks):
            streams.at(stream_offset + k).random(out=U[r])
        base = np.zeros(ks.size, dtype=int)  # stream position of U[r, 0]
        col = np.zeros(ks.size, dtype=int)
        state = initial_states[ks].copy()
        level = np.zeros(ks.size)
        live = np.arange(ks.size)
        while live.size:
            for r in live[col[live] == width]:
                base[r] += width
                col[r] = 0
                streams.at(stream_offset + ks[r], base[r]).random(out=U[r])
            u1 = U[live, col[live]]
            u2 = U[live, col[live] + 1]
            col[live] += 2
            st = state[live]
            target = level[live] - np.log1p(-u1)
            s = (Lam.T[st] <= target[:, None]).sum(axis=1) - 1
            go = s < S  # else Lam_i(T) <= target: no proposal before T
            live, s, st, target, u2 = (a[go] for a in (live, s, st, target, u2))
            tp = c[s] + (target - Lam[s, st]) / b[s, st]
            go = tp < T  # rounding can put a proposal at the end of [0, T]
            live, s, st, target, u2, tp = (a[go] for a in (live, s, st, target,
                                                           u2, tp))
            proposals += live.size
            w = ((tp - c[s]) / (c[s + 1] - c[s]))[:, None]
            cum = np.cumsum(_tilted_rates(off, (1.0 - w) * xc[s] + w * xc[s + 1],
                                          st), axis=1)
            lam = cum[:, -1]
            bound = b[s, st]
            over = lam > bound * (1.0 + BOUND_SLACK)
            if over.any():
                r = int(np.argmax(over))
                raise ThinningBoundExceeded(
                    "tilted exit rate %.17g exceeds its thinning bound %.17g "
                    "at t = %.17g" % (lam[r], bound[r], tp[r]))
            v = u2 * bound
            acc = v < lam
            nxt = (cum[acc] <= v[acc, None]).sum(axis=1)
            jumps.append((tp[acc], ks[live[acc]], st[acc], nxt))
            level[live] = target
            hit = live[acc]
            state[hit] = nxt
            sa = s[acc]
            level[hit] = Lam[sa, nxt] + b[sa, nxt] * (tp[acc] - c[sa])
    times, parts, froms, tos = (np.concatenate(a) for a in zip(*jumps))
    return times, parts, froms, tos, proposals


class ParticleStreams:
    """The particle streams of one seed, stream k the Philox generator keyed
    by (seed, k), read through one reused bit generator: setting its state
    costs a fraction of constructing one.  Keys lie in [0, 2^64)."""

    def __init__(self, seed):
        self._key = np.array([int(seed), 0], dtype=np.uint64)
        self._counter = np.zeros(4, dtype=np.uint64)
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": self._counter, "key": self._key},
                       "buffer": np.zeros(4, dtype=np.uint64),
                       "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self._bitgen = np.random.Philox(key=self._key)
        self._rng = np.random.Generator(self._bitgen)

    def at(self, stream, position=0):
        """The generator positioned `position` uniforms into `stream`;
        `position` is a multiple of 4."""
        self._key[1] = int(stream)
        self._counter[0] = position // 4
        self._bitgen.state = self._state
        return self._rng


def simulate(g, n, T, initial_states, seed, tilt=None, stream_offset=0):
    """Exact simulation of n independent particles over [0, T].

    All particles are thinned at once under the per-state, per-knot-segment
    bound of `_thinning_table`; no tilt is the zero tilt, whose bound is the
    exit rate, so every proposal is accepted.  The paths carry
    `meta["proposals"]` and `meta["accepted"]` (the number of jumps), and
    `meta["tilted"]` says whether the tilt is nonzero; the cap and budget
    guards apply only then.  Reproducible for fixed (inputs, seed): particle
    k draws only from stream (seed, stream_offset + k), so each particle's
    path is the same in any n-particle run.
    """
    if n < 1 or T <= 0:
        raise InvalidInput("need n >= 1 and T > 0")
    initial_states = np.asarray(initial_states, dtype=int)
    if initial_states.size != n:
        raise InvalidInput("one initial state per particle")
    off = g.q.copy()
    np.fill_diagonal(off, 0.0)
    if tilt is None:
        tilt = TiltField.constant(np.zeros(g.size), T)

    tilted = not tilt.is_zero
    if tilted:
        expo = 2.0 * tilt.max_abs
        if expo > TILT_EXPONENT_CAP:
            raise TiltTooStrong(
                "2 max|xi| = %.3g exceeds the thinning cap %.3g"
                % (expo, TILT_EXPONENT_CAP))
        gamma = off.sum(axis=1).max()
        if gamma * math.exp(expo) * T * n > PROPOSAL_BUDGET:
            raise TiltTooStrong("thinning proposal budget exceeded")

    times, parts, froms, tos, proposals = _simulate_tilted(
        ParticleStreams(seed), stream_offset, initial_states, float(T), off,
        tilt)
    meta = {"seed": seed, "stream_offset": stream_offset, "tilted": tilted,
            "proposals": proposals, "accepted": int(times.size)}
    # Time order, ties by particle (each particle's own jumps are increasing).
    order = np.lexsort((parts, times))
    return ParticlePath(
        n=n, horizon=float(T), initial_states=initial_states,
        jump_times=times[order], jump_particles=parts[order],
        jump_from=froms[order], jump_to=tos[order], meta=meta)


def _replica_counts(owner, states, R, J):
    """(R, J) counts of `states` by replica, `owner` giving the replica of
    each entry."""
    return np.bincount(owner * J + states, minlength=R * J).reshape(R, J)


def empirical_measure_path(path, grid, J, replicas=None):
    """Right-continuous empirical measure at the grid times, shape
    (grid.size, J), entries multiples of 1/n.  With `replicas` = R, one
    measure per replica of m = n / R particles (replica r is particles r m
    .. r m + m - 1), shape (R, grid.size, J), entries multiples of 1/m."""
    grid = np.asarray(grid, dtype=float)
    if np.any(grid < 0) or np.any(grid > path.horizon + 1e-12):
        raise InvalidInput("grid must lie inside [0, T]")
    if np.any(np.diff(grid) < 0):
        raise InvalidInput("grid times must be nondecreasing")
    R = replicas or 1
    m = path.n // R
    # A jump at tau counts from the first grid time >= tau on.
    cell = (path.jump_particles // m * (grid.size + 1)
            + np.searchsorted(grid, path.jump_times, side="left"))

    def arrivals(states):
        return _replica_counts(cell, states, R * (grid.size + 1), J)

    moves = (arrivals(path.jump_to)
             - arrivals(path.jump_from)).reshape(R, grid.size + 1, J)
    start = _replica_counts(np.arange(path.n) // m, path.initial_states, R, J)
    emp = (start[:, None] + np.cumsum(moves[:, :-1], axis=1)) / m
    return emp if replicas else emp[0]


def _h_integral(tilt, Q, t, i):
    """F_i(t) = int_0^t H(1_i, xi_u) du for each pair (t, i) of the 1-D
    arrays t and i.

    The knots cut time into segments s = 0..K (s = searchsorted(knots, t,
    "right")).  On each, xi is linear from the knot it starts at (constant
    before the first knot and after the last), so every edge term Q_ij
    (e^{xi_u(j) - xi_u(i)} - 1) integrates in closed form; the diagonal term
    is exactly 0.  One evaluation covers every inner segment for every state
    (their cumulative sums tabulate the integral from the first knot to each
    knot), t = 0 for every state (the anchor, so that F_i(0) = 0) and the
    requested pairs.
    """
    tt, kv = tilt.knot_times, tilt.knot_values
    K, J = kv.shape
    slope = np.zeros((K + 1, J))
    slope[1:K] = np.diff(kv, axis=0) / np.diff(tt)[:, None]
    states = np.arange(J)
    whole = (K - 1) * J
    t_all = np.concatenate([np.repeat(tt[1:], J), np.zeros(J), t])
    i_all = np.concatenate([np.tile(states, K - 1), states, i])
    s = np.searchsorted(tt, t_all, side="right")
    s[:whole] -= 1  # a knot closes the segment it ends
    b = np.maximum(s - 1, 0)
    dt = t_all - tt[b]
    d = kv[b] - kv[b, i_all][:, None]
    x = (slope[s] - slope[s, i_all][:, None]) * dt[:, None]
    phi1 = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0)
    part = (Q[i_all] * (np.exp(d) * phi1 - 1.0)).sum(axis=1) * dt
    at_knot = np.zeros((K, J))
    at_knot[1:] = np.cumsum(part[:whole].reshape(K - 1, J), axis=0)
    A = at_knot[b[whole:], i_all[whole:]] + part[whole:]
    return A[J:] - A[:J][i]


def girsanov_log_density(path, tilt, g, replicas=None):
    """(1/n) log of the tilted path density against the original law.

    Per particle the log density is xi_T(x_T) - xi_0(x_0) - int [xi'_t(x_t)
    + H(1_{x_t}, xi_t)] dt.  With the per-state table Phi_i(t) = xi_t(i) +
    F_i(t), where F_i(t) = int_0^t H(1_i, xi_u) du in closed form
    (`_h_integral`), summing over particles by parts gives

        n G = sum_jumps [Phi_to(tau) - Phi_from(tau)] - sum_i N_i(T) F_i(T),

    with N_i(T) the number of particles in state i at T: array operations
    over the jump list, no per-particle loop.  `path_pairing_functional` is
    the independent reference route.

    With `replicas` = R, an array of one G per replica of m = n / R
    particles (as in `empirical_measure_path`), each with the bits of its
    own m-particle path: a replica's jump terms are summed on their own, in
    time order.
    """
    J = g.size
    R = replicas or 1
    m = path.n // R
    tau = path.jump_times
    M = tau.size
    F = _h_integral(tilt, g.q,
                    np.concatenate([tau, tau, np.full(J, path.horizon)]),
                    np.concatenate([path.jump_to, path.jump_from,
                                    np.arange(J)]))
    xi = tilt.value_at(tau)
    k = np.arange(M)
    phi_to = xi[k, path.jump_to] + F[:M]
    phi_from = xi[k, path.jump_from] + F[M:2 * M]
    rep = path.jump_particles // m
    order = np.argsort(rep, kind="stable")
    ends = np.cumsum(np.bincount(rep, minlength=R))[:-1]
    jump_sums = [d.sum() for d in np.split((phi_to - phi_from)[order], ends)]
    final = (_replica_counts(np.arange(path.n) // m, path.initial_states, R, J)
             + _replica_counts(rep, path.jump_to, R, J)
             - _replica_counts(rep, path.jump_from, R, J))
    # vecdot takes one dot product per row, as `final @ F` does for one.
    G = (np.array(jump_sums) - np.vecdot(final, F[2 * M:])) / m
    return G if replicas else float(G[0])


@functools.cache
def _gauss16():
    """16-node Gauss-Legendre rule on [-1, 1], built on first use: the
    numpy.polynomial import and the rule take about 10 ms, which commands
    that never integrate should not pay."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(16)


def path_pairing_functional(path, tilt, g):
    """G(rho, xi) = int <xi, rho'> - H(rho_t, xi_t) dt for an empirical path.

    Independent reference route: the pairing is the jump sum (1/n) sum_m
    [xi_{tau_m}(to) - xi_{tau_m}(from)], and the H integral applies 16-node
    Gauss-Legendre quadrature to the dense integrand sum_ij rho_i Q_ij
    expm1(xi_j - xi_i) on every piece where the empirical measure is
    constant and the tilt is linear.
    """
    tau = path.jump_times
    xi = tilt.value_at(tau)
    m = np.arange(tau.size)
    pairing = float((xi[m, path.jump_to] - xi[m, path.jump_from]).sum())
    pairing /= path.n

    Q = g.q
    cuts = np.unique(np.concatenate([[0.0, path.horizon], tau]))
    rhos = empirical_measure_path(path, cuts[:-1], J=Q.shape[0])
    x, w = _gauss16()
    h_int = 0.0
    knots = tilt.knot_times
    for a, b, rho in zip(cuts[:-1], cuts[1:], rhos):
        # The tilt is linear between a, the knots inside (a, b), and b.
        ends = [float(a), *knots[(knots > a) & (knots < b)].tolist(), float(b)]
        for t0, t1 in zip(ends[:-1], ends[1:]):
            h0 = 0.5 * (t1 - t0)
            xi = tilt.value_at(0.5 * (t0 + t1) + h0 * x)
            dense = np.expm1(xi[:, None, :] - xi[:, :, None])
            h_int += h0 * float(w @ (rho[:, None] * Q * dense).sum(axis=(1, 2)))
    return pairing - h_int


def path_rate_functional(times, states, g):
    """I_T = int L(rho_t, rho'_t) dt on a uniform grid.

    rho' by central differences (one-sided at the ends), L by
    `markov.lagrangian` (exact on a tree generator, else Newton conjugation
    with warm starts), trapezoid in time.  Returns the value with a per-time
    breakdown and the per-time maximizers ("knots"): at each grid time the
    xi with D_xi H(rho_t, xi) = rho'_t, so the knots are the tilt that makes
    the path typical (`_tilt_from_knots` interpolates them).
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    dt = times[1] - times[0]
    if np.abs(np.diff(times) - dt).max() > 1e-9 * max(dt, 1.0):
        raise InvalidInput("time grid must be uniform")
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
                                    g, x0=x0)
        except UnboundedConjugate as exc:
            raise UnboundedConjugate(
                "cost unbounded at t = %.6g: %s" % (times[m], exc)) from exc
        per_time[m] = res.value
        knots[m] = x0 = res.argmax
    weights = np.full(M, dt)
    weights[0] = weights[-1] = 0.5 * dt
    value = float(weights @ per_time)
    return {"value": value, "per_time": per_time, "times": times,
            "knots": knots}


def _tilt_from_knots(times, knots):
    if np.abs(knots - knots[0]).max() < 1e-12:
        return TiltField.constant(knots[0], float(times[-1]))
    return TiltField.piecewise_linear(times, knots)


def _logsumexp(a):
    """log sum_i exp(a_i) by the algorithm of scipy.special.logsumexp
    (1.17): the m tied maxima leave the sum, which is then
    log1p(sum_{a_i < a_max} e^{a_i - a_max} / m) + log m + a_max."""
    a_max = a.max()
    tied = a == a_max
    m = float(np.count_nonzero(tied))
    e = np.exp(a - a_max)
    e[tied] = 0.0  # kept in place: the same pairwise-summation order
    return float(np.log1p(e.sum() / m) + np.log(m) + a_max)


def rate_vs_probability_experiment(g, target_times, target_states,
                                   tube_radius, n_list, replicas, seed):
    """Tilt-then-reweight estimate of tube probabilities against I_T.

    For each n: simulate `replicas` copies of n particles under the
    optimally tilted generator (all particles start from the deterministic
    assignment matching target(0), so the initial cost is 0 to 1/n
    precision), count sup-norm tube hits, reweight by exp(-n G), and report
    -(1/n) log p-hat next to I_T(target).  Plain Monte Carlo is reported
    only when n * I_T is small enough for hits to be observable.

    The sup-norm-on-grid tube is a declared surrogate for the pathwise
    topology of the underlying theory; estimates are labelled accordingly.
    Zero hits give an infinite estimate, reported as `inf_estimate` with a
    None (JSON null) `estimate` and `standard_error`, and not fatal; a plain
    Monte Carlo run without hits has a None `estimate`.  An effective sample
    size below ESS_THRESHOLD * replicas sets `variance_flagged`.  `thinning`
    sums the proposals and acceptances of the tilted replicas.

    Each n makes one tilted and at most one plain `simulate` call of n *
    replicas particles, on the stream blocks ni and len(n_list) + ni; replica
    r of block b reads the streams (b * replicas + r) * n onwards.  Returns
    (report, table): the table has one array per column (n, replica, hit,
    G, log_weight, distance) and a row per replica of each n.
    Needs replicas >= 2 and distinct n >= 1 (`cli.cmd_simulate` checks).
    """
    target_times = np.asarray(target_times, dtype=float)
    target_states = np.asarray(target_states, dtype=float)
    T = float(target_times[-1])
    rate = path_rate_functional(target_times, target_states, g)
    I_T = rate["value"]
    tilt = _tilt_from_knots(target_times, rate["knots"])

    def run(n, init, block, tilt=None):
        # All replicas of n particles in one simulate call, on the streams
        # from block * replicas * n on, and each replica's sup-norm distance
        # to the target.
        p = simulate(g, n * replicas, T, np.tile(init, replicas), seed,
                     tilt=tilt, stream_offset=block * replicas * n)
        emp = empirical_measure_path(p, target_times, g.size, replicas)
        return p, np.abs(emp - target_states).max(axis=(1, 2))

    results = {}
    table = {key: [] for key in ("n", "replica", "hit", "G", "log_weight",
                                 "distance")}
    thinning = {"proposals": 0, "accepted": 0}
    for ni, n in enumerate(n_list):
        init = deterministic_assignment(target_states[0], n)
        p, dists = run(n, init, ni, tilt)
        for key in thinning:
            thinning[key] += p.meta[key]
        Gs = girsanov_log_density(p, tilt, g, replicas)
        hits = dists <= tube_radius
        log_w = -n * Gs
        for key, column in zip(table, (np.full(replicas, n),
                                       np.arange(replicas), hits.astype(int),
                                       Gs, log_w, dists)):
            table[key].append(column)
        if hits.any():
            log_sum = _logsumexp(log_w[hits])
            log_p = log_sum - math.log(replicas)
            estimate = -log_p / n
            # Delta-method standard error of -(1/n) log p-hat.
            w_shift = np.exp(log_w[hits] - log_w[hits].max())
            mean_w = w_shift.sum() / replicas
            var_w = (np.sum((w_shift - mean_w) ** 2)
                     + (replicas - hits.sum()) * mean_w ** 2) / (replicas - 1)
            se_log = math.sqrt(var_w / replicas) / mean_w
            se_estimate = float(se_log / n)
            ess = float(w_shift.sum() ** 2 / np.sum(w_shift ** 2))
            inf_estimate = False
        else:
            estimate = None
            se_estimate = None
            ess = 0.0
            inf_estimate = True
        plain = None
        if n * I_T < 10.0:
            plain_hits = int(np.count_nonzero(
                run(n, init, len(n_list) + ni)[1] <= tube_radius))
            plain = {"hits": plain_hits,
                     "estimate": (-math.log(plain_hits / replicas) / n
                                  if plain_hits else None)}
        results[str(n)] = {
            "estimate": estimate,
            "standard_error": se_estimate,
            "hit_fraction": float(hits.mean()),
            "effective_sample_size": ess,
            "variance_flagged": bool(ess < ESS_THRESHOLD * replicas),
            "inf_estimate": inf_estimate,
            "relative_deviation_from_rate": (
                float(estimate / I_T - 1.0) if estimate is not None and I_T > 0
                else None),
            "log_weight_sd": float(np.std(log_w)),
            "plain_monte_carlo": plain,
        }
    # Exactness spot check on one fresh replica: both G routes, and the zero
    # tilt, whose log density is 0 on any path.
    p0 = simulate(g, n_list[0], T,
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
        "thinning": thinning,
        "zero_tilt_girsanov": girsanov_log_density(
            p0, TiltField.constant(np.zeros(g.size), T), g),
    }
    return report, {key: np.concatenate(c) for key, c in table.items()}
