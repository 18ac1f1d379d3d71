"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's Newton machinery: dense
grid search for conjugates, closed-form root formulas for the two-state
cost, logarithmic means written from scratch, central differences for
gradients and Hessians, a birth-death filtering computation of tube
probabilities, the particle streams built from scratch and a replay of a
particle path's per-particle state sequence.
"""

from pathlib import Path

import numpy as np
import pytest

import chains
from ldgrad.errors import InvalidInput


@pytest.fixture
def two_state():
    return chains.two_state_symmetric()


@pytest.fixture
def cyclic():
    return chains.three_state_cycle()


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's `workloads` module, read from bench/, which must be
    on sys.path for its own `import checks` (`bench.checks`)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "bench"))
    import workloads
    return workloads


def grid_search_conjugate_2state(pair_slope, hfun, lo=-10.0, hi=10.0,
                                 step=1e-4):
    """Dense 1-D grid maximization of u * pair_slope - hfun(u) where u is the
    coordinate difference xi_1 - xi_2 of a zero-sum covector."""
    u = np.arange(lo, hi + step / 2, step)
    vals = u * pair_slope - hfun(u)
    k = int(np.argmax(vals))
    return float(vals[k]), float(u[k])


def two_state_cost_closed_form(rho, s1, q12, q21):
    """L(rho, s) for a two-state chain from the stationarity quadratic:
    the maximizing y = e^{xi_2 - xi_1} solves rho_1 q12 y^2 + s_1 y -
    rho_2 q21 = 0 (positive root)."""
    a = rho[0] * q12
    c = rho[1] * q21
    y = (-s1 + np.sqrt(s1 * s1 + 4 * a * c)) / (2 * a)
    d = np.log(y)
    # <xi, s> = -s_1 * d with d = xi_2 - xi_1
    return float(-s1 * d - a * (y - 1.0) - c * (1.0 / y - 1.0))


def cosh_conjugate(y):
    """cosh*(y) = y asinh(y) - sqrt(1 + y^2)."""
    return y * np.arcsinh(y) - np.sqrt(1.0 + y * y)


def log_mean(a, b):
    """Independent logarithmic mean used to cross-check family weights."""
    if abs(a - b) < 1e-12 * max(a, b):
        return 0.5 * (a + b)
    return (a - b) / (np.log(a) - np.log(b))


def birth_death_tube_logp(n, T, dt, center, radius, rate=1.0):
    """Exact log-probability that the occupation fraction of state 1 stays
    within `radius` of `center` at every grid time, for n independent
    symmetric two-state particles (birth-death filtering)."""
    from scipy.sparse import diags
    from scipy.sparse.linalg import expm_multiply

    k = np.arange(n + 1)
    birth = rate * (n - k).astype(float)
    death = rate * k.astype(float)
    Q = diags([death[1:], -(birth + death), birth[:-1]],
              offsets=[-1, 0, 1], format="csc")
    lo = int(np.ceil((center - radius) * n))
    hi = int(np.floor((center + radius) * n))
    mask = (k >= lo) & (k <= hi)
    v = np.zeros(n + 1)
    v[int(round(center * n))] = 1.0
    QT = (Q.T * dt).tocsc()
    for _ in range(int(round(T / dt))):
        v = expm_multiply(QT, v)
        v[~mask] = 0.0
    return float(np.log(v.sum()))


def finite_diff_gradient(f, x, h):
    """Central-difference gradient of a scalar function, O(h^2) for C^3 f."""
    if h <= 0:
        raise InvalidInput("step h must be positive")
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fp, fm = f(x + e), f(x - e)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise InvalidInput("function not finite at stencil point")
        g[i] = (fp - fm) / (2.0 * h)
    return g


def finite_diff_hessian(grad):
    """x -> the symmetrized central-difference Jacobian of `grad` at x, with
    the step 1e-6 (1 + |x|_inf)."""
    def hess(x):
        h = 1e-6 * (1.0 + np.abs(x).max())
        n = x.size
        H = np.empty((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            H[:, i] = (grad(x + e) - grad(x - e)) / (2.0 * h)
        return 0.5 * (H + H.T)

    return hess


def random_interior(rng, J, floor=1e-6):
    r = rng.dirichlet(np.ones(J))
    r = np.clip(r, floor, None)
    return r / r.sum()


def random_zero_sum(rng, J, scale=1.0):
    v = scale * rng.standard_normal(J)
    return v - v.mean()


def particle_rng(seed, stream):
    """Counter-based generator for one particle stream, key (seed, stream):
    the reference for `particle.ParticleStreams`."""
    mask = (1 << 64) - 1
    key = np.array([seed & mask, stream & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def assert_path_consistent(path):
    """Jump times time-sorted in (0, T], no self-jumps, and every jump
    leaving the state its particle is in."""
    times = path.jump_times
    assert np.all(times > 0) and np.all(times <= path.horizon)
    assert np.all(np.diff(times) >= 0)
    assert np.all(path.jump_from != path.jump_to)
    state = path.initial_states.copy()
    for k, i, j in zip(path.jump_particles, path.jump_from, path.jump_to):
        assert state[k] == i
        state[k] = j
