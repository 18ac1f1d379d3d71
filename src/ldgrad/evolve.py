"""Time integration of the linear evolution and of gradient flows.

Flows are integrated by fixed-step classical Runge-Kutta (4th order) on the
uniform grid of `time_grid`, with the one step dt = times[1] - times[0]:
trajectories are deterministic and reproducible.  `exact_linear_solution`,
the reference for the linear flow, sums e^{t Q^T} rho0 by uniformization
instead, in numpy alone.  Mass is renormalized every step (the drift per
step must stay below 1e-12) and a trajectory that leaves the simplex by
more than 1e-6 aborts rather than being clamped.

`_rk4` is the one RK4 formula: the four stages k1..k4 of a field at y and
y + (dt/6)(k1 + 2 k2 + 2 k3 + k4).  The RK4 step of a linear field
y -> Q^T y is itself a matrix, the propagator R = `_rk4` of Y -> Q^T Y
from the identity, so `linear_blocks` builds R once and then takes one
matvec y <- R y per step, where the stages took four.  Building R costs
O(J^3) once against O(J^2) per step, so it pays back once a run has more
than about J steps, as every run of the benchmark in `bench/` and of the
tests does.  R y is the stages' step regrouped, equal to it to rounding,
not bit for bit.

Under detailed balance, which `integrate_gradient_flow` requires, every
gradient flow is linear too: it is the forward equation of the generator
of `GradientStructure.flow_generator`, so it steps through `linear_blocks`
on that generator.  For the exact structure this is K, and K = Q to
rounding, so the gap between the `linear` and `ldp` trajectories compares
the propagators of Q and K: it measures whether the structure's own pi
balances Q, which is what "the gradient flow is the forward equation"
says.  For the quadratic member it is Q itself, whose pair flux
m(a, b) log(a / b) is a - b, so its states are the `linear` states bit for
bit.  No integration evaluates the flow field `structure.flow_field`;
analyze's drift check compares it against Q^T rho.

There is one stepping loop, `_march`, a generator that takes one matvec
y <- R y with the propagator R per step.  It keeps the current state and
one reused buffer of at most `markov.ENTROPY_CHUNK` elements
(max(1, ENTROPY_CHUNK // J) rows), and yields each full buffer with the
index of its first row; nothing it holds grows with the number of steps.
`integrate_linear` and `integrate_gradient_flow` copy the blocks into one
(n, J) stack of states, the `Trajectory`.  A caller that needs only part
of the states, such as `cli.cmd_diffusion`, reads the blocks of
`linear_blocks` instead and never builds that stack.  The entropy of a trajectory is one `relative_entropy`
pass over the stack of states; it gives the same bits as one call per
state, and so does `relative_entropy` on each block.

This module writes no files; `cli.write_trajectory` exports a trajectory.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import markov
from .errors import (BoundaryPoint, DegenerateInvariantMeasure, GridMismatch,
                     GridTooLarge, InvalidInput, NotGradientSystem,
                     ReducibleChain, StepSizeTooLarge)

MASS_DRIFT_TOL = 1e-12
SIMPLEX_SLACK = 1e-6
BOUNDARY_FLOOR = 1e-10
# Poisson terms of the uniformization sum: at x < 1 the first term left out
# is below 1/19! < 1e-17.
UNIFORM_TERMS = 19


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), J)
    entropy_values: np.ndarray = None


def time_grid(T, dt):
    """The uniform grid 0, dt, ..., T; InvalidInput unless T and dt are
    finite, 0 < dt <= T and T is an integer multiple of dt (to
    1e-9 max(1, T)), and GridTooLarge, a runtime failure, when numpy
    cannot allocate that many points."""
    if not (math.isfinite(T) and math.isfinite(dt)):
        raise InvalidInput("need finite T and dt, got T = %r, dt = %r"
                           % (T, dt))
    if T <= 0 or dt <= 0 or dt > T:
        raise InvalidInput("need 0 < dt <= T")
    try:
        # T / dt can overflow to inf, and numpy raises ValueError rather
        # than MemoryError past 2^60 points.
        n = int(round(T / dt))
        if abs(n * dt - T) > 1e-9 * max(1.0, T):
            raise InvalidInput("T must be an integer multiple of dt")
        return np.arange(n + 1) * dt
    except (OverflowError, MemoryError, ValueError) as exc:
        raise GridTooLarge("time grid of T / dt = %.6g steps: %s"
                           % (T / dt, exc)) from exc


def _rk4(field, y, dt):
    """y + (dt/6)(k1 + 2 k2 + 2 k3 + k4), summed in place as each stage
    comes, so that no stage outlives the next: the same operations up to
    operand order, and so the same bits."""
    k = field(y)
    acc = k.copy()
    k = field(y + 0.5 * dt * k)
    acc += 2.0 * k
    k = field(y + 0.5 * dt * k)
    acc += 2.0 * k
    acc += field(y + dt * k)
    acc *= dt / 6.0
    acc += y
    return acc


def _march(R, rho0, times, floor=None):
    """States on `times` from rho0 by y <- R y with the propagator R, each
    step renormalized and checked, as (k, block) pairs: rows k, k + 1, ...
    of the (n, J) stack of states.  `block` is a view of one buffer that the
    next step overwrites, so a caller copies what it keeps before asking for
    the next block.  A step that fails a check raises before its block is
    yielded."""
    buf = np.empty((min(times.size, max(1, markov.ENTROPY_CHUNK
                                        // rho0.size)), rho0.size))
    buf[0] = rho0
    y = rho0.copy()
    start, i = 0, 1
    for k in range(1, times.size):
        y = R @ y
        mass = y.sum()
        # Both tests are written so that a NaN state fails them.
        if not abs(mass - 1.0) <= MASS_DRIFT_TOL:
            raise StepSizeTooLarge(
                "mass drifted by %.3e in one step" % abs(mass - 1.0))
        y = y / mass
        low = y.min()
        if not low >= -SIMPLEX_SLACK:
            raise StepSizeTooLarge("state left the simplex by %.3e" % -low)
        if floor is not None and low < floor:
            raise BoundaryPoint(
                "trajectory reached the boundary (min rho = %.3e)" % low)
        if i == len(buf):
            yield start, buf
            start, i = k, 0
        buf[i] = y
        i += 1
    yield start, buf[:i]


def _stack(blocks, n, J):
    """The (n, J) stack of states of a `_march` block stream."""
    states = np.empty((n, J))
    for k, block in blocks:
        states[k:k + len(block)] = block
    return states


def linear_blocks(rho0, g, times, floor=None):
    """The RK4 states of rho' = Q^T rho on `times`, Q = g.q, from the
    probability vector rho0, as the (k, block) stream of `_march`: one
    matvec per step with the RK4 propagator R, built once.  g is a chain's
    generator or a structure's `flow_generator`; `floor` is `_march`'s
    boundary floor."""
    rho0 = markov.as_simplex(rho0, "rho0")
    QT = g.q.T
    R = _rk4(lambda Y: QT @ Y, np.eye(g.size), times[1] - times[0])
    return _march(R, rho0, times, floor)


def integrate_linear(rho0, g, T, dt):
    """Integrate rho' = Q^T rho with fixed-step RK4; the entropy relative to
    the invariant measure goes with the states when the chain has one."""
    times = time_grid(T, dt)
    blocks = linear_blocks(rho0, g, times)
    try:
        pi = g.balance.invariant_measure
    except (ReducibleChain, DegenerateInvariantMeasure):
        pi = None
    states = _stack(blocks, times.size, g.size)
    return Trajectory(times=times, states=states,
                      entropy_values=None if pi is None
                      else markov.relative_entropy(states, pi))


def exact_linear_solution(rho0, g, times):
    """Reference solution rho_t = e^{t Q^T} rho0 by uniformization.

    With Lambda = g.max_exit_rate, P = I + Q^T / Lambda is a nonnegative
    matrix and e^{t Q^T} = sum_m e^{-x} x^m / m! P^m with x = Lambda t.  Each
    time is scaled by 2^-s so that x / 2^s < 1, summed to UNIFORM_TERMS
    terms (the tail is below 1e-17) and squared s times.  At t >= 0 every
    term and product is nonnegative, so nothing cancels, whatever the
    eigenbasis of Q^T: defective generators take the same route.
    """
    rho0 = markov.as_simplex(rho0, "rho0")
    times = np.asarray(times, dtype=float)
    # Any Lambda at or above the exit rates works; the zero generator has
    # none, and every P is the identity there.
    lam = g.max_exit_rate or 1.0
    P = np.eye(g.size) + g.q.T / lam
    powers = np.empty((UNIFORM_TERMS, g.size, g.size))
    powers[0] = np.eye(g.size)
    for m in range(1, UNIFORM_TERMS):
        powers[m] = powers[m - 1] @ P
    states = np.empty((times.size, g.size))
    for k, t in enumerate(times):
        s = max(0, math.frexp(lam * t)[1])
        x = math.ldexp(lam * t, -s)
        coef = np.cumprod(np.concatenate([[math.exp(-x)],
                                          x / np.arange(1, UNIFORM_TERMS)]))
        E = np.tensordot(coef, powers, 1)
        for _ in range(s):
            E = E @ E
        states[k] = E @ rho0
    return Trajectory(times=times, states=states)


def integrate_gradient_flow(rho0, gs, T, dt):
    """Integrate rho' = D_xi Psi*(rho, -DS(rho)).

    Refused (NotGradientSystem) when the chain fails detailed-balance
    diagnostics; halts with BoundaryPoint instead of clamping if the state
    approaches the simplex boundary, where the entropy gradient blows up:
    the initial state and the state after each step must be at least
    BOUNDARY_FLOOR.  Under detailed balance every structure's flow is the
    forward equation of its `GradientStructure.flow_generator` (K for the
    exact structure, Q itself for the quadratic member), so it steps
    through `linear_blocks` on that generator, one matvec per step, with
    no stage states.
    """
    start = markov.as_simplex(rho0, "rho0")
    if not gs.generator.balance.detailed_balance:
        raise NotGradientSystem(
            "chain fails detailed balance; only the covector reading exists")
    if not markov.is_interior(start, BOUNDARY_FLOOR):
        raise BoundaryPoint("initial state must be interior")
    times = time_grid(T, dt)
    # linear_blocks normalizes rho0 as `start` was; normalizing `start`
    # again could move its last bit.
    blocks = linear_blocks(rho0, gs.flow_generator, times, BOUNDARY_FLOOR)
    states = _stack(blocks, times.size, start.size)
    return Trajectory(times=times, states=states,
                      entropy_values=gs.entropy(states))


def compare_trajectories(a, b):
    """Sup-norm gap over shared times; the grids must coincide."""
    if a.times.size != b.times.size or not np.allclose(
            a.times, b.times, rtol=0.0, atol=1e-12):
        raise GridMismatch("trajectories on different time grids")
    gaps = np.abs(a.states - b.states).max(axis=1)
    k = int(np.argmax(gaps))
    return {"sup_norm_gap": float(gaps[k]), "at_time": float(a.times[k])}
