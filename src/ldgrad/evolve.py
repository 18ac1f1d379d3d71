"""Time integration of the linear evolution and of gradient flows.

Fixed-step classical Runge-Kutta (4th order) is used throughout: trajectories
are deterministic and reproducible, which golden-file tests rely on.  Mass is
renormalized every step (the drift per step must stay below 1e-12) and a
trajectory that leaves the simplex by more than 1e-6 aborts rather than being
clamped.
"""

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from . import markov, structure
from .errors import (BoundaryPoint, DegenerateInvariantMeasure, GridMismatch,
                     InvalidInput, NotGradientSystem, ReducibleChain,
                     StepSizeTooLarge)

MASS_DRIFT_TOL = 1e-12
SIMPLEX_SLACK = 1e-6
BOUNDARY_FLOOR = 1e-10


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), J)
    entropy_values: np.ndarray = None
    meta: dict = field(default_factory=dict)


def _grid(T, dt):
    if T <= 0 or dt <= 0 or dt > T:
        raise InvalidInput("need 0 < dt <= T")
    n = int(round(T / dt))
    if abs(n * dt - T) > 1e-9 * max(1.0, T):
        raise InvalidInput("T must be an integer multiple of dt")
    return np.arange(n + 1) * dt


def _rk4(field, y, dt):
    k1 = field(y)
    k2 = field(y + 0.5 * dt * k1)
    k3 = field(y + 0.5 * dt * k2)
    k4 = field(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _march(field, rho0, times, entropy=None, floor=None):
    states = np.empty((times.size, rho0.size))
    states[0] = rho0
    y = rho0.copy()
    for k in range(1, times.size):
        dt = times[k] - times[k - 1]
        y = _rk4(field, y, dt)
        mass = y.sum()
        if abs(mass - 1.0) > MASS_DRIFT_TOL:
            raise StepSizeTooLarge(
                "mass drifted by %.3e in one step" % abs(mass - 1.0))
        y = y / mass
        if y.min() < -SIMPLEX_SLACK:
            raise StepSizeTooLarge(
                "state left the simplex by %.3e" % (-y.min()))
        if floor is not None and y.min() < floor:
            raise BoundaryPoint(
                "trajectory reached the boundary (min rho = %.3e)" % y.min())
        states[k] = y
    ent = None
    if entropy is not None:
        ent = np.array([entropy(states[k]) for k in range(times.size)])
    return states, ent


def integrate_linear(rho0, g, T, dt, with_entropy=True):
    """Integrate rho' = Q^T rho with fixed-step RK4."""
    rho0 = markov.as_simplex(rho0)
    times = _grid(T, dt)
    QT = g.q.T
    entropy = None
    meta = {"method": "rk4-linear", "dt": dt, "rejected_steps": 0}
    if with_entropy:
        try:
            pi = markov.analyze_balance(g).invariant_measure
            entropy = lambda rho: markov.relative_entropy(rho, pi)
        except (ReducibleChain, DegenerateInvariantMeasure) as exc:
            meta["entropy_unavailable"] = str(exc)
    states, ent = _march(lambda y: QT @ y, rho0, times, entropy)
    return Trajectory(times=times, states=states, entropy_values=ent,
                      meta=meta)


def exact_linear_solution(rho0, g, times):
    """Reference solution by eigendecomposition of Q^T (expm fallback when
    the eigenbasis is ill-conditioned)."""
    rho0 = markov.as_simplex(rho0)
    times = np.asarray(times, dtype=float)
    QT = g.q.T
    w, V = np.linalg.eig(QT)
    if np.linalg.cond(V) < 1e10:
        coef = np.linalg.solve(V, rho0.astype(complex))
        states = np.real((V[None, :, :] * np.exp(np.outer(times, w))[:, None, :])
                         @ coef)
    else:
        from scipy.linalg import expm
        states = np.stack([expm(QT * t) @ rho0 for t in times])
    return Trajectory(times=times, states=states,
                      meta={"method": "eigendecomposition", "dt": None,
                            "rejected_steps": 0})


def integrate_gradient_flow(rho0, gs, T, dt):
    """Integrate rho' = D_xi Psi*(rho, -DS(rho)).

    Refused (NotGradientSystem) when the chain fails detailed-balance
    diagnostics; halts with BoundaryPoint instead of clamping if the state
    approaches the simplex boundary, where the entropy gradient blows up.
    """
    rho0 = markov.as_simplex(rho0)
    if not gs.balance.detailed_balance:
        raise NotGradientSystem(
            "chain fails detailed balance; only the covector reading exists")
    if not markov.is_interior(rho0, BOUNDARY_FLOOR):
        raise BoundaryPoint("initial state must be interior")
    times = _grid(T, dt)

    def fld(y):
        if y.min() < BOUNDARY_FLOOR:
            raise BoundaryPoint(
                "flow stage reached the boundary (min rho = %.3e)" % y.min())
        return structure.flow_field(gs, y)

    states, ent = _march(fld, rho0, times, entropy=gs.entropy,
                         floor=BOUNDARY_FLOOR)
    return Trajectory(times=times, states=states, entropy_values=ent,
                      meta={"method": "rk4-gradient-flow", "dt": dt,
                            "family": gs.family.value,
                            "entropy_scale": gs.entropy_scale,
                            "rejected_steps": 0})


def compare_trajectories(a, b):
    """Sup-norm gap over shared times; the grids must coincide."""
    if a.times.size != b.times.size or not np.allclose(
            a.times, b.times, rtol=0.0, atol=1e-12):
        raise GridMismatch("trajectories on different time grids")
    gaps = np.abs(a.states - b.states).max(axis=1)
    k = int(np.argmax(gaps))
    return {"sup_norm_gap": float(gaps[k]), "at_time": float(a.times[k])}


def trajectory_to_csv(traj, path):
    """CSV export: t, rho_1..rho_J, entropy (one row per step).  Written to
    `path + ".tmp"` and renamed over `path`, so a failed export leaves any
    earlier file intact."""
    J = traj.states.shape[1]
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "w", newline="") as fh:
        try:
            w = csv.writer(fh)
            w.writerow(["t"] + ["rho_%d" % (j + 1) for j in range(J)]
                       + ["entropy"])
            for k in range(traj.times.size):
                ent = ("" if traj.entropy_values is None
                       else repr(float(traj.entropy_values[k])))
                w.writerow([repr(float(traj.times[k]))]
                           + [repr(float(x)) for x in traj.states[k]] + [ent])
        except BaseException:
            os.remove(tmp)
            raise
    os.replace(tmp, path)
