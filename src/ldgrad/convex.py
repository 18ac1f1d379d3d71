"""Numerical convex duality on the zero-sum subspace.

Potentials on a finite state space are defined modulo additive constants, so
every conjugate here is taken over vectors summing to zero.  The transform

    f*(s) = sup_xi  <xi, s> - f(xi)

is computed by damped Newton with an Armijo line search over J-1 free
coordinates (the last coordinate is determined by the zero-sum constraint).
The caller passes the gradient and Hessian of f in closed form; nothing
here differentiates numerically.
An explicit box |xi|_inf <= 50 converts genuinely unbounded problems into a
clean error; a run that stalls or exhausts its budget inside the box raises
NoConvergence with its best iterate.

The box belongs to this Newton route only.  Edge functionals on a tree,
whatever their phi, take the closed form in `markov.EdgeTree`, which has
no box; in the package, only graphs that are not trees come here.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NoConvergence, UnboundedConjugate

DEFAULT_TOL = 1e-10
MAX_ITER = 200
ARMIJO_FACTOR = 0.5
ARMIJO_SLOPE = 1e-4
BOX = 50.0


def project_zero_sum(v):
    """Canonical representative of v modulo constants: v - mean(v)."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise InvalidInput("non-finite entries in vector")
    return v - v.mean()


@dataclass
class ConjugateResult:
    value: float
    argmax: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float


def _reduce_hessian(H):
    # T = [I; -1^T] parametrizes xi = (u, -sum u); returns T^T H T
    m = H.shape[0] - 1
    return H[:m, :m] - H[:m, -1:] - H[-1:, :m] + H[-1, -1]


def _full(u):
    return np.append(u, -u.sum())


def _newton(f, grad, hess, s, u0, tol, max_iter):
    """Damped Newton ascent of <xi,s> - f(xi) over the reduced coordinates.

    Returns (u, converged, iterations, residual, hit_box).
    """
    u = u0.copy()
    best = (np.inf, u)
    for it in range(max_iter):
        xi = _full(u)
        if np.abs(xi).max() >= BOX:
            return u, False, it, np.inf, True
        gf = grad(xi) - s
        resid = np.linalg.norm(project_zero_sum(gf))
        if resid < best[0]:
            best = (resid, u.copy())
        if resid <= tol:
            return u, True, it, resid, False
        g_red = gf[:-1] - gf[-1]
        H_red = _reduce_hessian(hess(xi))
        try:
            d = np.linalg.solve(H_red, -g_red)
        except np.linalg.LinAlgError:
            d = None
        if d is None or g_red @ d >= 0:
            # Hessian unusable; fall back to a plain ascent direction.
            d = -g_red
        elif resid <= 1e-6:
            # Endgame: objective differences are below rounding, so Armijo
            # cannot certify descent; pure Newton converges quadratically.
            u_try = u + d
            if np.abs(_full(u_try)).max() <= BOX:
                u = u_try
                continue
        phi0 = f(xi) - xi @ s
        slope = g_red @ d
        # First trial: the longest step (at most 1) that stays in the box.
        dx = _full(d)
        k = dx != 0
        alpha0 = alpha = min(1.0, float(np.min(
            (BOX - np.sign(dx[k]) * xi[k]) / np.abs(dx[k]))))
        accepted = False
        while alpha > 1e-14 * alpha0:
            u_try = u + alpha * d
            xi_try = _full(u_try)
            if np.abs(xi_try).max() > BOX:
                alpha *= ARMIJO_FACTOR
                continue
            phi_try = f(xi_try) - xi_try @ s
            if np.isfinite(phi_try) and phi_try <= phi0 + ARMIJO_SLOPE * alpha * slope:
                accepted = True
                break
            alpha *= ARMIJO_FACTOR
        if not accepted:
            # Stalled: either pressed against the box or genuinely stuck.
            hit = np.abs(_full(u)).max() >= 0.98 * BOX
            return best[1], False, it, best[0], hit
        u = u_try
    return best[1], False, max_iter, best[0], False


def check_slope(s, tol):
    """s as a float array, after the checks every conjugate route shares:
    finite entries, a zero sum up to 1e-9 relative, and a positive tol."""
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)):
        raise InvalidInput("non-finite slope vector")
    if abs(s.sum()) > 1e-9 * max(1.0, np.abs(s).max()):
        raise InvalidInput("slope must lie in the zero-sum tangent space")
    if tol <= 0:
        raise InvalidInput("tol must be positive")
    return s


def conjugate(f, s, grad, hess, x0=None, tol=DEFAULT_TOL, max_iter=MAX_ITER):
    """Legendre transform sup_xi <xi,s> - f(xi) over zero-sum xi.

    f must be convex and finite on the zero-sum subspace; grad and hess are
    its gradient and Hessian in closed form.
    Raises UnboundedConjugate when the objective is still ascending at the
    box boundary and NoConvergence (with the best iterate attached) when
    Newton stalls or exhausts its iteration budget inside the box.
    """
    s = check_slope(s, tol)
    m = s.size - 1
    if x0 is None:
        u0 = np.zeros(m)
    else:
        u0 = project_zero_sum(np.asarray(x0, dtype=float))[:m].copy()

    u, ok, its, resid, hit_box = _newton(f, grad, hess, s, u0, tol, max_iter)
    if hit_box:
        raise UnboundedConjugate(
            "objective still increasing at the box |xi|_inf = %g" % BOX)

    xi = _full(u)
    value = float(xi @ s - f(xi))
    result = ConjugateResult(value=value, argmax=xi, converged=bool(ok),
                             iterations=its, residual_norm=float(resid))
    if not ok:
        raise NoConvergence(
            "no convergence after %d iterations (residual %.3e)"
            % (its, resid), best=result)
    return result
