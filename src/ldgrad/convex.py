"""Numerical convex duality on the zero-sum subspace.

Potentials on a finite state space are defined modulo additive constants, so
every conjugate here is taken over vectors summing to zero.  The transform

    f*(s) = sup_xi  <xi, s> - f(xi)

is computed by damped Newton with an Armijo line search on zero-sum xi
itself.  Every f in the package is blind to constants, f(xi + c 1) = f(xi),
so its Hessian H has H 1 = 0, and for a zero-sum gradient the solve with
H + 1 1^T returns the zero-sum Newton step: the device that
`structure.covector_jacobian` uses too.
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


def _newton(f, grad, hess, s, xi, tol, max_iter):
    """Damped Newton ascent of <xi,s> - f(xi) over zero-sum xi.

    With gf = P(grad f - s), the zero-sum residual, the step d solves
    (H + 1 1^T) d = -gf, minus its mean.  Under f(xi + c 1) = f(xi), H 1 = 0
    and d is zero-sum with H d = -gf: the Newton step on the subspace.
    Armijo guards each step until the Newton decrement -gf.d falls below
    1e-12 of the objective's magnitude; from there steps are pure Newton.

    Returns (xi, converged, iterations, residual, hit_box).
    """
    best = (np.inf, xi)
    for it in range(max_iter):
        if np.abs(xi).max() >= BOX:
            return xi, False, it, np.inf, True
        gf = project_zero_sum(grad(xi) - s)
        resid = np.linalg.norm(gf)
        if resid < best[0]:
            best = (resid, xi)
        if resid <= tol:
            return xi, True, it, resid, False
        fx, xs = f(xi), xi @ s
        try:
            d = np.linalg.solve(hess(xi) + 1.0, -gf)
            d -= d.mean()
        except np.linalg.LinAlgError:
            d = None
        if d is None or gf @ d >= 0:
            # Hessian unusable; fall back to a plain ascent direction.
            d = -gf
        elif -(gf @ d) <= 1e-12 * (abs(fx) + abs(xs)):
            # Endgame: the Newton decrement -gf.d is below the rounding of
            # the objective, so Armijo cannot certify descent; pure Newton
            # converges quadratically.
            xi_try = xi + d
            if np.abs(xi_try).max() <= BOX:
                xi = xi_try
                continue
        phi0 = fx - xs
        slope = gf @ d
        # First trial: the longest step (at most 1) that stays in the box.
        k = d != 0
        alpha0 = alpha = min(1.0, float(np.min(
            (BOX - np.sign(d[k]) * xi[k]) / np.abs(d[k]))))
        accepted = False
        while alpha > 1e-14 * alpha0:
            xi_try = xi + alpha * d
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
            hit = np.abs(xi).max() >= 0.98 * BOX
            return best[1], False, it, best[0], hit
        xi = xi_try
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
    xi0 = np.zeros(s.size) if x0 is None else project_zero_sum(x0)
    xi, ok, its, resid, hit_box = _newton(f, grad, hess, s, xi0, tol,
                                          max_iter)
    if hit_box:
        raise UnboundedConjugate(
            "objective still increasing at the box |xi|_inf = %g" % BOX)

    value = float(xi @ s - f(xi))
    result = ConjugateResult(value=value, argmax=xi, converged=bool(ok),
                             iterations=its, residual_norm=float(resid))
    if not ok:
        raise NoConvergence(
            "no convergence after %d iterations (residual %.3e)"
            % (its, resid), best=result)
    return result
