"""1-D drift-diffusion on a grid: reversible chain and quadratic structure.

The generator Q phi = phi'' - P' phi' on [a, b] (no-flux ends) is discretized
with nearest-neighbour rates

    Q_{i,i+-1} = exp((P_i - P_{i+-1}) / 2) / h^2,

which satisfies detailed balance with respect to pi_h ~ e^{-P} exactly and is
O(h^2) consistent in the interior.  All state vectors here are nodal MASSES
(probability vectors, as in the Markov modules) and the dual pairing is the
plain Euclidean dot product; the trapezoid nodal weights (h, halved at the
endpoints) enter only when converting to continuum densities for profiles
and oracles.  With the mass pairing fixed, the rho-weighted stiffness

    (A(rho) xi)_i = -[m_{i+1/2}(xi_{i+1}-xi_i) - m_{i-1/2}(xi_i-xi_{i-1})]/h^2,
    m_{i+1/2} = (rho_i + rho_{i+1}) / 2,

defines the discrete Sobolev pair: Psi*(rho, xi) = xi . A(rho) xi,
Psi(rho, s) = (1/4) ||s||^2 in the dual norm, S(rho) = (1/2) E_pi(rho), and
the cost (1/4) ||s - flux||^2 with flux = -2 A(rho) DS splits exactly
(a quadratic-form identity) into Psi + Psi*(-DS) + <DS, s>.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import markov
from .errors import DegenerateWeight, InvalidInput

TAIL_MASS_TARGET = 1e-8


@dataclass
class Grid1D:
    a: float
    b: float
    N: int
    nodes: np.ndarray
    h: float
    potential: np.ndarray
    force: np.ndarray
    weights: np.ndarray  # trapezoid nodal masses, for density conversions

    def invariant_masses(self):
        """Chain invariant measure pi_i ~ e^{-P(x_i)}, normalized."""
        w = np.exp(-(self.potential - self.potential.min()))
        return w / w.sum()

    def density(self, masses):
        return np.asarray(masses, dtype=float) / self.weights

    def masses_from_density(self, dens):
        m = np.asarray(dens, dtype=float) * self.weights
        return m / m.sum()


def _parse_potential(spec, nodes):
    if isinstance(spec, str):
        if spec == "zero":
            return np.zeros_like(nodes)
        if spec == "quadratic":
            return 0.5 * nodes ** 2
        if spec.startswith("linear:"):
            c = float(spec.split(":", 1)[1])
            return c * nodes
        raise InvalidInput("unknown potential preset %r" % spec)
    vals = np.asarray(spec, dtype=float)
    if vals.shape != nodes.shape:
        raise InvalidInput("tabulated potential must have one value per node")
    return vals


def make_grid(a, b, N, potential="zero"):
    if N < 3 or not b > a:
        raise InvalidInput("need N >= 3 and b > a")
    nodes = np.linspace(a, b, N)
    h = (b - a) / (N - 1)
    P = _parse_potential(potential, nodes)
    F = np.empty_like(P)
    F[1:-1] = (P[2:] - P[:-2]) / (2.0 * h)
    F[0] = (P[1] - P[0]) / h
    F[-1] = (P[-1] - P[-2]) / h
    w = np.full(N, h)
    w[0] = w[-1] = 0.5 * h
    return Grid1D(a=float(a), b=float(b), N=int(N), nodes=nodes, h=float(h),
                  potential=P, force=F, weights=w)


def grid_from_config(cfg):
    return make_grid(cfg["a"], cfg["b"], cfg["N"], cfg.get("potential", "zero"))


def gaussian_tail_mass(g):
    """For the quadratic potential: stationary mass outside the truncated
    interval (documented against the 1e-8 default-example target)."""
    lo = abs(g.a)
    hi = abs(g.b)
    return float(math.erfc(min(lo, hi) / math.sqrt(2.0)))


def discretize_generator(g):
    """Nearest-neighbour reversible chain converging to phi'' - P' phi'."""
    N = g.N
    P = g.potential
    Q = np.zeros((N, N))
    inv_h2 = 1.0 / (g.h * g.h)
    for i in range(N):
        if i + 1 < N:
            Q[i, i + 1] = inv_h2 * math.exp(0.5 * (P[i] - P[i + 1]))
        if i - 1 >= 0:
            Q[i, i - 1] = inv_h2 * math.exp(0.5 * (P[i] - P[i - 1]))
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return markov.validate_generator(Q)


def _edge_weights(rho):
    rho = np.asarray(rho, dtype=float)
    m = 0.5 * (rho[:-1] + rho[1:])
    if np.any(m <= 0.0):
        raise DegenerateWeight("stiffness weights vanish (interior zeros)")
    return m


def apply_stiffness(rho, xi, g):
    """(A(rho) xi)_i; symmetric PSD with kernel = constants."""
    xi = np.asarray(xi, dtype=float)
    m = _edge_weights(rho)
    flux = m * np.diff(xi)  # m_{i+1/2} (xi_{i+1} - xi_i)
    out = np.empty_like(xi)
    out[0] = -flux[0]
    out[-1] = flux[-1]
    out[1:-1] = flux[:-1] - flux[1:]
    return out / (g.h * g.h)


def _ldl_tridiagonal(diag, off):
    """Root-free Cholesky factor A = L D L^T of the symmetric tridiagonal A
    with diagonal `diag` and off-diagonal `off`, L unit lower bidiagonal:
    returns (d, l), the diagonal of D and the subdiagonal of L.  The
    operations are those of LAPACK's dpttrf, in its order;
    scipy.linalg.solveh_banded solves a tridiagonal system with dpttrf and
    dptts2 (through dptsv), so the two agree bit for bit where LAPACK does
    not fuse multiply-adds.  A pivot that is not positive (A not
    numerically positive definite) raises DegenerateWeight.
    """
    d = np.asarray(diag, dtype=float).tolist()
    e = np.asarray(off, dtype=float).tolist()
    l = [0.0] * len(e)
    for i in range(len(d)):
        if not d[i] > 0.0:
            raise DegenerateWeight("stiffness matrix is not numerically "
                                   "positive definite (pivot %d)" % i)
        if i < len(e):
            l[i] = e[i] / d[i]
            d[i + 1] -= l[i] * e[i]
    return d, l


def _ldl_solve(factor, b):
    """Solve L D L^T x = b for the factor of `_ldl_tridiagonal`: forward
    substitution with L, then back substitution with D L^T, in the order
    of LAPACK's dptts2."""
    d, l = factor
    x = np.asarray(b, dtype=float).tolist()
    for i in range(1, len(x)):
        x[i] = x[i] - x[i - 1] * l[i - 1]
    x[-1] = x[-1] / d[-1]
    for i in range(len(x) - 2, -1, -1):
        x[i] = x[i] / d[i] - x[i + 1] * l[i]
    return np.array(x)


def _solve_stiffness(rho, s, g):
    """Solve A(rho) xi = s on the zero-mean subspace (s must sum to zero).

    The first node is pinned to zero (compatible by the zero-sum condition)
    and the remaining symmetric positive-definite tridiagonal system is
    factored once as L D L^T (`_ldl_tridiagonal`, LAPACK's dpttrf
    operation order) and solved by forward and back substitution, followed
    by two steps of iterative refinement with the same factor; the result
    is shifted to zero mean.
    """
    s = np.asarray(s, dtype=float)
    if abs(s.sum()) > 1e-10 * max(1.0, np.abs(s).max()):
        raise InvalidInput("right-hand side must sum to zero")
    m = _edge_weights(rho) / (g.h * g.h)
    # Reduced system on nodes 1..N-1 (node 0 pinned at zero): diagonal
    # m_{i-1/2} + m_{i+1/2} (m_{N-3/2} alone at the last node), off-diagonal
    # -m_{i+1/2}.
    factor = _ldl_tridiagonal(np.append(m[:-1] + m[1:], m[-1]), -m[1:])
    xi = np.zeros(s.size)
    xi[1:] = _ldl_solve(factor, s[1:])
    for _ in range(2):  # iterative refinement sharpens the residual
        r = s - apply_stiffness(rho, xi, g)
        xi[1:] += _ldl_solve(factor, r[1:])
    return xi - xi.mean()


def h_minus1_norm_sq(rho, s, g):
    """Dual Sobolev norm ||s||^2 = <xi, s> with A(rho) xi = s; returns
    (value, potential xi as zero-mean representative)."""
    xi = _solve_stiffness(rho, s, g)
    value = float(xi @ np.asarray(s, dtype=float))
    if value < 0 and value > -1e-13:
        value = 0.0
    return value, xi


def wasserstein_structure(rho, g, s=None, xi=None):
    """Quadratic structure pieces at rho: entropy (1/2) E_pi, nodal entropy
    gradient, flux -2 A(rho) DS (the discrete drift-diffusion right-hand
    side: A applied to log rho + P, constants dropped), plus psi at s and
    psi_star at xi when supplied."""
    rho = np.asarray(rho, dtype=float)
    pi = g.invariant_masses()
    DS = 0.5 * (np.log(rho / pi) + 1.0)
    out = {
        "entropy_S": 0.5 * markov.relative_entropy(rho, pi),
        "DS": DS,
        "flux_drift": -2.0 * apply_stiffness(rho, DS, g),
    }
    if s is not None:
        val, pot = h_minus1_norm_sq(rho, s, g)
        out["psi"] = 0.25 * val
        out["psi_potential"] = pot
    if xi is not None:
        xi = np.asarray(xi, dtype=float)
        out["psi_star"] = float(xi @ apply_stiffness(rho, xi, g))
    return out


def quadratic_cost(rho, s, g):
    """(1/4) ||s - flux||^2 in H^-1(rho), the quadratic cost functional."""
    ws = wasserstein_structure(rho, g)
    val, _ = h_minus1_norm_sq(rho, np.asarray(s, dtype=float)
                              - ws["flux_drift"], g)
    return 0.25 * val


def decomposition_residual(rho, s, g):
    """|cost - (psi + psi_star(-DS) + <DS, s>)|; zero in exact arithmetic."""
    rho = np.asarray(rho, dtype=float)
    s = np.asarray(s, dtype=float)
    ws = wasserstein_structure(rho, g, s=s)
    psi_star_at = float(ws["DS"] @ apply_stiffness(rho, ws["DS"], g))
    pairing = float(ws["DS"] @ s)
    cost = quadratic_cost(rho, s, g)
    return abs(cost - (ws["psi"] + psi_star_at + pairing))


def ou_exact_marginal(g, mu0, var0, t):
    """Exact marginal of the unit Ornstein-Uhlenbeck process (quadratic
    potential), mapped to grid masses for comparison with the chain."""
    mu = mu0 * math.exp(-t)
    var = 1.0 + (var0 - 1.0) * math.exp(-2.0 * t)
    dens = np.exp(-0.5 * (g.nodes - mu) ** 2 / var)
    return g.masses_from_density(dens)


def gaussian_initial_masses(g, mu0, var0):
    dens = np.exp(-0.5 * (g.nodes - mu0) ** 2 / var0)
    return g.masses_from_density(dens)


def profiles_rows(g, rho):
    """Rows (x, rho density, pi density, DS) for CSV output."""
    pi = g.invariant_masses()
    DS = 0.5 * (np.log(np.asarray(rho) / pi) + 1.0)
    dens = g.density(rho)
    pdens = g.density(pi)
    return [(float(x), float(d), float(p), float(ds))
            for x, d, p, ds in zip(g.nodes, dens, pdens, DS)]
