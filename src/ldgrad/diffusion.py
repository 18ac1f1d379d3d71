"""1-D drift-diffusion on a grid: reversible chain and quadratic structure.

The generator Q phi = phi'' - P' phi' on [a, b] (no-flux ends) is discretized
with nearest-neighbour rates

    Q_{i,i+-1} = exp((P_i - P_{i+-1}) / 2) / h^2,

which satisfies detailed balance with respect to pi_h ~ e^{-P} exactly and is
O(h^2) consistent in the interior.  All state vectors here are nodal MASSES
(probability vectors, as in the Markov modules) and the dual pairing is the
plain Euclidean dot product; the trapezoid nodal weights (h, halved at the
endpoints) enter only when converting to continuum densities for profiles
and oracles.

The diffusion structure is the grid chain's own quadratic member,
`structure.GradientStructure(g.chain, Family.QUADRATIC_FAMILY)`: Psi* is
the edge functional f with phi = z^2/2 and the logarithmic mean
L_ij = m(rho_i Q_ij, rho_j Q_ji) on each neighbour pair, the discrete
transport metric of Maas, and its flow Df(-DS), S = (1/2) E_pi, is the
forward equation Q^T rho of the chain the command integrates.  For this
quadratic f the cost f*(s - flow) splits exactly (a quadratic-form
identity) into Psi + Psi*(-DS) + <DS, s>, Psi = f*.  The chain is a path,
so f* is that functional's tree conjugate: no linear solve.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import markov, structure
from .errors import InvalidInput

TAIL_MASS_TARGET = 1e-8
# The bound on `decomposition_residual` that `ldgrad diffusion` reports.
DECOMPOSITION_TOL = 1e-12


@dataclass
class Grid1D:
    a: float
    b: float
    N: int
    nodes: np.ndarray
    h: float
    potential: np.ndarray
    weights: np.ndarray  # trapezoid nodal masses, for density conversions

    @cached_property
    def chain(self):
        """The grid's generator (`discretize_generator`), built once."""
        return discretize_generator(self)

    def invariant_masses(self):
        """Chain invariant measure pi_i ~ e^{-P(x_i)}, normalized."""
        w = np.exp(-(self.potential - self.potential.min()))
        return w / w.sum()

    def density(self, masses):
        return np.asarray(masses, dtype=float) / self.weights

    def masses_from_density(self, dens):
        """The normalized nodal masses of `dens`; InvalidInput when they
        sum to zero (a density that underflows on every node)."""
        m = np.asarray(dens, dtype=float) * self.weights
        total = m.sum()
        if not total > 0.0:
            raise InvalidInput("the density has no mass on the grid")
        return m / total


def _parse_potential(spec, nodes):
    if isinstance(spec, str):
        if spec == "zero":
            return np.zeros_like(nodes)
        if spec == "quadratic":
            return 0.5 * nodes ** 2
        if spec.startswith("linear:"):
            try:
                c = float(spec[len("linear:"):])
            except ValueError:
                c = math.nan
            if not math.isfinite(c):
                raise InvalidInput("potential %r needs a finite real slope "
                                   "after 'linear:'" % spec)
            return c * nodes
        raise InvalidInput("unknown potential preset %r" % spec)
    vals = np.asarray(spec, dtype=float)
    if vals.shape != nodes.shape:
        raise InvalidInput("tabulated potential must have one value per node")
    return vals


def make_grid(a, b, N, potential="zero"):
    """The grid and its chain; InvalidInput for bad N, [a, b] or potential."""
    if N < 3 or not b > a:
        raise InvalidInput("need N >= 3 and b > a")
    nodes = np.linspace(a, b, N)
    h = (b - a) / (N - 1)
    P = _parse_potential(potential, nodes)
    w = np.full(N, h)
    w[0] = w[-1] = 0.5 * h
    grid = Grid1D(a=float(a), b=float(b), N=int(N), nodes=nodes, h=float(h),
                  potential=P, weights=w)
    grid.chain  # built now, so that make_grid refuses a rate that overflows
    return grid


def gaussian_tail_mass(g):
    """For the quadratic potential: the standard normal mass outside
    [a, b], P(X < a) + P(X > b) (documented against the 1e-8
    default-example target)."""
    return float(0.5 * math.erfc(-g.a / math.sqrt(2.0))
                 + 0.5 * math.erfc(g.b / math.sqrt(2.0)))


def discretize_generator(g):
    """Nearest-neighbour reversible chain converging to phi'' - P' phi'.
    A rate e^{(P_i - P_j)/2} / h^2 that overflows raises InvalidInput."""
    N = g.N
    P = g.potential
    Q = np.zeros((N, N))
    inv_h2 = 1.0 / (g.h * g.h)
    for i in range(N):
        for j in (i + 1, i - 1):
            if 0 <= j < N:
                try:
                    Q[i, j] = inv_h2 * math.exp(0.5 * (P[i] - P[j]))
                except OverflowError:
                    Q[i, j] = math.inf
                if Q[i, j] == math.inf:
                    raise InvalidInput(
                        "potential step from node %d to node %d is too "
                        "steep: its rate e^(dP/2) / h^2 overflows" % (i, j))
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return markov.validate_generator(Q)


def _entropy_gradient(rho, pi):
    """DS = (1/2) (log(rho / pi) + 1), the nodal gradient of S = (1/2) E_pi."""
    return 0.5 * (np.log(np.asarray(rho, dtype=float) / pi) + 1.0)


def decomposition_residual(rho, s, g):
    """|cost - (psi + psi_star(-DS) + <DS, s>)| of the grid chain's
    quadratic member, with cost = f*(s - flow); zero in exact arithmetic."""
    s = np.asarray(s, dtype=float)
    gs = structure.GradientStructure(g.chain,
                                     structure.Family.QUADRATIC_FAMILY)
    F = gs.functional(rho)
    DS = _entropy_gradient(rho, g.invariant_masses())
    cost = F.conjugate(s - F.gradient(-DS)).value
    return abs(cost - (structure.psi(gs, rho, s) + F(-DS) + float(DS @ s)))


def gaussian_initial_masses(g, mu0, var0):
    dens = np.exp(-0.5 * (g.nodes - mu0) ** 2 / var0)
    return g.masses_from_density(dens)


def profiles_rows(g, rho):
    """Rows (x, rho density, pi density, DS) for CSV output."""
    pi = g.invariant_masses()
    DS = _entropy_gradient(rho, pi)
    dens = g.density(rho)
    pdens = g.density(pi)
    return [(float(x), float(d), float(p), float(ds))
            for x, d, p, ds in zip(g.nodes, dens, pdens, DS)]
