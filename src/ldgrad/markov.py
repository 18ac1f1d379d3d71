"""Finite-state Markov generators and their rate-functional building blocks.

A generator is a J x J intensity matrix Q with Q_ij >= 0 off the diagonal
and zero row sums; probability vectors live on the simplex.  This module
provides the invariant measure, irreducibility (strong connectivity of the
graph of Q, decided by two reachability sweeps from state 0, one along the
edges and one against them), detailed-balance diagnosis, the relative
entropy E_pi(rho) = sum_i rho_i log(rho_i / pi_i), the empirical-process
Hamiltonian

    H(rho, xi) = sum_ij rho_i Q_ij (exp(xi_j - xi_i) - 1)

with closed-form gradient and Hessian in xi, and its conjugate

    L(rho, s) = sup_xi <xi, s> - H(rho, xi),

the cost functional whose zero set is the forward equation rho' = Q^T rho.
H is a sum over the edges of the generator graph, evaluated by the
`EdgeFunctional` core that the dissipation potentials in `structure` share.
"""

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import convex
from .errors import (BoundaryPoint, DegenerateInvariantMeasure,
                     ExponentOverflow, InfiniteEntropy, InvalidGenerator,
                     InvalidInput, ReducibleChain)

ROW_SUM_TOL = 1e-9
INTERIOR_FLOOR = 1e-12
EXP_GUARD = 700.0
ENTROPY_CHUNK = 8192


@dataclass
class GeneratorMatrix:
    q: np.ndarray
    state_labels: list = field(default_factory=list)

    @property
    def size(self):
        return self.q.shape[0]

    @property
    def weakly_reversible(self):
        off = self.q > 0
        return bool(np.array_equal(off, off.T))

    @property
    def max_exit_rate(self):
        """gamma = max_i sum_{j != i} Q_ij."""
        return float(np.max(self.q.sum(axis=1) - np.diag(self.q)))

    @cached_property
    def edges(self):
        """(src, dst, rate) of the positive off-diagonal entries, row-major.

        Cached: q is built once by `validate_generator` and never mutated.
        """
        src, dst = np.nonzero(self.q > 0)  # the diagonal is <= 0
        return src, dst, self.q[src, dst]


def validate_generator(raw, state_labels=None):
    """Check intensity-matrix structure and force exact zero row sums.

    Off-diagonal entries must be >= 0 and each row sum must vanish within
    1e-9; diagonals are then recomputed as minus the off-diagonal row sum.
    """
    q = np.asarray(raw, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise InvalidGenerator("generator must be a square matrix")
    J = q.shape[0]
    if J < 2:
        raise InvalidGenerator("need at least two states")
    if not np.all(np.isfinite(q)):
        raise InvalidGenerator("non-finite entries")
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0):
        raise InvalidGenerator("negative off-diagonal rate")
    row_dev = np.abs(q.sum(axis=1))
    if np.any(row_dev > ROW_SUM_TOL):
        raise InvalidGenerator(
            "row sums deviate from zero by up to %.3e" % row_dev.max())
    q = off
    np.fill_diagonal(q, -off.sum(axis=1))
    if state_labels is None:
        state_labels = [str(i + 1) for i in range(J)]
    if len(state_labels) != J:
        raise InvalidGenerator("label count does not match matrix size")
    return GeneratorMatrix(q=q, state_labels=list(state_labels))


def load_generator(path):
    """Read {"labels": [...], "Q": [[...]]} and validate."""
    with open(path) as fh:
        data = json.load(fh)
    if "Q" not in data:
        raise InvalidGenerator("generator file lacks a 'Q' entry")
    return validate_generator(data["Q"], data.get("labels"))


def save_generator(g, path):
    with open(path, "w") as fh:
        json.dump({"labels": g.state_labels, "Q": g.q.tolist()}, fh, indent=2)


def as_simplex(v, tol=1e-9):
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v < -tol):
        raise InvalidInput("not a probability vector")
    if abs(v.sum() - 1.0) > tol:
        raise InvalidInput("entries must sum to one")
    return np.clip(v, 0.0, None) / np.clip(v, 0.0, None).sum()


def project_interior(rho, floor=1e-12):
    """Clip to a strictly positive floor and renormalize (explicit, never silent)."""
    rho = np.asarray(rho, dtype=float)
    out = np.clip(rho, floor, None)
    return out / out.sum()


def is_interior(rho, floor=INTERIOR_FLOOR):
    return bool(np.all(np.asarray(rho) >= floor))


@dataclass
class BalanceReport:
    invariant_measure: np.ndarray
    detailed_balance: bool
    max_violation: float
    weakly_reversible: bool
    tol: float


def _strongly_connected(adj):
    """Whether the digraph with edges i -> j where adj[i, j] is strongly
    connected: state 0 reaches every state along the edges and against
    them (breadth-first, one frontier per step)."""
    for a in (adj, adj.T):
        seen = np.zeros(a.shape[0], dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = a[frontier].any(axis=0) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


def analyze_balance(g, tol=1e-9):
    """Invariant measure and detailed-balance diagnosis of an irreducible chain.

    A chain whose graph (i -> j where Q_ij > 0) is not strongly connected
    raises ReducibleChain; the test is that state 0 reaches every state both
    in the graph and in its transpose.  pi then solves Q^T pi = 0 (dense
    solve with a normalization row), and a coordinate pi_i <= 1e-14, which
    only rounding can produce, raises DegenerateInvariantMeasure.  Detailed
    balance holds when max_ij |pi_i Q_ij - pi_j Q_ji| <= tol relative to the
    largest flux pi_i Q_ij.
    """
    Q = g.q
    J = g.size
    off = Q.copy()
    np.fill_diagonal(off, 0.0)
    if not _strongly_connected(off > 0):
        raise ReducibleChain("generator graph is not strongly connected")
    A = Q.T.copy()
    A[-1, :] = 1.0
    b = np.zeros(J)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    if np.any(pi <= 1e-14):
        raise DegenerateInvariantMeasure(
            "invariant measure has a non-positive coordinate")
    pi = pi / pi.sum()
    flux = pi[:, None] * off
    max_violation = float(np.abs(flux - flux.T).max())
    scale = float(flux.max())
    db = max_violation <= tol * max(scale, 1e-300)
    return BalanceReport(invariant_measure=pi,
                         detailed_balance=bool(db), max_violation=max_violation,
                         weakly_reversible=g.weakly_reversible, tol=tol)


def _check_entropy_support(rho, pi):
    if not np.isfinite(rho).all():
        raise InvalidInput("rho has a non-finite entry")
    if np.any((rho > 0) & (pi <= 0)):
        raise InfiniteEntropy("rho charges a state with zero reference mass")


def _entropy_row(rho, pi):
    pos = rho > 0
    return float(np.sum(rho[pos] * np.log(rho[pos] / pi[pos])))


def relative_entropy(rho, pi):
    """E_pi(rho) = sum rho_i log(rho_i/pi_i), with 0 log 0 := 0.

    An (n, J) stack of rows gives one value per row, each bit for bit the
    value of its row alone.  The stack is worked through in chunks of at
    most ENTROPY_CHUNK elements (one row if a row is longer), so that no
    temporary grows with n.  A row sum over a strictly positive chunk adds
    the terms in the order of the one-row sum; a chunk with a row that is
    not strictly positive goes row by row, because dropping its zero terms
    changes that order.  A NaN or infinite entry raises InvalidInput.
    """
    rho = np.asarray(rho, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if rho.ndim == 1:
        _check_entropy_support(rho, pi)
        return _entropy_row(rho, pi)
    out = np.empty(rho.shape[0])
    step = max(1, ENTROPY_CHUNK // rho.shape[1])
    for k in range(0, rho.shape[0], step):
        block = rho[k:k + step]
        _check_entropy_support(block, pi)
        if np.all(block > 0):
            out[k:k + step] = np.sum(block * np.log(block / pi), axis=1)
        else:
            out[k:k + step] = [_entropy_row(row, pi) for row in block]
    return out


def relative_entropy_gradient(rho, pi):
    """Nodal gradient log(rho_i/pi_i) + 1, raw and as zero-sum representative."""
    rho = np.asarray(rho, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if not is_interior(rho):
        raise BoundaryPoint("entropy gradient requested at the simplex boundary")
    raw = np.log(rho / pi) + 1.0
    return raw, convex.project_zero_sum(raw)


# (phi, phi', phi'') of the Hamiltonian's edge terms.
EXPM1 = (np.expm1, np.exp, np.exp)


class EdgeFunctional:
    """f(xi) = sum_e w_e phi(xi[dst_e] - xi[src_e]) over the edges of a graph.

    `phi` is a triple (phi, phi', phi'') of vectorized scalar functions.  The
    gradient gathers phi' at the edge heads minus the tails; the Hessian is
    the graph Laplacian with edge weights w_e phi''.  Edge differences above
    EXP_GUARD raise ExponentOverflow; non-edges exponentiate nothing.
    """

    def __init__(self, src, dst, weights, J, phi=EXPM1):
        self.src, self.dst, self.weights, self.J = src, dst, weights, J
        self.phi = phi

    def _diff(self, xi):
        d = xi[self.dst] - xi[self.src]
        if d.size and np.abs(d).max() > EXP_GUARD:
            raise ExponentOverflow(
                "potential difference on an edge exceeds %g" % EXP_GUARD)
        return d

    def __call__(self, xi):
        return float(self.weights @ self.phi[0](self._diff(xi)))

    def gradient(self, xi):
        m = self.weights * self.phi[1](self._diff(xi))
        return (np.bincount(self.dst, m, self.J)
                - np.bincount(self.src, m, self.J))

    @cached_property
    def _laplacian_index(self):
        # Flat positions (i,j), (j,i), (i,i), (j,j) of each edge i -> j.
        J, src, dst = self.J, self.src, self.dst
        return np.concatenate([src * J + dst, dst * J + src,
                               src * (J + 1), dst * (J + 1)])

    def hessian(self, xi):
        a = self.weights * self.phi[2](self._diff(xi))
        return np.bincount(self._laplacian_index,
                           np.concatenate([-a, -a, a, a]),
                           self.J * self.J).reshape(self.J, self.J)


def hamiltonian_functional(rho, g):
    """H(rho, .) as an edge functional: weights rho_i Q_ij, phi = expm1."""
    src, dst, rate = g.edges
    return EdgeFunctional(src, dst, np.asarray(rho, dtype=float)[src] * rate,
                          g.size)


def hamiltonian(rho, xi, g):
    """H(rho, xi) = sum_ij rho_i Q_ij (e^{xi_j - xi_i} - 1)."""
    return hamiltonian_functional(rho, g)(np.asarray(xi, dtype=float))


def hamiltonian_gradient(rho, xi, g):
    """d/dxi_k H = sum_i rho_i Q_ik e^{xi_k-xi_i} - rho_k sum_j Q_kj e^{xi_j-xi_k}."""
    return hamiltonian_functional(rho, g).gradient(np.asarray(xi, dtype=float))


def hamiltonian_hessian(rho, xi, g):
    return hamiltonian_functional(rho, g).hessian(np.asarray(xi, dtype=float))


def lagrangian(rho, s, g, tol=convex.DEFAULT_TOL, x0=None):
    """L(rho, s) = sup_xi <xi,s> - H(rho,xi) via Newton with exact Hessian.

    The value is clamped to zero only when it is within tol of zero; genuine
    negatives (which cannot occur for valid inputs) are left visible.
    """
    H = hamiltonian_functional(rho, g)
    res = convex.conjugate(H, s, x0=x0, tol=tol, grad=H.gradient,
                           hess=H.hessian)
    if abs(res.value) <= tol:
        res.value = max(res.value, 0.0)
    return res


def drift(rho, g):
    """Forward-equation right-hand side Q^T rho; sums to zero exactly."""
    return g.q.T @ np.asarray(rho, dtype=float)
