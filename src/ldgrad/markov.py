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
The graph of Q is held as one record per undirected edge
(`GeneratorMatrix.pairs`): the pairs i < j with Q_ij > 0 or Q_ji > 0, each
with its forward rate Q_ij and backward rate Q_ji (0 on one side of a
one-way edge).  Every edge sum of the package, H and the dissipation
potentials in `structure` alike, is an `EdgeFunctional` over the pairs,
sum w+ phi(d) + w- phi(-d) with d = xi_j - xi_i.  H has the weights
w+ = rho_i Q_ij and w- = rho_j Q_ji, and where both are positive

    w+ (e^d - 1) + w- (e^-d - 1) = a [cosh(d + F/2) - cosh(F/2)],
    a = 2 sqrt(w+ w-),   F = log(w+ / w-).

When the pairs form a tree (the two-state, birth-death and
discretized-diffusion chains), s fixes the flux on every pair and the
conjugate of any edge sum is a sum of explicit per-pair transforms
(`EdgeTree`); only graphs that are not trees take Newton.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import convex
from .errors import (BoundaryPoint, DegenerateInvariantMeasure,
                     ExponentOverflow, InfiniteEntropy, InvalidGenerator,
                     InvalidInput, ReducibleChain, UnboundedConjugate)

ROW_SUM_TOL = 1e-9
SIMPLEX_TOL = 1e-9
BALANCE_TOL = 1e-9
INTERIOR_FLOOR = 1e-12
PI_FLOOR = 1e-14
EXP_GUARD = 700.0
ENTROPY_CHUNK = 8192


# The undirected edges {i, j} of a generator graph, i < j in row-major
# order, with the forward rate Q_ij and the backward rate Q_ji.
EdgePairs = namedtuple("EdgePairs", "i j fwd bwd")


@dataclass
class GeneratorMatrix:
    q: np.ndarray

    @property
    def size(self):
        return self.q.shape[0]

    @property
    def weakly_reversible(self):
        """Whether every pair has both rates positive."""
        return bool(np.all(np.minimum(self.pairs.fwd, self.pairs.bwd) > 0))

    @property
    def max_exit_rate(self):
        """gamma = max_i sum_{j != i} Q_ij."""
        return float(np.max(self.q.sum(axis=1) - np.diag(self.q)))

    @cached_property
    def pairs(self):
        """`EdgePairs` of the pairs i < j with Q_ij > 0 or Q_ji > 0.  Cached:
        q is built once by `validate_generator` and never mutated."""
        i, j = np.nonzero(np.triu((self.q > 0) | (self.q.T > 0), 1))
        return EdgePairs(i, j, self.q[i, j], self.q[j, i])

    @cached_property
    def tree(self):
        """`EdgeTree` of the pairs, or None when they do not form a tree.
        Cached like `pairs`."""
        return EdgeTree.build(self.pairs, self.size)

    @cached_property
    def balance(self):
        """`analyze_balance` of this generator, computed once.  Cached like
        `pairs`; a chain without one raises on every access."""
        return analyze_balance(self)


def validate_generator(raw):
    """Check intensity-matrix structure and force exact zero row sums.

    Off-diagonal entries must be >= 0 and each row sum must vanish within
    ROW_SUM_TOL of that row's largest rate, so that Q and cQ pass alike;
    diagonals are then recomputed as minus the off-diagonal row sum.
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
    row_dev, rate = np.abs(q.sum(axis=1)), off.max(axis=1)
    k = int(np.argmax(row_dev - ROW_SUM_TOL * rate))
    if row_dev[k] > ROW_SUM_TOL * rate[k]:
        raise InvalidGenerator("row %d sums to %.3e, more than %g of its "
                               "largest rate %.3e" % (k, row_dev[k],
                                                      ROW_SUM_TOL, rate[k]))
    q = off
    np.fill_diagonal(q, -off.sum(axis=1))
    return GeneratorMatrix(q=q)


def as_simplex(v, name):
    """v as a probability vector; InvalidInput naming it (`name`) when it
    has a non-finite or negative entry or does not sum to one."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v < -SIMPLEX_TOL):
        raise InvalidInput("%s is not a probability vector" % name)
    if abs(v.sum() - 1.0) > SIMPLEX_TOL:
        raise InvalidInput("%s must sum to one" % name)
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


def analyze_balance(g):
    """Invariant measure and detailed-balance diagnosis of an irreducible chain.

    A chain whose graph (i -> j where Q_ij > 0) is not strongly connected
    raises ReducibleChain (state 0 must reach every state in the graph and
    in its transpose).  pi then takes the conjugate's route (`g.tree`).  On
    a tree pi_j / pi_i = Q_ij / Q_ji on every pair, so log pi is
    `EdgeTree.potential` of the steps log Q_ij - log Q_ji: no solve, and
    only a pi_i that underflows to 0 raises DegenerateInvariantMeasure.
    Other graphs solve Q^T pi = 0 densely, the last row replaced by the
    normalization, and pi_i <= PI_FLOOR raises it: an absolute floor, which
    refuses positive coordinates too.  Either message names i and pi_i.
    Detailed balance holds when |pi_i Q_ij - pi_j Q_ji| <= BALANCE_TOL on
    every pair, relative to the largest flux pi_i Q_ij.
    """
    J = g.size
    if not _strongly_connected(g.q > 0):  # the diagonal is <= 0
        raise ReducibleChain("generator graph is not strongly connected")
    i, j, fwd, bwd = g.pairs
    if g.tree is None:
        floor = PI_FLOOR
        pi = np.linalg.solve(np.vstack([g.q.T[:-1], np.ones(J)]),
                             np.eye(J)[-1])
    else:
        floor, e = 0.0, g.tree.edge
        log_pi = g.tree.potential(np.log(fwd[e]) - np.log(bwd[e]))
        pi = np.exp(log_pi - log_pi.max())
    k = int(np.argmin(pi))
    if pi[k] <= floor:
        raise DegenerateInvariantMeasure(
            "invariant measure coordinate pi_%d = %.3e is at or below %g"
            % (k, pi[k], floor))
    pi = pi / pi.sum()
    forward, backward = pi[i] * fwd, pi[j] * bwd
    max_violation = float(np.abs(forward - backward).max())
    scale = float(max(forward.max(), backward.max()))
    db = max_violation <= BALANCE_TOL * max(scale, 1e-300)
    return BalanceReport(invariant_measure=pi,
                         detailed_balance=bool(db), max_violation=max_violation)


def relative_entropy(rho, pi):
    """E_pi(rho) = sum rho_i log(rho_i/pi_i), with 0 log 0 := 0.

    An (n, J) stack of rows gives one value per row, each bit for bit the
    value of its row alone; a 1-D rho is a one-row stack and gives a float.
    The stack is worked through in chunks of at most ENTROPY_CHUNK elements
    (one row if a row is longer), so that no temporary grows with n.  A
    zero entry takes the ratio 1 and so adds a zero term to its row sum.
    A NaN or infinite entry raises InvalidInput.
    """
    rho = np.asarray(rho, dtype=float)
    pi = np.asarray(pi, dtype=float)
    rows = rho.reshape(-1, rho.shape[-1])
    out = np.empty(rows.shape[0])
    step = max(1, ENTROPY_CHUNK // rows.shape[1])
    for k in range(0, rows.shape[0], step):
        block = rows[k:k + step]
        if not np.isfinite(block).all():
            raise InvalidInput("rho has a non-finite entry")
        if np.any((block > 0) & (pi <= 0)):
            raise InfiniteEntropy(
                "rho charges a state with zero reference mass")
        ratio = np.divide(block, pi, out=np.ones_like(block),
                          where=block > 0)
        out[k:k + step] = np.sum(block * np.log(ratio), axis=1)
    return float(out[0]) if rho.ndim == 1 else out


def relative_entropy_gradient(rho, pi):
    """Nodal gradient log(rho_i/pi_i) + 1, raw and as zero-sum representative."""
    rho = np.asarray(rho, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if not is_interior(rho):
        raise BoundaryPoint("entropy gradient requested at the simplex boundary")
    raw = np.log(rho / pi) + 1.0
    return raw, convex.project_zero_sum(raw)


def _expm1_argmax(a, b, j):
    """a e^z - b e^-z = j: z = asinh(j / (2 sqrt(ab))) + log(b/a) / 2 when
    a, b > 0.  A one-way edge has the finite maximiser log(j/a) (or
    log(b/-j)) only for a nonzero flux of its sign, an edge without weight
    only at zero flux (z = 0); any other flux has no finite cost."""
    z = np.zeros(j.size)
    two = (a > 0) & (b > 0)
    ra, rb = np.sqrt(a[two]), np.sqrt(b[two])
    z[two] = (np.arcsinh(j[two] / (2.0 * ra * rb))
              + (np.log(rb) - np.log(ra)))
    fwd = ~two & (j > 0) & (a > 0)
    bwd = ~two & (j < 0) & (b > 0)
    z[fwd] = np.log(j[fwd] / a[fwd])
    z[bwd] = np.log(b[bwd] / -j[bwd])
    return z, two | fwd | bwd | ((j == 0) & (a == 0) & (b == 0))


def _quadratic_argmax(a, b, j):
    """(a + b) z = j: z = j / (a + b); a + b = 0 has finite cost only at
    zero flux."""
    return (np.divide(j, a + b, out=np.zeros(j.size), where=a + b > 0),
            (a + b > 0) | (j == 0))


# (phi, phi', phi'', argmax, guard) of the edge potentials.  argmax(a, b, j)
# gives per pair, with forward weight a, backward weight b and flux j from i
# to j, the maximiser z of j z - a phi(z) - b phi(-z), and a mask of the
# pairs whose cost is finite.  A pair difference above guard raises
# ExponentOverflow: EXP_GUARD where phi exponentiates, none (inf) for z^2/2.
EXPM1 = (np.expm1, np.exp, np.exp, _expm1_argmax, EXP_GUARD)
QUADRATIC = (lambda z: 0.5 * z * z, lambda z: z, np.ones_like,
             _quadratic_argmax, np.inf)


class EdgeTree:
    """Elimination order of a generator graph whose pairs form a tree.

    The states are listed in depth-first preorder from state 0 (`order`), so
    the subtree of the state at position k is the run of positions
    k .. tout[k-1] - 1, and the reversed order eliminates leaves first.  The
    state v at position k >= 1 owns the tree edge to its parent p
    (`parent[k-1]`): the pair `edge[k-1]`, with `sign[k-1]` = 1 when that
    pair is (p, v) and -1 when it is (v, p).

    On a tree the slope s fixes the net flux on every pair: the flux from p
    into v is the mass that s puts on the subtree of v, a difference of two
    prefix sums of s in preorder (on a path graph, one cumsum).  The
    conjugate of sum_e w+_e phi(d_e) + w-_e phi(-d_e) then splits into one
    Legendre transform per pair, sup_z j z - w+ phi(z) - w- phi(-z) with j
    the flux from i to j, and the maximiser is the sum of the pair
    maximisers z, signed toward the child, along the path from the root.
    Apart from phi itself, only that pair maximiser and the guard on z (the
    4th and 5th entries of the phi tuple) depend on phi.
    """

    def __init__(self, order, parent, tout, edge, sign):
        self.order, self.parent, self.tout = order, parent, tout
        self.edge, self.sign = edge, sign

    @classmethod
    def build(cls, pairs, J):
        """The tree of `pairs` (`EdgePairs`) on J states, or None when the
        pairs have a cycle or leave a state unconnected."""
        if pairs.i.size != J - 1:
            return None
        adj = [[] for _ in range(J)]  # (neighbour, pair), neighbours ascending
        for e, (u, v) in enumerate(zip(pairs.i.tolist(), pairs.j.tolist())):
            adj[u].append((v, e))
            adj[v].append((u, e))
        up = [None] * J  # (parent, pair) of each state reached
        up[0] = (-1, -1)
        order, stack = [], [0]
        while stack:
            v = stack.pop()
            order.append(v)
            for u, e in reversed(adj[v]):
                if up[u] is None:
                    up[u] = (v, e)
                    stack.append(u)
        if len(order) < J:
            return None
        size = [1] * J
        for v in reversed(order[1:]):
            size[up[v][0]] += size[v]
        par, edge = np.array([up[v] for v in order[1:]], dtype=np.intp).T
        return cls(order=np.array(order, dtype=np.intp), parent=par,
                   tout=np.arange(1, J) + np.array(
                       [size[v] for v in order[1:]], dtype=np.intp),
                   edge=edge, sign=np.where(pairs.i[edge] == par, 1.0, -1.0))

    def conjugate(self, fwd, bwd, s, phi):
        """(value, zero-sum argmax) of sup_xi <xi, s> - sum_e fwd_e phi(d_e)
        + bwd_e phi(-d_e), d_e = xi[j_e] - xi[i_e], for zero-sum s, in
        closed form.

        phi[3] gives the pair maximisers; a pair whose cost is infinite or
        whose sup is not attained raises UnboundedConjugate, and |z| above
        phi's guard (phi[4]) raises ExponentOverflow.
        """
        a, b = fwd[self.edge], bwd[self.edge]
        # Net flux from i to j: the signed mass of s on the child's subtree.
        cum = np.concatenate(([0.0], np.cumsum(s[self.order])))
        j = self.sign * (cum[self.tout] - cum[1:-1])
        z, finite = phi[3](a, b, j)
        if not finite.all():
            k = int(np.flatnonzero(~finite)[0])
            lo, hi = sorted((self.parent[k], self.order[k + 1]))
            raise UnboundedConjugate(
                "flux %.6g on tree edge %d -- %d has no finite cost (weights "
                "%.6g forward, %.6g back)" % (j[k], lo, hi, a[k], b[k]))
        if z.size and np.abs(z).max() > phi[4]:
            raise ExponentOverflow(
                "potential difference on an edge exceeds %g" % phi[4])
        value = float(np.sum(j * z - a * phi[0](z) - b * phi[0](-z)))
        xi = self.potential(z)
        return value, xi - xi.mean()

    def potential(self, z):
        """The xi with xi[0] = 0 and xi_j - xi_i = z[k] on the pair (i, j) of
        tree edge k (`edge[k]`): the steps, signed toward the child, summed
        from the root by one cumsum in preorder."""
        J = self.order.size
        z = self.sign * z  # the potential step from parent to child
        delta = -np.bincount(self.tout, z, J + 1)
        delta[1:J] += z
        xi = np.empty(J)
        xi[self.order] = np.cumsum(delta[:J])
        return xi


class EdgeFunctional:
    """f(xi) = sum_e fwd_e phi(d_e) + bwd_e phi(-d_e), d_e = xi[j_e] - xi[i_e],
    over the pairs {i_e < j_e} of a generator `g` (`g.pairs`), with one
    forward and one backward weight per pair.

    `phi` is one of the tuples `EXPM1`, `QUADRATIC`.  The gradient
    gathers the pair flux fwd phi'(d) - bwd phi'(-d) at j minus i; the
    Hessian is the graph Laplacian with pair weights
    fwd phi''(d) + bwd phi''(-d).  Pair differences above phi's guard
    (EXP_GUARD for expm1, none for z^2/2) raise ExponentOverflow;
    non-edges exponentiate nothing.

    `conjugate` takes one of two routes, decided by the graph alone.  When
    the pairs form a tree (`g.tree`), the conjugate is the exact closed form
    of `EdgeTree.conjugate` for every phi, O(J) and with no iteration.  Any
    other graph takes damped Newton (`convex.conjugate`) with the
    closed-form gradient and Hessian.
    """

    def __init__(self, g, fwd, bwd, phi=EXPM1):
        self.g, self.fwd, self.bwd, self.phi, self.J = g, fwd, bwd, phi, g.size
        self.i, self.j = g.pairs.i, g.pairs.j

    def _diff(self, xi):
        d = xi[self.j] - xi[self.i]
        if d.size and np.abs(d).max() > self.phi[4]:
            raise ExponentOverflow(
                "potential difference on an edge exceeds %g" % self.phi[4])
        return d

    def __call__(self, xi):
        d = self._diff(xi)
        return float(self.fwd @ self.phi[0](d) + self.bwd @ self.phi[0](-d))

    def gradient(self, xi):
        d = self._diff(xi)
        m = self.fwd * self.phi[1](d) - self.bwd * self.phi[1](-d)
        return np.bincount(self.j, m, self.J) - np.bincount(self.i, m, self.J)

    def hessian(self, xi):
        d = self._diff(xi)
        lap = np.zeros((self.J, self.J))
        lap[self.i, self.j] = lap[self.j, self.i] = -(
            self.fwd * self.phi[2](d) + self.bwd * self.phi[2](-d))
        np.fill_diagonal(lap, -lap.sum(axis=1))
        return lap

    def conjugate(self, s, x0=None, tol=convex.DEFAULT_TOL):
        """sup_xi <xi, s> - f(xi) over zero-sum xi, as a ConjugateResult.

        With a tree, the route for every phi, the result is exact and
        ignores x0 and tol; it reports zero iterations and the measured
        residual |P(D f(xi) - s)|.  Without one, Newton.
        """
        if self.g.tree is None:
            return convex.conjugate(self, s, x0=x0, tol=tol,
                                    grad=self.gradient, hess=self.hessian)
        s = convex.project_zero_sum(convex.check_slope(s, tol))
        value, xi = self.g.tree.conjugate(self.fwd, self.bwd, s, self.phi)
        resid = np.linalg.norm(convex.project_zero_sum(self.gradient(xi) - s))
        return convex.ConjugateResult(value=value, argmax=xi, converged=True,
                                      iterations=0, residual_norm=float(resid))


def hamiltonian_functional(rho, g):
    """H(rho, .) as an edge functional: pair weights rho_i Q_ij forward and
    rho_j Q_ji back, phi = expm1."""
    i, j, fwd, bwd = g.pairs
    rho = np.asarray(rho, dtype=float)
    return EdgeFunctional(g, rho[i] * fwd, rho[j] * bwd)


def hamiltonian(rho, xi, g):
    """H(rho, xi) = sum_ij rho_i Q_ij (e^{xi_j - xi_i} - 1)."""
    return hamiltonian_functional(rho, g)(np.asarray(xi, dtype=float))


def lagrangian(rho, s, g, x0=None):
    """L(rho, s) = sup_xi <xi,s> - H(rho,xi), by `EdgeFunctional.conjugate`:
    closed form on a tree, Newton from x0 with exact Hessian otherwise.

    The value is clamped to zero only when it is within convex.DEFAULT_TOL
    of zero; genuine negatives (impossible for valid inputs) stay visible.
    """
    res = hamiltonian_functional(rho, g).conjugate(s, x0=x0)
    if abs(res.value) <= convex.DEFAULT_TOL:
        res.value = max(res.value, 0.0)
    return res


def drift(rho, g):
    """Forward-equation right-hand side Q^T rho; sums to zero exactly."""
    return g.q.T @ np.asarray(rho, dtype=float)
