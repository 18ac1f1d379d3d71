"""Seeded generator factories, the generator-file writer and the exact OU
marginal for the tests."""

import json
import math

import numpy as np

from ldgrad.markov import validate_generator


def save_generator(g, path):
    """Write g as the generator file that `cli.load_generator` reads,
    labels "1" .. "J" included."""
    labels = [str(i + 1) for i in range(g.size)]
    with open(path, "w") as fh:
        json.dump({"labels": labels, "Q": g.q.tolist()}, fh, indent=2)


def ou_exact_marginal(grid, mu0, var0, t):
    """Exact marginal of the unit Ornstein-Uhlenbeck process (quadratic
    potential) started from N(mu0, var0), mapped to masses on `grid` for
    comparison with the chain."""
    mu = mu0 * math.exp(-t)
    var = 1.0 + (var0 - 1.0) * math.exp(-2.0 * t)
    dens = np.exp(-0.5 * (grid.nodes - mu) ** 2 / var)
    return dens / dens.sum()  # full cells of width h: the h cancels


def two_state_symmetric(rate=1.0):
    return validate_generator([[-rate, rate], [rate, -rate]])


def two_state(q12, q21):
    return validate_generator([[-q12, q12], [q21, -q21]])


def three_state_cycle():
    """Uniform one-way cycle on three states; invariant measure is uniform
    but detailed balance fails."""
    return validate_generator([[-1.0, 1.0, 0.0],
                               [0.0, -1.0, 1.0],
                               [1.0, 0.0, -1.0]])


def random_reversible(J, seed, extra_edge_prob=0.5):
    """Reversible chain built from symmetric conductances: Q_ij = C_ij / pi_i,
    so pi_i Q_ij = C_ij = pi_j Q_ji holds by construction.  A ring backbone
    keeps the chain irreducible."""
    rng = np.random.default_rng(seed)
    pi = rng.uniform(0.5, 1.5, J)
    pi = pi / pi.sum()
    C = np.zeros((J, J))
    for i in range(J):
        j = (i + 1) % J
        w = rng.uniform(0.5, 1.5)
        C[i, j] = C[j, i] = w
    for i in range(J):
        for j in range(i + 2, J):
            if (i, j) == (0, J - 1):
                continue
            if rng.random() < extra_edge_prob:
                w = rng.uniform(0.2, 1.0)
                C[i, j] = C[j, i] = w
    Q = C / pi[:, None]
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return validate_generator(Q)


def random_irreducible(J, seed, extra_edge_prob=0.3):
    """Irreducible chain with a directed ring backbone; generally neither
    reversible nor weakly reversible."""
    rng = np.random.default_rng(seed)
    Q = np.zeros((J, J))
    for i in range(J):
        Q[i, (i + 1) % J] = rng.uniform(0.3, 1.5)
    for i in range(J):
        for j in range(J):
            if i != j and Q[i, j] == 0.0 and rng.random() < extra_edge_prob:
                Q[i, j] = rng.uniform(0.1, 1.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return validate_generator(Q)
