"""Gradient structures induced by the Markov rate functional.

Given L(rho, s) = sup_xi <xi,s> - H(rho,xi), any covector field V yields the
split

    L(rho, s) = Psi(rho, s) + Psi*(rho, -V(rho)) + <V(rho), s>,
    Psi*(rho, xi) = H(rho, V(rho) + xi) - H(rho, V(rho)),

and both potentials are non-negative exactly when V is the critical covector
V_L(rho) = argmin_xi H(rho, .) = D_s L(rho, 0).  Under detailed balance
V_L = (1/2) D E_pi.

Every structure here weights each pair {i, j} of the generator graph
(`GeneratorMatrix.pairs`) by one symmetric rule, the same weight forward
and back:

    Psi*(rho, xi) = sum_{i<j} L_ij(rho) [phi(xi_j - xi_i) + phi(xi_i - xi_j)],
    L_ij = m(rho_i Q_ij, rho_j Q_ji),
    m(a, b) = (a - b) / (2 psi'((1/2) log(a/b))),

with psi the even part of phi.  Under detailed balance a / b = r_i / r_j,
r = rho/pi, so at xi = -DS with S = (1/2) E_pi the pair difference is
(1/2) log(a/b), and the pair carries the flux 2 L_ij psi' = a - b: the flow
of S is the forward equation rho' = Q^T rho.  The exact structure
(phi = expm1) has the geometric mean, the weight sqrt(rho_i Q_ij rho_j Q_ji),
which needs no pi; since expm1(z) + expm1(-z) = 2 (cosh z - 1), its Psi* is
sum_{i<j} 2 sqrt(rho_i Q_ij rho_j Q_ji) (cosh(xi_j - xi_i) - 1), the
paper's gradient structure for Markov particles, and under detailed balance
the V_L-shifted H above.  phi(z) = cosh z - 1 gives the same Psi*, pair by
pair, so the cosh form has no `Family` member of its own.
The quadratic member phi(z) = z^2/2 has the logarithmic mean
(a - b) / log(a/b), the discrete-transport metric of Maas ("Gradient flows
of the entropy for finite Markov chains").  A one-way pair has the weight 0;
the quadratic member needs Q_ij > 0 iff Q_ji > 0.

The flow of S, rho' = D_xi Psi*(rho, -DS(rho)), is the gradient of the
structure's edge functional at xi = -DS (`flow_field`): pair {i, j} has
the difference d = delta / 2, delta = log r_i - log r_j, and carries the
flux 2 L_ij psi'(d) from i to j, that is sqrt(4ab) sinh(delta / 2) for the
exact structure and m(a, b) delta for the quadratic member, with
a = rho_i Q_ij and b = rho_j Q_ji.  The exact structure's flux is linear
in rho: it is rho_i K_ij - rho_j K_ji with K_ij = sqrt(Q_ij Q_ji pi_j /
pi_i), for every rho and with or without detailed balance, so its flow is
the forward equation rho' = K^T rho of the generator K
(`GradientStructure.flow_generator`), and K = Q under detailed balance:
the gradient flow is the Markov evolution.  The quadratic member's flux
m(a, b) delta is not linear in rho in general: delta = log(a / b) - A_ij
with A_ij = log(pi_i Q_ij) - log(pi_j Q_ji), so the flux is
(a - b) - A_ij m(a, b).  Under detailed balance A = 0, the flux is a - b
for every rho and the flow is rho' = Q^T rho, so its `flow_generator` is
the chain's own generator; with the solved pi, A is rounding, and the
gradient is within |A_ij| max(a, b) of a - b pair by pair.  The entropy
scale is 1/2 for every structure by construction;
`determine_entropy_scale` checks the drift residual there.

A structure is thus fixed by the generator and the family alone
(`GradientStructure`); pi and the balance verdict are the generator's own,
computed once (`GeneratorMatrix.balance`: in closed form on a tree, by one
dense solve otherwise), and pi enters only S and K.  Every potential above
is a sum over the pairs and is evaluated by `markov.EdgeFunctional` (for H,
Newton, `psi` and the flow); the shift by V tilts the weights of H by
e^{V_j - V_i} forward and e^{V_i - V_j} back.

Every conjugate here (V_L, L and Psi, the conjugate of Psi*) goes through
`EdgeFunctional.conjugate`.  When the pairs form a tree, each has an exact
per-pair closed form in O(J), so the split and the detailed-balance
identities hold to rounding with no Newton solve and no search box; only
graphs that are not trees use Newton.

A gradient structure exists exactly when V_L is a derivative.  The simplex
interior is simply connected, so this holds exactly when the projected
Jacobian P D_rho V_L P (P the projection onto zero-sum vectors) is
symmetric.  `covector_jacobian` gets D_rho V_L from V_L itself by the
implicit function theorem, with one linear solve and no further Newton
solve, and `diagnostics` reports the relative asymmetry
max|M - M^T| / max|M| of M = P D_rho V_L P as the integrability defect.
"""

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import convex, markov
from .errors import BoundaryPoint, NotGradientSystem, NotWeaklyReversible

DIAG_TOL = 1e-6
LOG_RATIO_GUARD = 1e-8
DRIFT_TOL = 1e-8
DRIFT_SAMPLES = 20
# S = ENTROPY_SCALE * E_pi for every structure: the pair-weight rule of the
# module docstring fixes it.
ENTROPY_SCALE = 0.5


class Family(enum.Enum):
    LDP_EXACT = "ldp"
    QUADRATIC_FAMILY = "quadratic_family"


def _geometric_mean(a, b):
    return np.sqrt(a * b)


def _log_mean(a, b):
    """(a - b) / log(a / b) for nonnegative a, b, and its continuity value
    (a + b) / 2 where |log(a / b)| < LOG_RATIO_GUARD or a = b = 0, so that
    m(a, 0) = m(0, b) = m(0, 0) = 0, with no warning.  Pairs near pi fall
    in that band.  No integration evaluates it; `functional` does, for
    analyze's drift check (`flow_field`), `psi` and
    `diffusion.decomposition_residual`.  The masked writes leave the other
    pairs' bits as the plain quotient."""
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.log(a / b)
    # Written so that the nan of a = b = 0 counts as near.
    near = ~(np.abs(d) >= LOG_RATIO_GUARD)
    any_near = near.any()
    if any_near:
        d[near] = 1.0
    m = a - b
    m /= d
    if any_near:
        m[near] = 0.5 * (a[near] + b[near])
    return m


# (phi, pair mean m(a, b)) of each structure's Psi*.
_POTENTIALS = {
    Family.LDP_EXACT: (markov.EXPM1, _geometric_mean),
    Family.QUADRATIC_FAMILY: (markov.QUADRATIC, _log_mean)}


@dataclass(frozen=True)
class GradientStructure:
    """(generator, dissipation family); pi, S = ENTROPY_SCALE * E_pi and the
    pair weights of Psi* all follow from these two.  Frozen: a structure is
    that pair of values.
    """
    generator: markov.GeneratorMatrix
    family: Family

    @property
    def pi(self):
        return self.generator.balance.invariant_measure

    def functional(self, rho):
        """Psi*(rho, .) as an edge functional: on each pair the weight
        m(rho_i Q_ij, rho_j Q_ji) forward and back, with m the geometric
        mean for the exact structure and the guarded logarithmic mean for
        the quadratic member."""
        phi, mean = _POTENTIALS[self.family]
        i, j, fwd, bwd = self.generator.pairs
        rho = np.asarray(rho, dtype=float)
        w = mean(rho[i] * fwd, rho[j] * bwd)
        return markov.EdgeFunctional(self.generator, w, w, phi)

    @cached_property
    def flow_generator(self):
        """The generator whose forward equation rho' = K^T rho is the
        structure's flow, as a `markov.GeneratorMatrix`.

        For the exact structure it is K, K_ij = sqrt(Q_ij Q_ji pi_j / pi_i)
        off the diagonal (see the module docstring), formed as
        sqrt(Q_ij) sqrt(Q_ji) sqrt(pi_j / pi_i) so that no product of two
        rates overflows, and each diagonal entry is minus its row sum.
        Under detailed balance K = Q to rounding.  For the quadratic member
        it is the chain's own generator when the chain is in detailed
        balance, where the pair flux m(a, b) log(a / b) is a - b, and None
        otherwise: its flow is then not linear in rho.  Built once."""
        if self.family is not Family.LDP_EXACT:
            return (self.generator if self.generator.balance.detailed_balance
                    else None)
        i, j, fwd, bwd = self.generator.pairs
        pi = self.pi
        root = np.sqrt(fwd) * np.sqrt(bwd)
        k = np.zeros((self.generator.size, self.generator.size))
        k[i, j] = root * np.sqrt(pi[j] / pi[i])
        k[j, i] = root * np.sqrt(pi[i] / pi[j])
        np.fill_diagonal(k, -k.sum(axis=1))
        return markov.GeneratorMatrix(k)

    def entropy(self, rho):
        """S(rho); on an (n, J) stack, one value per row."""
        return ENTROPY_SCALE * markov.relative_entropy(rho, self.pi)


def build_structure(g, family=Family.LDP_EXACT):
    """The structure (g, family), checked: a reducible chain raises
    ReducibleChain, and the quadratic member needs Q_ij > 0 iff Q_ji > 0."""
    g.balance  # solved here, so that a reducible chain raises first
    if family is not Family.LDP_EXACT and not g.weakly_reversible:
        raise NotWeaklyReversible(
            "family dissipation needs Q_ij > 0 iff Q_ji > 0")
    return GradientStructure(generator=g, family=family)


def critical_covector(rho, g):
    """V_L(rho) = argmin_xi H(rho, .), zero-sum representative.

    This is also D_s L(rho, 0): exact on a tree generator, otherwise by
    Newton on the convex H (`EdgeFunctional.conjugate`), started from half
    the log-ratio of rho to the uniform measure.
    """
    rho = np.asarray(rho, dtype=float)
    if not markov.is_interior(rho):
        raise BoundaryPoint("critical covector needs interior rho")
    x0 = convex.project_zero_sum(0.5 * np.log(rho / np.abs(rho).sum()
                                              * rho.size))
    H = markov.hamiltonian_functional(rho, g)
    return H.conjugate(np.zeros(rho.size), x0=x0).argmax


def _shifted_hamiltonian(rho, V, g):
    """xi -> H(rho, V + xi) - H(rho, V): the pairs of H with weights tilted
    by e^{V_j - V_i} forward and e^{V_i - V_j} back."""
    V = np.asarray(V, dtype=float)
    H = markov.hamiltonian_functional(rho, g)
    tilt = np.exp(V[H.j] - V[H.i])
    return markov.EdgeFunctional(g, H.fwd * tilt, H.bwd / tilt)


def psi(gs, rho, s):
    """Primal dissipation potential Psi(rho, s), the conjugate of Psi*(rho, .).

    For the exact structure, with or without detailed balance, Psi* is the
    V_L-shifted Hamiltonian and Psi is the "psi" of `decompose`; for the
    quadratic member Psi* is the structure's own edge functional.
    """
    if gs.family is Family.LDP_EXACT:
        return decompose(gs.generator, rho, s)["psi"]
    return float(gs.functional(rho).conjugate(s).value)


def decompose(g, rho, s):
    """Split L(rho,s) into Psi + Psi*(-V) + <V,s> with V the critical covector.

    Each component is computed by an independent optimization so the residual
    measures real numerical consistency; |residual| <= 1e-7 holds for every
    irreducible chain, detailed balance or not.  Output is labelled a
    gradient system only under detailed balance (the covector field is then
    conservative and equals the entropy gradient).  The covector V used in
    the split is returned under "covector".
    """
    rho = np.asarray(rho, dtype=float)
    s = np.asarray(s, dtype=float)
    V = critical_covector(rho, g)
    HV = markov.hamiltonian(rho, V, g)
    lag = markov.lagrangian(rho, s, g)
    psi_star_at_minus_v = -HV
    dual = _shifted_hamiltonian(rho, V, g).conjugate(s)
    pairing = float(V @ s)
    residual = lag.value - (dual.value + psi_star_at_minus_v + pairing)
    return {
        "lagrangian": lag.value,
        "psi": dual.value,
        "psi_star": psi_star_at_minus_v,
        "pairing": pairing,
        "residual": float(residual),
        "covector": V,
        "system_label": ("gradient system" if g.balance.detailed_balance
                         else "covector system"),
    }


def flow_field(gs, rho):
    """Evolution right-hand side D_xi Psi*(rho, -DS(rho)): the gradient of
    `gs.functional(rho)` at xi = -DS = -ENTROPY_SCALE log(rho / pi), the
    constant of DS dropped, as Psi* sees only pair differences.

    Requires detailed balance (gradient reading) and interior rho; the
    output sums to zero.  A pair difference above phi's guard (EXP_GUARD
    for the exact structure) raises ExponentOverflow.
    """
    rho = np.asarray(rho, dtype=float)
    if not gs.generator.balance.detailed_balance:
        raise NotGradientSystem("flow field needs detailed balance")
    if np.any(rho < 1e-300):
        raise BoundaryPoint("flow field needs interior rho")
    xi = -ENTROPY_SCALE * np.log(rho / gs.pi)
    return gs.functional(rho).gradient(xi)


def determine_entropy_scale(g, family, seed=0):
    """The drift residual of a structure at the entropy scale 1/2 that
    its weights fix: max |flow_field - Q^T rho| over DRIFT_SAMPLES seeded
    interior rho, reported with whether it is at most DRIFT_TOL."""
    gs = build_structure(g, family)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(DRIFT_SAMPLES):
        rho = markov.project_interior(rng.dirichlet(np.ones(g.size)), 1e-6)
        gap = np.abs(flow_field(gs, rho) - markov.drift(rho, g)).max()
        worst = max(worst, float(gap))
    return {"family": family.value, "selected_scale": ENTROPY_SCALE,
            "selected_residual": worst, "reproduces_drift": worst <= DRIFT_TOL,
            "samples": DRIFT_SAMPLES, "seed": seed}


def covector_jacobian(rho, V, g):
    """D_rho V_L at rho, given V = V_L(rho), by the implicit function theorem.

    V_L zeroes G(rho, xi) = D_xi H(rho, xi), so H''(rho, V) D = -B with
    B = D_rho G(rho, V):

        B_km = Q_mk e^{V_k - V_m} - delta_km sum_j Q_kj e^{V_j - V_k}.

    The columns of B sum to zero and H'' is the Laplacian of a connected
    graph, so the solve with H'' + 1 1^T gives the zero-sum solution
    -(H'')^+ B.  Column m is the derivative of V_L along rho_m.
    """
    rho = np.asarray(rho, dtype=float)
    V = np.asarray(V, dtype=float)
    i, j, fwd, bwd = g.pairs
    tilt = np.exp(V[j] - V[i])
    B = np.zeros((g.size, g.size))
    B[j, i] = fwd * tilt  # the tilted rate of i -> j, and of j -> i
    B[i, j] = bwd / tilt
    np.fill_diagonal(B, -B.sum(axis=0))
    hess = markov.hamiltonian_functional(rho, g).hessian(V)
    return -np.linalg.solve(hess + 1.0, B)


def diagnostics(g, sample_count, seed):
    """Numerical verdict on the structure of a chain, as the report dict
    that `ldgrad analyze` writes to diagnostics.json; sample_count >= 1
    (`cli.cmd_analyze` checks --samples).

    Over seeded random interior rho and zero-sum s, xi:
      * time_symmetry_defect_max = max |L(rho,s) - L(rho,-s) - 2 <V_L, s>|
      * psi_star_symmetry_defect = max |H(rho, V_L - xi) - H(rho, V_L + xi)|
      * integrability_defect     = max |M - M^T| / max |M| over the samples,
        M = P D_rho V_L P with P the projection onto zero-sum vectors and
        D_rho V_L from `covector_jacobian`; V_L is a derivative, so that a
        gradient structure exists, exactly when M is symmetric everywhere
      * critical_covector_is_half_entropy_gradient compares V_L against
        (1/2) the zero-sum entropy gradient, within DIAG_TOL.
    Each sample solves for V_L once, and worst_cases names the sample of
    each defect's largest value, for the defects whose largest value
    exceeds DIAG_TOL (the report's tol): rounding noise has no worst case.
    extras["conjugate_route"] says which conjugate solver ran, and so which
    route pi took: "tree" (the closed forms, no Newton and no linear solve)
    when the generator graph read as undirected is a tree, else "newton"
    (and pi from the dense solve).
    All defects vanish together exactly when detailed balance holds; they
    are always reported numerically, never only as booleans.
    """
    J = g.size
    pi = g.balance.invariant_measure
    P = np.eye(J) - 1.0 / J

    top = dict.fromkeys(("time_symmetry", "psi_star_symmetry",
                         "critical_covector", "decomposition",
                         "integrability"), 0.0)
    worst = {}
    for i in range(sample_count):
        rng = np.random.default_rng([seed, i])
        rho = markov.project_interior(rng.dirichlet(np.ones(J)), 1e-6)
        s = convex.project_zero_sum(rng.standard_normal(J))
        xi = convex.project_zero_sum(rng.standard_normal(J))
        split = decompose(g, rho, s)
        V = split["covector"]
        Lb = markov.lagrangian(rho, -s, g).value
        _, half_grad = markov.relative_entropy_gradient(rho, pi)
        M = P @ covector_jacobian(rho, V, g) @ P
        defects = {
            "time_symmetry": abs(split["lagrangian"] - Lb
                                 - 2.0 * float(V @ s)),
            "psi_star_symmetry": abs(markov.hamiltonian(rho, V - xi, g)
                                     - markov.hamiltonian(rho, V + xi, g)),
            "critical_covector": float(np.abs(V - 0.5 * half_grad).max()),
            "decomposition": abs(split["residual"]),
            "integrability": float(np.abs(M - M.T).max() / np.abs(M).max()),
        }
        for name, defect in defects.items():
            if defect > top[name]:
                top[name] = defect
                if defect > DIAG_TOL:
                    worst[name] = {"sample": i, "defect": defect}

    return {
        "decomposition_residual_max": float(top["decomposition"]),
        "psi_star_symmetry_defect": float(top["psi_star_symmetry"]),
        "time_symmetry_defect_max": float(top["time_symmetry"]),
        "integrability_defect": float(top["integrability"]),
        "critical_covector_is_half_entropy_gradient":
            bool(top["critical_covector"] <= DIAG_TOL),
        "detailed_balance": g.balance.detailed_balance,
        "tol": DIAG_TOL,
        "seed": seed,
        "sample_count": sample_count,
        "worst_cases": worst,
        "extras": {"critical_covector_gap_max": float(top["critical_covector"]),
                   "conjugate_route": "newton" if g.tree is None else "tree"},
    }
