"""Gradient structures for Markov-chain rate functionals.

Construction and verification of the correspondence between the cost
functional of empirical Markov processes and generalized gradient systems
(dissipation pair plus driving entropy), with flow integration, an exact
particle-simulation harness for the pathwise cost, and a 1-D drift-diffusion
discretization carrying the quadratic transport structure.
"""

__version__ = "0.1.0"

from . import convex, diffusion, errors, evolve, markov, particle, structure  # noqa: F401
