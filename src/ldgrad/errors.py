"""Exception taxonomy shared by all ldgrad modules."""


class LdgradError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(LdgradError):
    """Non-finite or structurally invalid numerical input."""


class UnboundedConjugate(LdgradError):
    """The conjugate objective is still increasing at the search box boundary."""


class NoConvergence(LdgradError):
    """Optimizer exhausted its iteration budget; carries the best iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class InvalidGenerator(LdgradError):
    """Matrix fails the intensity-matrix requirements."""


class ReducibleChain(LdgradError):
    """The generator graph is not strongly connected."""


class DegenerateInvariantMeasure(LdgradError):
    """The computed invariant measure of an irreducible chain has a
    coordinate at or below rounding level."""


class InfiniteEntropy(LdgradError):
    """rho puts mass where the reference measure has none."""


class BoundaryPoint(LdgradError):
    """Operation requires a strictly interior probability vector."""


class ExponentOverflow(LdgradError):
    """Potential differences too large for a double-precision exponential."""


class NotWeaklyReversible(LdgradError):
    """Family dissipation requires Q_ij > 0 iff Q_ji > 0."""


class NotGradientSystem(LdgradError):
    """Requested a gradient-flow reading on a chain without detailed balance."""


class GridMismatch(LdgradError):
    """Trajectories live on different time grids."""


class GridTooLarge(LdgradError):
    """The time grid has more points than can be allocated."""


class StepSizeTooLarge(LdgradError):
    """Integrator state left the simplex by more than the allowed slack."""


class TiltTooStrong(LdgradError):
    """Thinning bound for the tilted simulation is not representable/affordable."""


class ThinningBoundExceeded(LdgradError):
    """A tilted jump rate exceeded its thinning bound, which would bias the
    simulated law."""


class NonFiniteOutput(LdgradError):
    """A report value is NaN or infinite, which strict JSON cannot hold."""
