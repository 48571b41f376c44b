"""Exception hierarchy used across the package.

All errors raised deliberately by this package derive from
:class:`CoopregError`, so callers can catch that single type at the
boundary.  The subclasses distinguish the broad failure categories:
bad shapes, bad configuration data, failed numerics, failed synthesis
preconditions, and diverging simulations.
"""

__all__ = [
    "CoopregError",
    "DimensionError",
    "ConfigurationError",
    "NumericalError",
    "SynthesisError",
    "DivergenceError",
]


class CoopregError(Exception):
    """Base class for all errors raised by coopreg."""


class DimensionError(CoopregError):
    """A matrix or vector has an incompatible or invalid shape."""


class ConfigurationError(CoopregError):
    """A scenario, graph, or override failed validation.

    The message names the offending field (for file-based configs, the
    config path such as ``plant.a``) and states the constraint that was
    violated.
    """


class NumericalError(CoopregError):
    """A numerical routine failed to produce a usable result.

    Raised for Riccati equations without an accurate stabilizing solution,
    failed eigenvalue computations, and failed numerical identity checks.
    """


class SynthesisError(CoopregError):
    """Controller synthesis cannot proceed or did not succeed.

    Raised when a structural precondition fails (stabilizability,
    detectability, connectivity) or when no admissible low-gain
    parameter could be certified.
    """


class DivergenceError(CoopregError):
    """A simulated trajectory exceeded the divergence guard.

    Attributes
    ----------
    step : int
        Time step at which the guard tripped.
    norm : float
        Max-norm of the aggregate state at that step.
    agent : int
        The 1-based follower whose state reached ``norm`` at that step.
    """

    def __init__(self, message, step=None, norm=None, agent=None):
        super().__init__(message)
        self.step = step
        self.norm = norm
        self.agent = agent
