"""Exception types raised across the package."""


class Cbre2Error(Exception):
    """Base class for all package errors."""


class DivergentExponent(Cbre2Error):
    """An exponential moment of the environment is infinite at the requested order."""


class ExponentOverflow(Cbre2Error):
    """A finite exponential moment, jump moment, drift flow or environment multiplier
    leaves the float range, or the multiplier alone drives the branching event count
    past its cap."""


class DivergentCrossMoment(Cbre2Error):
    """A first cross-moment of a branching jump measure is infinite."""


class DivergentCoefficient(Cbre2Error):
    """A jump moment required by a recursion coefficient is infinite."""


class HypothesisViolated(Cbre2Error):
    """Moment hypotheses (jump moments or exponential moments) fail at the requested order."""


class InvalidStep(Cbre2Error):
    """Nonpositive or otherwise unusable time step."""


class MassOverflow(Cbre2Error):
    """Expected event count exceeds the configured safety cap."""


class FixedPointDivergence(Cbre2Error):
    """Per-step fixed-point iteration of the backward Laplace equation did not converge."""


class ZeroInitialState(Cbre2Error):
    """Initial state (0, 0) violates the nondegeneracy hypothesis of the f-moment criterion."""


class ConfigError(Cbre2Error):
    """Scenario configuration failed validation; message carries the offending key path."""
