"""Exception types shared across the library."""


class DisconnError(Exception):
    """Base class for all library errors."""


class OutsideInjectivityRadius(DisconnError):
    """Group logarithm requested outside its principal branch."""


class OutsideDomain(DisconnError):
    """Input lies outside the declared domain of the map."""


class NewtonDivergence(DisconnError):
    """Newton solver failed to reach the residual tolerance."""


class BundleMismatch(DisconnError):
    """Value does not live on the expected bundle."""


class NotSameFiber(DisconnError):
    """Fiber translation requested between points over different base points."""


class UnsupportedPresentation(DisconnError):
    """Operation needs a presentation (local expression) the value lacks."""


class UnsupportedGroup(DisconnError):
    """Structure group outside the compact-times-vector class."""


class NonDifferentiable(DisconnError):
    """Difference quotients failed the Richardson consistency check."""


class CurvatureMismatch(DisconnError):
    """A connection's curvature differs from its integration reference's."""


class ParseError(DisconnError):
    """Scenario file does not conform to the schema."""
