"""Exception types shared across the package."""


class GeomflowError(Exception):
    """Base class for all package-specific failures."""


class IntegrationError(GeomflowError):
    """ODE integration failed (step budget, non-finite field, frame loss)."""


class BudgetError(GeomflowError):
    """A run would take more steps than its budget allows."""


class BracketError(GeomflowError):
    """Root finding got a bracket without a sign change."""


class QuadratureError(GeomflowError):
    """Quadrature failed to converge or hit a non-integrable blowup."""


class TopologyError(GeomflowError):
    """A curve did not have the self-intersection structure an operation needs."""


class ResolutionError(GeomflowError):
    """Too few sample points to resolve the feature being measured."""


class PositivityError(GeomflowError):
    """A quantity that must stay strictly positive crossed zero."""


class ConstructionError(GeomflowError):
    """A curve or field constructor received parameters it cannot honor."""


class SetupError(GeomflowError, ValueError):
    """Inputs are out of range or mutually inconsistent (e.g. tangent not on
    the claimed level set). Also a ValueError, so that callers which catch
    bad arguments as ValueError keep working."""


class DetectionError(GeomflowError):
    """An event or feature search found nothing in the allowed window."""
