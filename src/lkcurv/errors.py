"""Exception types shared across the package."""


class LkError(Exception):
    """Base class for all package-specific errors."""


class DegenerateSample(LkError):
    """A measure-zero configuration was hit (tangency, vertex on a subspace,
    near-parabolic section).  Monte Carlo callers reject and redraw."""


class UnsupportedSection(LkError):
    """The requested section/link is outside the supported representations."""


class ChiUnknownError(LkError):
    """Euler characteristic requested for a set that does not declare one."""


class DegenerateChartError(LkError):
    """Chart tangent frame is numerically rank-deficient at the evaluation point."""


class GenericityError(LkError):
    """More than the allowed fraction of Monte Carlo draws were degenerate,
    which indicates the input set violates the genericity assumptions."""


class SetValidationError(LkError):
    """A set descriptor (or set-definition file) violates an invariant.

    ``field`` names the offending entry so CLI diagnostics can point at it.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
