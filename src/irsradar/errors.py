"""Exception taxonomy.

Contract violations (bad arguments, impossible requests) derive from
ValueError so they surface as usage errors at the CLI boundary.  Runtime
numerical failures derive from NumericalError and map to a distinct exit
code.
"""


class UnderdeterminedModelError(ValueError):
    """More paths than slow-time samples: the Gram matrix cannot be full rank."""


class DegeneratePathError(ValueError):
    """A path coefficient is exactly zero, so its column carries no signal."""


class UndefinedMetricError(ValueError):
    """Requested metric is undefined for the given inputs (e.g. zero truth)."""


class CapabilityError(ValueError):
    """Request exceeds what the implementation can do exhaustively."""


class UsageError(ValueError):
    """Bad CLI flag, config key, or flag combination."""


class NumericalError(Exception):
    """Base for runtime numerical failures."""


class SingularModelError(NumericalError):
    """Gram matrix too ill-conditioned to invert trustworthily."""


class GenerationError(NumericalError):
    """A trial's scene is degenerate, or a sweep point lost almost all its trials.

    A scene is degenerate where some estimate would divide by exactly zero;
    it is drawn once and excluded, not redrawn (harness._draw_block).
    """


class UnboundedCrbError(NumericalError):
    """Fisher information is singular; the bound is infinite.

    No library call raises it: bounds.crb inverts only an information
    matrix whose Gram the BLUE's condition screen has cleared, raising
    SingularModelError otherwise.
    """
