"""Exception types shared across the package."""


class NonPositiveDepthError(ValueError):
    """A point lies at or behind the camera plane (depth <= 0)."""


class InfeasibleConfigurationError(RuntimeError):
    """A corner-to-side configuration has no usable solution.

    Raised when the linear system is rank-deficient or the recovered
    translation puts part of the box behind the camera.
    """


class NoFeasibleConfigurationError(RuntimeError):
    """Every enumerated configuration was infeasible for the given inputs."""


class ZeroVectorError(ValueError):
    """A (cos, sin) pair is too close to zero to normalize."""


class NonUprightBoxError(ValueError):
    """An operation restricted to upright boxes received nonzero pitch/roll."""


class MalformedLineError(ValueError):
    """A label or calibration line could not be parsed.

    Attributes:
        line_no: 1-based line number of the offending line.
        token: The offending token or a short description of the defect.
    """

    def __init__(self, line_no, token, message=None):
        self.line_no = line_no
        self.token = token
        super().__init__(message or f"line {line_no}: bad token {token!r}")


class MissingKeyError(KeyError):
    """A required key (e.g. the P2 projection matrix) is absent."""

    def __init__(self, key):
        self.key = key
        super().__init__(key)


class DivergedLossError(RuntimeError):
    """Training loss became non-finite."""
