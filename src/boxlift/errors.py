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
    """A line of an input file could not be parsed.

    The one writer of a location: its text is ``{path} line {N}: {reason}``,
    without the path while the reader does not know it, or the line if unknown.

    Attributes:
        line_no: 1-based physical line, as Python's file object counts them.
        token: The offending token or a short description of the defect.
        reason: What is wrong with the line.
        path: The file, or None.
    """

    def __init__(self, line_no, token, reason=None, path=None):
        self.line_no, self.token, self.path = line_no, token, path
        self.reason = reason or f"bad token {token!r}"
        where = "" if line_no is None else f"line {line_no}"
        if path is not None:
            where = f"{path} {where}".rstrip()
        super().__init__(f"{where}: {self.reason}" if where else self.reason)

    def at(self, path, line_no=None):
        """This error in file ``path``, at its ``line_no`` there when given."""
        return MalformedLineError(line_no or self.line_no, self.token, self.reason, path)


class MissingKeyError(KeyError):
    """A required key (e.g. the P2 projection matrix) is absent."""

    def __init__(self, key):
        self.key = key
        super().__init__(key)


class DivergedLossError(RuntimeError):
    """Training loss became non-finite."""
