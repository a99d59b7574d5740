"""Default search limits and the two exceptions the CLI maps to exit
codes.  This module imports nothing, so the CLI builds its parser and
handles errors without loading a library module; `search` and
`reductions` re-export these names.
"""

DEFAULT_COLORING_LIMIT = 2 ** 20
DEFAULT_MAX_RESAMPLES = 10 ** 6
DEFAULT_MAX_ATTEMPTS = 1000


class LimitExceededError(RuntimeError):
    """Coloring space larger than the configured exhaustion limit."""


class VerificationFailure(RuntimeError):
    """A claimed good coloring contains a monochromatic Berge target."""

    def __init__(self, message, color=None, certificate=None):
        super().__init__(message)
        self.color = color
        self.certificate = certificate
