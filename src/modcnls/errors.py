"""Exception types shared across the package.

Plain ValueError is used for scalar domain errors (bad function arguments);
the classes here mark conditions that callers are expected to branch on,
in particular the CLI exit-code map: a ValidationError (or any ValueError)
is a refusal, exit 1, and a DivergenceError is exit 3.
"""


class ValidationError(ValueError):
    """A configuration or precondition check failed before any work was done."""


class LatticeTooCoarseError(ValidationError):
    """A residual lattice is below the minimum resolution for finite differences."""


class DarkBackgroundError(ValidationError):
    """Split-step propagation was requested for a field with a nondecaying
    background, which the periodic spectral transform wraps around the box
    edge, so the scheme would integrate a different problem.  Raised when
    the PropagationConfig is built, before any step or output."""


class DivergenceError(RuntimeError):
    """The propagated field stopped being finite."""

    def __init__(self, t, message=None):
        self.t = t
        super().__init__(message or f"field became non-finite at t={t:.6g}")

    def __reduce__(self):
        # rebuilt from both arguments, so it survives a worker's pickle
        return type(self), (self.t, str(self))
