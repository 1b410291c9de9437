"""Exception types shared across the package."""


class NonConvergenceError(RuntimeError):
    """A numerical procedure failed to reach its accuracy or size target."""
