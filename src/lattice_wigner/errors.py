"""Exception types shared across the package."""


class LatticeWignerError(Exception):
    """Base class for every error raised by this package."""


class DomainError(LatticeWignerError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(LatticeWignerError, RuntimeError):
    """A series or iteration failed to converge within its term budget."""


class GridError(LatticeWignerError, ValueError):
    """A k-grid is too coarse for exactness, or two grids do not match."""


class WindowError(LatticeWignerError, ValueError):
    """A lattice window cannot hold the requested state or operation."""


class StateError(LatticeWignerError, ValueError):
    """A state object violates one of its structural invariants."""


class BoundaryLeakError(LatticeWignerError, RuntimeError):
    """Population reached the truncation boundary beyond the allowed tolerance."""


class StepSizeError(LatticeWignerError, ValueError):
    """An integrator step size violates the stability heuristic."""


class StepCountError(StepSizeError):
    """The step grid up to the last snapshot time holds more steps than the cap."""


class ConfigError(LatticeWignerError, ValueError):
    """A scenario configuration is malformed or internally inconsistent."""


class InvariantViolation(LatticeWignerError, RuntimeError):
    """A numerical invariant (two-path agreement, normalization) was exceeded."""
