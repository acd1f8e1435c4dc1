"""Exception types shared across the package."""


class DomainValidationError(ValueError):
    """A polygonal domain (or grid request) violates a structural invariant."""


class ParameterError(ValueError):
    """A numeric parameter lies outside the range a closed form is defined on."""


class PreconditionError(ValueError):
    """An operation was called on inputs outside its admissible class."""


class DegenerateCutError(ValueError):
    """A degenerate reflection cut; the step refuses such cuts, and nothing raises this."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its budget before reaching tolerance."""
