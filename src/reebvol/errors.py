"""Exception hierarchy.

The CLI maps these onto exit codes: specification/parse failures exit 2,
mathematical domain errors exit 3, and failed gating verdicts exit 4.
"""


class ReebvolError(Exception):
    """Base class for all errors raised by this package."""


class SpecError(ReebvolError):
    """Problem-specification failure, addressed by a field path like
    ``filtration.branches[1].linear``."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class MathError(ReebvolError):
    """Base class for domain errors in the exact-geometry layer."""


class DimensionMismatchError(MathError):
    pass


class SingularSystemError(MathError):
    pass


class UnsupportedGeometryError(MathError):
    pass


class NotReebFieldError(MathError):
    pass


class InvalidBasisError(MathError):
    pass


class DegeneratePolytopeError(MathError):
    """Raised for operations requiring a full-dimensional polytope; carries
    the dimension of the affine hull that was actually found."""

    def __init__(self, affine_dim: int, message: str | None = None):
        self.affine_dim = affine_dim
        super().__init__(message or f"polytope is degenerate (affine hull has dimension {affine_dim})")


class InvalidFiltrationError(MathError):
    pass


class UnsupportedDegreeError(MathError):
    pass


class QuasiRegularRequiredError(MathError):
    pass


class EmptyDegreeError(MathError):
    pass


class InvalidDirectionError(MathError):
    pass
