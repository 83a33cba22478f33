"""Error taxonomy shared across the package.

Every error carries a module-qualified ``code`` string so the CLI can report
failures uniformly.  Validation errors mean the inputs are unusable as given;
numerical errors mean a computation on valid inputs failed to converge or
resolve.
"""


class SrdfKitError(Exception):
    """Base class for all package errors."""

    code = "error"


class ValidationError(SrdfKitError):
    """Inputs violate a documented precondition."""

    code = "validation"


class NumericalError(SrdfKitError):
    """A numerical procedure failed on otherwise valid inputs."""

    code = "numerical"


class NotSquare(ValidationError):
    code = "model.not_square"


class NotSymmetric(ValidationError):
    code = "model.not_symmetric"


class NotPositiveDefinite(ValidationError):
    code = "model.not_positive_definite"


class IndexOutOfRange(ValidationError):
    code = "model.index_out_of_range"


class DimensionMismatch(ValidationError):
    code = "model.dimension_mismatch"


class SingularSigmaA(NumericalError):
    code = "srdf.singular_sigma_a"


class EigenFailure(NumericalError):
    code = "srdf.eigen_failure"


class BudgetOutOfRange(ValidationError):
    code = "srdf.budget_out_of_range"


class InfeasibleDistortion(ValidationError):
    code = "srdf.infeasible_distortion"


class DomainError(ValidationError):
    code = "field.domain_error"


class GridTooLarge(ValidationError):
    code = "universal.grid_too_large"


class NoPrior(ValidationError):
    code = "universal.no_prior"


class UnsupportedFamily(ValidationError):
    code = "universal.unsupported_family"


class EmptyGrid(ValidationError):
    code = "universal.empty_grid"


class UnboundedBox(ValidationError):
    code = "universal.unbounded_box"


class TooManySubsets(ValidationError):
    code = "setopt.too_many_subsets"


class CodebookTooLarge(ValidationError):
    code = "simulate.codebook_too_large"


class TrainingDiverged(NumericalError):
    code = "simulate.training_diverged"


class ConfigParse(ValidationError):
    code = "cli.config_parse"
