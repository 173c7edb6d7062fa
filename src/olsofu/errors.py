"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition. ``field``, when set,
    names the argument or dataclass field at fault and starts the message."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def require(condition: bool, field: str, rule: str) -> None:
    """Raise ``InvalidArgumentError(f"{field} {rule}", field)`` unless ``condition``."""
    if not condition:
        raise InvalidArgumentError(f"{field} {rule}", field)


class SingularMatrixError(ArithmeticError):
    """A linear solve was rejected because the matrix is (near-)singular."""

    def __init__(self, message, condition_number=float("inf")):
        super().__init__(message)
        self.condition_number = condition_number


class IllConditionedConfusionError(ArithmeticError):
    """The confusion matrix is too close to singular to invert."""

    def __init__(self, message, sigma_min=0.0):
        super().__init__(message)
        self.sigma_min = sigma_min


class DataExhaustedError(RuntimeError):
    """A sampling pool has no entries for a class that must be drawn."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, message, epoch):
        super().__init__(message)
        self.epoch = epoch


class UndefinedCorrelationError(ValueError):
    """Pearson correlation requested on a zero-variance sequence."""


class ContractViolationError(RuntimeError):
    """An internal pairing or ordering contract was broken by the caller."""


class ConfigError(ValueError):
    """A configuration file failed validation."""


class RunError(RuntimeError):
    """An online run failed; the message names the failing step."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step
