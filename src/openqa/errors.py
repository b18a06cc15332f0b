"""Exception types shared across the openqa package."""


class OpenQAError(Exception):
    """Base class for all openqa errors."""


class MalformedLine(OpenQAError):
    def __init__(self, path: str, line_number: int, message: str = ""):
        self.path = path
        self.line_number = line_number
        super().__init__(f"{path}: malformed line {line_number}: {message}")


class FilterTypeError(OpenQAError):
    """Numeric comparator applied to a non-numeric binding."""


class ShapeMismatch(OpenQAError):
    """Tensor shapes do not agree for the requested operation."""


class IndexOutOfRange(OpenQAError):
    """An index (token id, gold label) is outside the valid range."""


class EvenWidth(OpenQAError):
    """Convolution filter width must be odd."""


class EmptySequence(OpenQAError):
    """An operation requiring at least one sequence element got none."""


class EmptyQuestion(OpenQAError):
    """The question is empty after normalization."""


class NoCandidates(OpenQAError):
    pass


class EmptyPassage(OpenQAError):
    pass


class BadExample(OpenQAError):
    """A training example that cannot be trained on, found before the first step."""

    def __init__(self, index: int, reason: str):
        self.index = index
        super().__init__(f"example {index}: {reason}")


class EmptyInput(OpenQAError):
    pass


class EmptyDataset(OpenQAError):
    pass


class Diverged(OpenQAError):
    """A training epoch's loss is not finite."""


class ConfigError(OpenQAError):
    """Invalid or incomplete system configuration."""
