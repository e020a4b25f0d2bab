"""Exception types shared across the package."""


class GenelmError(Exception):
    """Base class for all package-specific errors."""


class MalformedFastaError(GenelmError, ValueError):
    """FASTA input violated the format; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ShapeError(GenelmError, ValueError):
    """Tensor shapes incompatible with the requested operation."""


class ContextOverflowError(GenelmError, ValueError):
    """Sequence longer than the model's maximum context."""


class TrainingDivergedError(GenelmError, RuntimeError):
    """Non-finite loss or NaN gradients; carries the step at which training
    broke."""

    def __init__(self, message: str, step: int):
        super().__init__(f"step {step}: {message}")
        self.step = step


class CheckpointFormatError(GenelmError, ValueError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


class ShardFormatError(GenelmError, ValueError):
    """Unreadable or inconsistent token-shard file."""


class DataConfigError(GenelmError, ValueError):
    """Data does not satisfy what the requested run needs (e.g. windows
    shorter than the training context)."""
