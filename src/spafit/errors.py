"""Exception types shared across the package."""


class SpafitError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(SpafitError, ValueError):
    """Tensor shapes are incompatible for the requested operation."""


class GraphError(SpafitError, ValueError):
    """Autodiff contract violation (e.g. backward from a non-scalar)."""


class InputError(SpafitError, ValueError):
    """Invalid model or metric input (out-of-range ids, bad labels, ...)."""


class PlanError(SpafitError, ValueError):
    """Invalid fine-tune plan specification or plan/store mismatch."""


class OptimizerError(SpafitError, ValueError):
    """Optimizer contract violation (e.g. missing gradient on a trainable)."""


class TaskSpecError(SpafitError, ValueError):
    """Synthetic task specification violates vocab/sequence constraints."""


class TrainingDivergedError(SpafitError, RuntimeError):
    """Training produced a non-finite loss. Carries the offending step."""

    def __init__(self, step: int, loss: float):
        super().__init__(f"non-finite loss {loss!r} at step {step}")
        self.step = step
        self.loss = loss


class ManifestError(SpafitError, ValueError):
    """Run manifest is malformed or contains unknown keys."""


class CheckpointError(SpafitError, ValueError):
    """Base class for checkpoint/adapter container errors."""


class CheckpointFormatError(CheckpointError):
    """Container bytes, header or tensor shapes do not follow the format."""


class CheckpointVersionError(CheckpointError):
    """Container format version is not supported."""


class CheckpointTruncatedError(CheckpointError):
    """Container ended before all declared payload bytes were read."""


class UnknownTensorError(CheckpointError):
    """Container declares a tensor name the target model does not have."""


class CompatibilityError(SpafitError, ValueError):
    """Adapter file does not match the target store's configuration."""
