"""Exception types shared across the package."""


class ScaleqError(Exception):
    """Base class for all scaleq errors."""


class ShapeError(ScaleqError):
    """Tensor shapes are incompatible with the requested operation."""


class InvalidRatioError(ScaleqError):
    """Upsampling ratio below 1 (downsampling is not supported)."""


class ContractError(ScaleqError):
    """An operation was called outside its contract (bad partition,
    non-scalar loss, empty dataset, ...)."""


class ConfigError(ScaleqError):
    """Invalid configuration value."""


class DegenerateFeatureError(ScaleqError):
    """A branch feature is constant over the statistics dataset
    (sigma == 0), which signals a broken pipeline."""


class FileFormatError(ScaleqError):
    """A statistics file is truncated or malformed."""
