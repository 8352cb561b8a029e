"""Exception types shared across the package."""


class DriftppError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(DriftppError):
    """Vector or matrix shapes do not line up."""


class EmptyTrainingSet(DriftppError):
    """A nearest-neighbor model was fit on zero instances."""


class EmptyWindow(DriftppError):
    """A training round was requested on an empty window."""


class EmptyEnsemble(DriftppError):
    """A prediction was requested from a model with no hypotheses."""


class RoundFailed(DriftppError):
    """A round accepted no weak hypothesis before too many consecutive
    candidates in a row exceeded the error threshold."""


class DegenerateData(DriftppError):
    """Input data the requested operation cannot use: a chunk with a
    non-finite feature or no variance, or a window of a single class."""


class PretrainFailed(DriftppError):
    """The initial training chunk could not produce a usable ensemble."""


class UndefinedAUC(DriftppError):
    """AUC is undefined because only one class is present."""


class ChunkFormatError(DriftppError):
    """A chunk file could not be parsed."""


class LabelError(ChunkFormatError):
    """A label column held a value outside {0, 1}."""


class RaggedRowError(ChunkFormatError):
    """A CSV row had a different number of columns than the rest of the file."""


class ConfigError(DriftppError):
    """A run or generation config file is missing or malformed."""
