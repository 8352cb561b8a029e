"""Incremental ensemble classification for drifting chunked streams."""

from .adaptive import *
from .core import *
from .data import *
from .knn import *
from .learnpp import *
from .metrics import *
from .pca import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += adaptive.__all__
__all__ += core.__all__
__all__ += data.__all__
__all__ += knn.__all__
__all__ += learnpp.__all__
__all__ += metrics.__all__
__all__ += pca.__all__
