"""scaleq: measuring and correcting scale disequilibrium in multi-level
feature fusion, at toy scale, in pure numpy."""

__version__ = "0.1.0"
