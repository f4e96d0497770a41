"""scaleq: measuring and correcting scale disequilibrium in multi-level
feature fusion, at toy scale, in pure numpy.

The package imports no submodule, and so not numpy, so that
`scaleq --threads N` can cap the BLAS threads before numpy loads.
"""

__version__ = "0.1.0"
