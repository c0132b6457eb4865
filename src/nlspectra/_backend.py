"""The kernel module the public wrappers call.

``drummond`` and ``spectra`` look kernels up as attributes of ``kernels``
at call time, so wrapping an attribute here (as a tracer does) reaches
every caller.
"""

from . import _purepy as kernels

BACKEND = "python"

__all__ = ["kernels", "BACKEND"]
