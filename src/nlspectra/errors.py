"""Exception types shared across the package."""

from __future__ import annotations


class NonConvergenceError(RuntimeError):
    """An iterative evaluation hit its order cap or the end of its table.

    ``result`` carries the best available value (a TransformResult or
    EvalResult), so callers that can live with reduced accuracy may still
    use it.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result
