"""Fourier spectra of spherically symmetric nonlocal diffusion operators.

Evaluates the eigenvalues of the integral operator

    L u(x) = integral over |y - x| <= delta of rho(|y - x|) (u(y) - u(x)) dy

acting on Fourier modes of the d-dimensional torus, for the kernel family
rho(r) ~ r^(-alpha) normalized to recover the Laplacian as delta -> 0.
Each eigenvalue is computed independently, to individually controlled
accuracy, by a convergent series (small k*delta) or a resummed divergent
asymptotic series (large k*delta).

The numerical kernels live in ``nlspectra._purepy``, one implementation in
pure Python; ``BACKEND`` names it (``"python"``).

The names below are the package's public surface; everything else is
importable from its submodule (``drummond``, ``spectra``, ``oracle``).
"""

from ._backend import BACKEND
from .drummond import HypTerm2F0, drummond_2f0_at_order
from .errors import NonConvergenceError
from .spectra import (
    DEFAULT_TOL,
    EvalResult,
    KernelParams,
    SpectrumTable,
    apply_to_fourier_coeffs,
    lambda_asymptotic,
    lambda_hybrid,
    lambda_maclaurin,
    lattice_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "DEFAULT_TOL",
    "NonConvergenceError",
    "KernelParams",
    "EvalResult",
    "SpectrumTable",
    "lambda_maclaurin",
    "lambda_asymptotic",
    "lambda_hybrid",
    "lattice_spectrum",
    "apply_to_fourier_coeffs",
    "HypTerm2F0",
    "drummond_2f0_at_order",
]
