"""Gamma-family and Bessel primitives used by the eigenvalue formulas.

All functions are pure and thread-safe. These wrappers validate domains and
delegate the numerical work to the kernels in ``nlspectra._purepy``, where
the algorithm notes live, along with the Lanczos constants ``LANCZOS_G`` and
``LANCZOS_C`` behind ``gamma`` and ``log_gamma_ratio``.

Supported regimes (what the eigenvalue formulas actually need):

* ``gamma``: real x in (-0.5, 10] away from the poles, relative error
  around 1e-15.
* ``log_gamma_ratio``: log(Gamma(z+1+eps)/Gamma(z+1)) through a
  cancellation-free rearrangement of the Lanczos series, smooth as eps -> 0.
* ``digamma``: psi(z) for z > 0.
* ``bessel_j``: J_nu for integer and half-integer orders -3/2 <= nu <= 21/2,
  the orders a test against ``mpmath.besselj`` verifies on every regime
  (the large-argument expansion is inaccurate at x >= 28 from nu = 11 on).
  Half-integer orders are built from the exact trigonometric forms of
  J_{1/2} and J_{-1/2} once x >= nu (below that the ascending series is
  used, the trig forms cancel badly). Integer orders use the ascending
  series for x <= 7, a normalized backward recurrence for 7 < x < 28, and
  the large-argument expansion beyond, with the phase x - (2nu+1)pi/4
  split over exact multiples of pi/4.
"""

from __future__ import annotations

from ._backend import kernels as _k

#: Largest accepted 2*nu of ``bessel_j``.
_BESSEL_TWO_NU_MAX = 21

__all__ = [
    "gamma",
    "log_gamma_ratio",
    "digamma",
    "bessel_j",
]


def gamma(x: float) -> float:
    """Gamma(x) for real x; raises ValueError at nonpositive-integer poles."""
    x = float(x)
    if x <= 0.0 and abs(x - round(x)) < 1e-12:
        raise ValueError(f"gamma evaluated at (or too close to) a pole: x={x}")
    return _k.gamma(x)


def log_gamma_ratio(z: float, eps: float) -> float:
    """log(Gamma(z+1+eps) / Gamma(z+1)), accurate even as eps -> 0.

    Requires z+1 > 0 and z+1+eps > 0.
    """
    z = float(z)
    eps = float(eps)
    if z + 1.0 <= 0.0 or z + 1.0 + eps <= 0.0:
        raise ValueError(
            f"log_gamma_ratio needs z+1 > 0 and z+1+eps > 0, got z={z}, eps={eps}"
        )
    return _k.log_gamma_ratio(z, eps)


def digamma(z: float) -> float:
    """psi(z) = Gamma'(z)/Gamma(z) for z > 0."""
    z = float(z)
    if z <= 0.0:
        raise ValueError(f"digamma requires z > 0, got {z}")
    return _k.digamma(z)


def bessel_j(nu: float, x: float) -> float:
    """Bessel J_nu(x) for integer or half-integer nu in [-3/2, 21/2] and x > 0."""
    nu = float(nu)
    x = float(x)
    two_nu = round(2.0 * nu)
    if abs(2.0 * nu - two_nu) > 1e-9 or two_nu < -3 or two_nu > _BESSEL_TWO_NU_MAX:
        raise ValueError(
            f"bessel_j supports integer/half-integer orders in [-3/2, 21/2], got nu={nu}"
        )
    if x <= 0.0:
        raise ValueError(f"bessel_j requires x > 0, got {x}")
    return _k.bessel_j(int(two_nu), x)
