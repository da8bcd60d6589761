"""Physical inputs and the dimensionless groups that drive the barrier problem.

The potential V(x) = V0 / cosh^2(omega*x) enters all downstream formulas only
through two dimensionless combinations:

    kappa = k / omega                 (wavenumber in units of the barrier width)
    v8    = 8 m V0 / (hbar^2 omega^2) (barrier strength)

and through the complex Legendre degree/order pair

    nu = (-1 + sqrt(1 - v8)) / 2,     mu = i kappa.

For v8 <= 1 the degree nu is real in (-1/2, 0]; for v8 > 1 it sits on the
critical line Re(nu) = -1/2 with Im(nu) = sqrt(v8 - 1)/2 >= 0 (principal
square root), so that 1 + conj(nu) = -nu.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = ["PhysicalParams", "BarrierIndex", "reduce"]


@dataclass(frozen=True)
class PhysicalParams:
    """Mass, Planck constant, barrier width parameter and height.

    All fields must be finite; m, hbar, omega strictly positive and v0 >= 0
    (attractive wells are out of scope).
    """

    m: float
    hbar: float
    omega: float
    v0: float

    def __post_init__(self):
        for name in ("m", "hbar", "omega", "v0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.m <= 0 or self.hbar <= 0 or self.omega <= 0:
            raise ValueError(
                f"m, hbar, omega must be positive, got "
                f"m={self.m}, hbar={self.hbar}, omega={self.omega}"
            )
        if self.v0 < 0:
            raise ValueError(f"v0 must be >= 0 (barrier, not well), got {self.v0}")

    def potential(self, x):
        """V(x) = v0 / cosh^2(omega*x); accepts scalars or numpy arrays.
        Evaluated through decaying exponentials so wide boxes never overflow
        cosh."""
        import numpy as np

        y = np.abs(self.omega * np.asarray(x, dtype=float))
        sech = 2.0 * np.exp(-y) / (1.0 + np.exp(-2.0 * y))
        return self.v0 * sech**2


@dataclass(frozen=True)
class BarrierIndex:
    """Dimensionless reduction of one (params, k) pair.

    kappa = k/omega, v8 = 8 m v0 / (hbar omega)^2, nu the complex degree,
    mu = i*kappa the purely imaginary order.
    """

    kappa: float
    v8: float
    nu: complex
    mu: complex

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")
        if not (math.isfinite(self.v8) and self.v8 >= 0):
            raise ValueError(f"v8 must be finite and >= 0, got {self.v8}")


def reduce(p: PhysicalParams, k: float) -> BarrierIndex:
    """Reduce physical inputs and a wavenumber k >= 0 to a BarrierIndex.

    The square root in nu uses the principal branch, so sqrt of a negative
    real is +i*sqrt|.| and Im(nu) >= 0 for strong barriers.  The order is
    fixed to the + branch, mu = +i*kappa.
    """
    if not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k!r}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    kappa = k / p.omega
    v8 = 8.0 * p.m * p.v0 / (p.hbar * p.omega) ** 2
    if v8 == 0.0:
        nu = 0j
    elif v8 < 1.0:
        # (-1 + sqrt(1 - v8)) / 2 rationalized: no cancellation as v8 -> 0.
        nu = complex(-v8 / (2.0 * (1.0 + math.sqrt(1.0 - v8))))
    else:
        nu = (-1.0 + cmath.sqrt(complex(1.0 - v8))) / 2.0
    return BarrierIndex(kappa=kappa, v8=v8, nu=nu, mu=1j * kappa)
