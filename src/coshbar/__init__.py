"""Exact scattering and Euclidean propagation for the 1-D barrier
V(x) = V0 / cosh^2(omega x), with independent numerical cross-checks.

The analytic layer (params, special, scattering, propagator) evaluates the
closed-form transmission/reflection amplitudes, the unitary scattering
function, energy-normalized wave functions and the spectral propagator; the
oracle layer solves the same problem by direct Numerov integration and by a
grid Hamiltonian, sharing no formulas with the analytic side.
"""

from .errors import (
    ConvergenceError,
    DegenerateTransformError,
    IllConditionedFitError,
    NumericalError,
    PoleError,
    StepTooCoarseError,
)
from .oracle import grid_propagator, grid_propagator_matrix, numerov_amplitudes
from .params import BarrierIndex, PhysicalParams, reduce
from .propagator import KernelValue, free_kernel, spectral_kernel, spectral_kernel_matrix
from .scattering import (
    Amplitudes,
    ConnectionCoefficients,
    WaveSample,
    amplitudes,
    asymptotic_extract,
    connection_coefficients,
    s_function,
    wavefunction_samples,
    wavefunctions,
)
from .special import hyp2f1, legendre_P, legendre_P_tanh, log_gamma

__version__ = "0.1.0"

__all__ = [
    "PhysicalParams",
    "BarrierIndex",
    "reduce",
    "Amplitudes",
    "ConnectionCoefficients",
    "WaveSample",
    "amplitudes",
    "s_function",
    "connection_coefficients",
    "wavefunctions",
    "wavefunction_samples",
    "asymptotic_extract",
    "numerov_amplitudes",
    "grid_propagator",
    "grid_propagator_matrix",
    "KernelValue",
    "spectral_kernel",
    "spectral_kernel_matrix",
    "free_kernel",
    "log_gamma",
    "hyp2f1",
    "legendre_P",
    "legendre_P_tanh",
    "NumericalError",
    "PoleError",
    "DegenerateTransformError",
    "ConvergenceError",
    "StepTooCoarseError",
    "IllConditionedFitError",
    "__version__",
]
