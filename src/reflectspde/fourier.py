"""Real trigonometric basis on the 1-D torus with normalized measure.

The underlying measure is dx / (2 pi), so the basis

    1, sqrt(2) cos(x), sqrt(2) sin(x), sqrt(2) cos(2x), ...

is orthonormal and the constant function 1 has unit L^2 norm.  Collocation
uses G = 2 * modes + 2 equispaced points: products of four basis functions
stay below the aliasing frequency, so coefficients of cubic nonlinearities
computed by grid quadrature are exact (up to rounding) rather than aliased.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = ["TrigBasis1D", "trig_basis"]


@dataclass(frozen=True, eq=False)
class TrigBasis1D:
    modes: int
    wavenumbers: np.ndarray  # (modes,) int
    grid: np.ndarray  # (G,)
    synthesis: np.ndarray  # (G, modes), synthesis[j, i] = psi_i(grid[j])
    deriv: np.ndarray | None  # (modes, modes) or None when the top pair dangles

    @property
    def grid_size(self) -> int:
        return self.grid.shape[0]

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients (..., modes) -> point values (..., G)."""
        return np.asarray(coeffs, dtype=float) @ self.synthesis.T

    def to_coeffs(self, values: np.ndarray) -> np.ndarray:
        """Point values (..., G) -> coefficients (..., modes) by quadrature."""
        return np.asarray(values, dtype=float) @ self.synthesis / self.grid_size

    def differentiate(self, coeffs: np.ndarray) -> np.ndarray:
        if self.deriv is None:
            raise ConfigurationError(
                "derivative unavailable: basis has an unpaired top cosine mode"
            )
        return np.asarray(coeffs, dtype=float) @ self.deriv.T


def trig_basis(modes: int, include_zero: bool = True) -> TrigBasis1D:
    """Build the leading ``modes`` real trig basis functions.

    include_zero=True starts from the constant; include_zero=False spans only
    zero-mean functions (complete cos/sin pairs are then required).
    """
    if modes < 1:
        raise ConfigurationError("modes must be positive")
    grid_size = 2 * modes + 2
    x = 2.0 * np.pi * np.arange(grid_size) / grid_size
    cols: list[np.ndarray] = []
    wave: list[int] = []
    if include_zero:
        cols.append(np.ones_like(x))
        wave.append(0)
    k = 1
    while len(cols) < modes:
        cols.append(np.sqrt(2.0) * np.cos(k * x))
        wave.append(k)
        if len(cols) < modes:
            cols.append(np.sqrt(2.0) * np.sin(k * x))
            wave.append(k)
        k += 1
    synthesis = np.column_stack(cols)
    wavenumbers = np.asarray(wave, dtype=int)

    n_oscillating = modes - (1 if include_zero else 0)
    if not include_zero and n_oscillating % 2 != 0:
        raise ConfigurationError("zero-mean basis needs an even number of modes")
    deriv = None
    if n_oscillating % 2 == 0:
        deriv = np.zeros((modes, modes))
        start = 1 if include_zero else 0
        for i in range(start, modes, 2):
            kk = float(wavenumbers[i])
            # (c_cos, c_sin) -> (k c_sin, -k c_cos)
            deriv[i, i + 1] = kk
            deriv[i + 1, i] = -kk
    return TrigBasis1D(
        modes=modes,
        wavenumbers=wavenumbers,
        grid=x,
        synthesis=synthesis,
        deriv=deriv,
    )
