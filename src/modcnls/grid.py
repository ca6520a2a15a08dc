"""Uniform periodic grid for the spatial direction."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class SpatialGrid:
    """Periodic grid on [-half_width, half_width) with n_points samples.

    The right endpoint is excluded, as usual for FFT grids.  `wavenumbers`
    are angular (the multiplier for d^2/dx^2 in Fourier space is -k^2).
    """

    half_width: float
    n_points: int
    x: np.ndarray = field(init=False, repr=False, compare=False)
    wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.half_width > 0 and np.isfinite(self.half_width)):
            raise ValidationError("grid half_width must be positive and finite")
        if (not isinstance(self.n_points, (int, np.integer))
                or self.n_points < 8 or self.n_points & (self.n_points - 1)):
            raise ValidationError("grid n_points must be an integer power "
                                  f"of two >= 8, got {self.n_points!r}")
        dx = 2.0 * self.half_width / self.n_points
        object.__setattr__(self, "x", -self.half_width + dx * np.arange(self.n_points))
        object.__setattr__(
            self, "wavenumbers", 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=dx)
        )

    @property
    def dx(self):
        return 2.0 * self.half_width / self.n_points
