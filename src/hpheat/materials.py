"""Material parameters and constitutive model selection.

Three constitutive laws are supported as successive generalizations of the
same flux evolution equation

    tau dq/dt + q + conductivity * dT/dx - kappa2 * d2q/dx2 = 0 :

Fourier (tau = 0, kappa2 = 0), Maxwell-Cattaneo-Vernotte (kappa2 = 0) and
Guyer-Krumhansl (all terms active).  The model kind determines which
parameters must vanish and which approximation space the flux lives in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isfinite


class ModelKind(enum.Enum):
    """Constitutive law for the heat flux."""

    FOURIER = "fourier"
    MCV = "mcv"
    GK = "gk"


@dataclass(frozen=True)
class MaterialParams:
    """Homogeneous rigid conductor.

    rho          mass density [kg/m^3]
    c_v          specific heat [J/(kg K)]
    conductivity thermal conductivity [W/(m K)]
    tau          relaxation time of the heat flux [s]
    kappa2       nonlocal length parameter squared [m^2]
    """

    rho: float
    c_v: float
    conductivity: float
    tau: float = 0.0
    kappa2: float = 0.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.rho <= 0.0:
            raise ValueError(f"density must be positive, got {self.rho}")
        if self.c_v <= 0.0:
            raise ValueError(f"specific heat must be positive, got {self.c_v}")
        if self.conductivity <= 0.0:
            raise ValueError(f"conductivity must be positive, got {self.conductivity}")
        if self.tau < 0.0:
            raise ValueError(f"relaxation time must be >= 0, got {self.tau}")
        if self.kappa2 < 0.0:
            raise ValueError(f"nonlocal parameter must be >= 0, got {self.kappa2}")

    @property
    def volumetric_heat_capacity(self) -> float:
        """rho * c_v [J/(m^3 K)]."""
        return self.rho * self.c_v

    @property
    def diffusivity(self) -> float:
        """conductivity / (rho * c_v) [m^2/s]."""
        return self.conductivity / (self.rho * self.c_v)

    def model_kind(self) -> ModelKind:
        """Classify the parameter set by which generalized terms are active."""
        if self.kappa2 > 0.0:
            return ModelKind.GK
        if self.tau > 0.0:
            return ModelKind.MCV
        return ModelKind.FOURIER

    def require_kind(self, kind: ModelKind) -> None:
        """Reject parameter sets inconsistent with an explicitly requested model."""
        if kind is ModelKind.FOURIER and (self.tau != 0.0 or self.kappa2 != 0.0):
            raise ValueError(
                "Fourier model requires tau = 0 and kappa2 = 0, "
                f"got tau = {self.tau}, kappa2 = {self.kappa2}"
            )
        if kind is ModelKind.MCV and self.kappa2 != 0.0:
            raise ValueError(
                f"Maxwell-Cattaneo-Vernotte model requires kappa2 = 0, got {self.kappa2}"
            )
