"""Two-photon polarization state of the cascade-emission pair source.

The emitted state is cos(eta_f)|H_S1 V_S2> + e^{i phi_f} sin(eta_f)|V_S1 H_S2>
mixed with a white-noise fraction p_white of the maximally mixed state.
tan^2(eta_f) depends on the two-photon pump detuning through a measured
anchor table; only piecewise-linear interpolation between anchors is
offered, never extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .qstate import TwoQubitState


@dataclass(frozen=True)
class SourceParams:
    """Pair-source configuration.

    Angles in radians, frequencies in MHz, times in ns.  pair_prob is the
    pair-generation probability per pump pulse.
    """

    eta_f: float
    phi_f: float = 0.0
    two_photon_detuning: float = -20.0
    p_white: float = 0.0
    pair_prob: float = 0.01
    s2_spectral_fwhm: float = 150.0
    s2_temporal_fwhm: float = 7.0
    s1_temporal_fwhm: float = 50.0

    def __post_init__(self):
        if not 0.0 < self.eta_f < np.pi / 2:
            raise ValidationError(f"eta_f={self.eta_f} outside (0, pi/2)")
        if not 0.0 <= self.p_white <= 1.0:
            raise ValidationError(f"p_white={self.p_white} outside [0, 1]")
        if not 0.0 < self.pair_prob < 0.5:
            raise ValidationError(f"pair_prob={self.pair_prob} outside (0, 0.5)")
        for name in ("s2_spectral_fwhm", "s2_temporal_fwhm", "s1_temporal_fwhm"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0")


def tan2_eta_from_detuning(detuning: float, calib: list[tuple[float, float]]) -> float:
    """Interpolate tan^2(eta_f) at the given two-photon detuning (MHz).

    calib is a list of (detuning_mhz, tan2_eta) anchors with strictly
    increasing detunings.  Queries outside the anchor range raise: the
    dependence is measured, so extrapolating would invent data.
    """

    if not calib:
        raise ValidationError("tan2-eta anchor table is empty")
    pts = [(float(d), float(v)) for d, v in calib]
    ds = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])
    if len(ds) > 1 and np.any(np.diff(ds) <= 0):
        raise ValidationError("anchor detunings must be strictly increasing")
    if np.any(vs <= 0):
        raise ValidationError("tan2-eta anchors must be positive")
    if detuning < ds[0] or detuning > ds[-1]:
        raise ValidationError(
            f"detuning {detuning} MHz outside anchor range [{ds[0]}, {ds[-1]}]"
        )
    return float(np.interp(detuning, ds, vs))


def eta_from_tan2(tan2_eta: float) -> float:
    """Mixing angle in (0, pi/2) with the given tan^2."""
    if tan2_eta <= 0:
        raise ValidationError("tan^2(eta) must be positive")
    return float(np.arctan(np.sqrt(tan2_eta)))


def two_photon_state(params: SourceParams) -> TwoQubitState:
    """Source output density matrix.

    rho = (1 - p_white)|psi><psi| + p_white * I/4 with
    |psi> = cos(eta_f)|HV> + e^{i phi_f} sin(eta_f)|VH>.
    """

    c, s = np.cos(params.eta_f), np.sin(params.eta_f)
    psi = np.array([0.0, c, np.exp(1j * params.phi_f) * s, 0.0], dtype=np.complex128)
    pure = np.outer(psi, psi.conj())
    rho = (1.0 - params.p_white) * pure + params.p_white * np.eye(4) / 4
    return TwoQubitState(rho)


@dataclass(frozen=True)
class Spectrum:
    """Sampled spectral density on a frequency grid (MHz, 1/MHz)."""

    grid: np.ndarray = field(repr=False)
    density: np.ndarray = field(repr=False)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        d = np.asarray(self.density, dtype=float)
        if g.shape != d.shape or g.ndim != 1:
            raise ValidationError("spectrum grid/density shape mismatch")
        g.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "density", d)

    def interpolate(self, at: np.ndarray) -> np.ndarray:
        return np.interp(at, self.grid, self.density, left=0.0, right=0.0)


def gaussian_fwhm_sigma(fwhm: float) -> float:
    return fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))


def wavepacket_spectrum(fwhm: float, grid: np.ndarray) -> Spectrum:
    """Gaussian spectral density centered at zero detuning.

    The grid must span at least 4x the FWHM with >= 200 points so the
    trapezoid normalization holds to 1e-6.
    """

    if fwhm <= 0:
        raise ValidationError("spectral FWHM must be > 0")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 200:
        raise ValidationError("frequency grid must be 1-D with >= 200 points")
    if grid[-1] - grid[0] < 4.0 * fwhm:
        raise ValidationError("frequency grid must span at least 4x the FWHM")
    sigma = gaussian_fwhm_sigma(fwhm)
    density = np.exp(-0.5 * (grid / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
    norm = np.trapezoid(density, grid)
    return Spectrum(grid, density / norm)
