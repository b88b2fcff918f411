"""Two-photon polarization state of the cascade-emission pair source.

The emitted state is cos(eta_f)|H_S1 V_S2> + e^{i phi_f} sin(eta_f)|V_S1 H_S2>
mixed with a white-noise fraction p_white of the maximally mixed state.
tan^2(eta_f) depends on the two-photon pump detuning through a measured
anchor table; only piecewise-linear interpolation between anchors is
offered, never extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import Range, Section, ValidationError
from .qstate import physical


# Far past the bandwidth of a cascade-emission photon (tens to hundreds of MHz); below it
# the 8-FWHM frequency grid of the memory's spectral overlap is finite.
SPECTRAL_FWHM_MAX_MHZ = 1e6
# Far below the linewidth of any photon (a 1 mHz line lasts minutes); above it the line's
# density on the memory's spectral overlap grid, and its square, are finite floats.
SPECTRAL_FWHM_MIN_MHZ = 1e-9


@dataclass(frozen=True)
class SourceParams(Section):
    """Pair-source configuration.

    Angles in radians, frequencies in MHz, times in ns.  pair_prob is the
    pair-generation probability per pump pulse.  tan2_eta_anchors is the
    measured (detuning_mhz, tan2_eta) table that a scenario file's eta_f
    "auto" interpolates at two_photon_detuning.
    """

    eta_f: Annotated[float, Range(0, np.pi / 2, "()")]
    phi_f: Annotated[float, Range(-math.inf, math.inf, "()")] = 0.0
    two_photon_detuning: Annotated[float, Range(-math.inf, math.inf, "()")] = -20.0
    p_white: Annotated[float, Range(0, 1)] = 0.0
    pair_prob: Annotated[float, Range(0, 0.5, "()")] = 0.01
    s2_spectral_fwhm: Annotated[float, Range(SPECTRAL_FWHM_MIN_MHZ, SPECTRAL_FWHM_MAX_MHZ)] = 150.0
    s2_temporal_fwhm: Annotated[float, Range(0, math.inf, "()")] = 7.0
    tan2_eta_anchors: tuple[tuple[float, float], ...] = ()


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


def two_photon_state(params: SourceParams) -> np.ndarray:
    """Source output density matrix.

    rho = (1 - p_white)|psi><psi| + p_white * I/4 with
    |psi> = cos(eta_f)|HV> + e^{i phi_f} sin(eta_f)|VH>.
    """

    c, s = np.cos(params.eta_f), np.sin(params.eta_f)
    psi = np.array([0.0, c, np.exp(1j * params.phi_f) * s, 0.0], dtype=np.complex128)
    pure = np.outer(psi, psi.conj())
    rho = (1.0 - params.p_white) * pure + params.p_white * np.eye(4) / 4
    return physical(rho)


def gaussian_fwhm_sigma(fwhm: float) -> float:
    return fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
