"""EIT storage channel for the Signal-2 qubit.

Three layers: the Lambda-system transmission spectrum, a spectral-overlap
write/read efficiency with a storage-time decay law, and a conditional
depolarizing channel acting on the stored qubit.  The transmission line
shape is the standard Lambda-EIT susceptibility; the window acceptance
used for the overlap integral is a bounded, monotone modeling choice
(transparency excess over the coupling-off spectrum), not a propagation
calculation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import CalibrationError, ValidationError
from .qstate import TwoQubitState
from .source import Spectrum

# Rb D1 excited-state half linewidth Gamma/2, expressed in ordinary-frequency
# MHz so it shares units with the detuning grid (Gamma = 2*pi*5.75 rad/us).
GAMMA_E_D1_MHZ = 2.875


@dataclass(frozen=True)
class EITParams:
    """Lambda-system parameters; all frequencies in ordinary MHz."""

    optical_depth: float
    rabi_coupling: float
    gamma_e: float = GAMMA_E_D1_MHZ
    gamma_g: float = 0.03
    probe_grid_mhz: tuple[float, float, int] = (-60.0, 60.0, 2401)

    def __post_init__(self):
        if self.optical_depth <= 0:
            raise ValidationError("optical_depth must be > 0")
        if self.rabi_coupling < 0:
            raise ValidationError("rabi_coupling must be >= 0")
        if self.gamma_e <= 0:
            raise ValidationError("gamma_e must be > 0")
        if self.gamma_g < 0:
            raise ValidationError("gamma_g must be >= 0")
        lo, hi, n = self.probe_grid_mhz
        if not (0.0 < hi - lo < np.inf and 3 <= n <= 1_000_000):
            raise ValidationError(
                "probe_grid_mhz must be (lo, hi, n) with finite lo < hi and 3 <= n <= 1e6"
            )

    @property
    def probe_detuning_grid(self) -> np.ndarray:
        """The probe detunings (MHz): n points evenly spaced from lo to hi."""
        return np.linspace(*self.probe_grid_mhz)


@dataclass(frozen=True)
class MemoryDecayParams:
    """Storage-time decay law: gaussian exp(-(t/tau)^2) or exponential."""

    model: str = "gaussian"
    tau_mem: float = 150.0
    eta_peak: float = 0.9

    def __post_init__(self):
        if self.model not in ("gaussian", "exponential"):
            raise ValidationError(f"unknown decay model {self.model!r}")
        if self.tau_mem <= 0:
            raise ValidationError("tau_mem must be > 0")
        if not 0.0 < self.eta_peak <= 1.0:
            raise ValidationError("eta_peak must be in (0, 1]")


@dataclass(frozen=True)
class MemoryNoiseParams:
    """Noise added by the storage process.

    p_depol is the depolarizing probability applied to the retrieved qubit;
    background_flux is the uncorrelated arm-2 count probability per
    coincidence gate during retrieval.
    """

    p_depol: float = 0.0
    background_flux: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_depol <= 1.0:
            raise ValidationError("p_depol must be in [0, 1]")
        if self.background_flux < 0:
            raise ValidationError("background_flux must be >= 0")


def _susceptibility(delta: np.ndarray, eit: EITParams) -> np.ndarray:
    """Normalized Lambda-EIT susceptibility on the detuning array."""
    d = np.asarray(delta, dtype=np.complex128)
    ge, gg, oc = eit.gamma_e, eit.gamma_g, eit.rabi_coupling
    if oc == 0.0:
        # Two-level limit; the (gamma_g - i delta) factor cancels exactly
        # and would otherwise produce 0/0 at gamma_g = delta = 0.
        return 1j * ge / (ge - 1j * d)
    return 1j * ge * (gg - 1j * d) / ((ge - 1j * d) * (gg - 1j * d) + oc**2 / 4)


def eit_transmission(eit: EITParams) -> tuple[np.ndarray, np.ndarray]:
    """Transmission T(delta) = exp(-OD * Im chi) on the probe grid.

    Returns (detuning_mhz, transmission) arrays.
    """

    grid = eit.probe_detuning_grid
    t = np.exp(-eit.optical_depth * np.imag(_susceptibility(grid, eit)))
    return grid, np.clip(t, 0.0, 1.0)


def transparency_window_fwhm(eit: EITParams) -> float:
    """FWHM of the central transparency peak of the EIT spectrum.

    The peak height is measured from the absorption floor (the minima on
    each side of delta = 0); the width is where the transmission crosses
    halfway between floor and peak.
    """

    if eit.rabi_coupling <= 0:
        raise ValidationError("transparency window needs rabi_coupling > 0")
    grid, t = eit_transmission(eit)
    i0 = int(np.argmin(np.abs(grid)))
    t_peak = t[i0]
    left = t[: i0 + 1]
    right = t[i0:]
    floor = max(left.min(), right.min())
    if t_peak - floor < 1e-6:
        raise CalibrationError(
            "no transparency peak above the absorption floor", parameter="rabi_coupling"
        )
    half = floor + 0.5 * (t_peak - floor)

    def _cross(xs, ys):
        # walk outward from the peak to the first half crossing
        for i in range(len(ys) - 1):
            if (ys[i] - half) * (ys[i + 1] - half) <= 0 and ys[i] >= half:
                x0, x1, y0, y1 = xs[i], xs[i + 1], ys[i], ys[i + 1]
                if y1 == y0:
                    return x1
                return x0 + (half - y0) * (x1 - x0) / (y1 - y0)
        raise CalibrationError(
            "transparency peak does not reach half maximum inside the grid",
            parameter="probe_detuning_grid",
        )

    x_right = _cross(grid[i0:], t[i0:])
    x_left = _cross(grid[: i0 + 1][::-1], t[: i0 + 1][::-1])
    return float(x_right - x_left)


def window_acceptance(eit: EITParams) -> tuple[np.ndarray, np.ndarray]:
    """Acceptance w(delta) = T(delta) * D(delta) for the overlap integral.

    D is the normalized transparency excess over the coupling-off spectrum,
    clipped to [0, 1]; outside the absorption line both spectra transmit
    and nothing is captured, so D -> 0 there.
    """

    grid, t = eit_transmission(eit)
    _, t_bg = eit_transmission(replace(eit, rabi_coupling=0.0))
    depth = 1.0 - t_bg
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(depth > 1e-9, np.clip(t - t_bg, 0.0, None) / depth, 0.0)
    return grid, np.clip(t * d, 0.0, 1.0)


def decay_factor(decay: MemoryDecayParams, t_storage: float) -> float:
    if t_storage < 0:
        raise ValidationError("storage time must be >= 0")
    x = t_storage / decay.tau_mem
    if decay.model == "gaussian":
        return float(np.exp(-(x**2)))
    return float(np.exp(-x))


def spectral_overlap(spectrum: Spectrum, eit: EITParams) -> float:
    """Overlap integral of the signal spectrum with the window acceptance."""
    grid, w = window_acceptance(eit)
    s = spectrum.interpolate(grid)
    return float(np.trapezoid(s * w, grid))


def efficiency_curve(
    spectrum: Spectrum, eit: EITParams, decay: MemoryDecayParams
) -> Callable[[float], float]:
    """t -> eta(t) = eta_peak * overlap(spectrum, window) * decay(t), in [0, 1]."""
    overlap = spectral_overlap(spectrum, eit)  # independent of t: computed once
    return lambda t: float(min(max(decay.eta_peak * overlap * decay_factor(decay, t), 0.0), 1.0))


def storage_efficiency(
    spectrum: Spectrum,
    eit: EITParams,
    decay: MemoryDecayParams,
    t_storage: float,
) -> float:
    """eta(t_storage) from efficiency_curve."""
    return efficiency_curve(spectrum, eit, decay)(t_storage)


def apply_memory(
    rho: TwoQubitState, eta: float, noise: MemoryNoiseParams
) -> tuple[TwoQubitState, float]:
    """Conditional storage channel on the Signal-2 slot.

    Post-selected on retrieval: the retrieval probability is eta and the
    retrieved state is depolarized on the Signal-2 qubit with probability
    p_depol, i.e. rho -> (1-p) rho + p (Tr_2 rho) (x) I/2.
    """

    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"retrieval efficiency {eta} outside [0, 1]")
    p = noise.p_depol
    mixed_s2 = np.kron(rho.reduced_signal1(), np.eye(2, dtype=np.complex128) / 2)
    out = (1.0 - p) * rho.rho + p * mixed_s2
    return TwoQubitState(out), float(eta)


def g2_vs_storage_time(
    g2_initial: float, eta_curve: Callable[[float], float], background: float
) -> Callable[[float], float]:
    """Map a retrieval-efficiency curve to a cross-correlation decay curve.

    g2(t) = 1 + (g2_initial - 1) * eta(t) / (eta(t) + background*(1 - eta(t))).
    """

    if g2_initial <= 1.0:
        raise ValidationError("g2_initial must exceed 1")
    if background <= 0:
        raise ValidationError("background must be > 0")

    def g2(t: float) -> float:
        eta = eta_curve(t)
        if not 0.0 <= eta <= 1.0:
            raise ValidationError(f"eta(t={t}) = {eta} outside [0, 1]")
        denom = eta + background * (1.0 - eta)
        if denom <= 0:
            return 1.0
        return 1.0 + (g2_initial - 1.0) * eta / denom

    return g2
