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

import math
from dataclasses import dataclass, replace
from typing import Annotated, Sequence

import numpy as np

from .errors import Range, Section, ValidationError
from .qstate import physical, reduced_signal1
from .source import gaussian_fwhm_sigma

# Rb D1 excited-state half linewidth Gamma/2, expressed in ordinary-frequency
# MHz so it shares units with the detuning grid (Gamma = 2*pi*5.75 rad/us).
GAMMA_E_D1_MHZ = 2.875
# Far past any coupling a Lambda system takes (the Rb ground splitting is 6.8e3 MHz);
# below it the susceptibility's rabi_coupling**2 is a finite float.
RABI_COUPLING_MAX_MHZ = 1e6
# Far past the natural width of any optical transition (Rb D1: 2.875 MHz) and any
# ground-state dephasing; below it the susceptibility's products of rates are finite floats.
LINEWIDTH_MAX_MHZ = 1e6
# Far past any EIT line (the Rb D1 absorption line is tens of MHz wide); below it the
# probe detunings, their squares and the spectral overlap's grid are finite floats.
PROBE_GRID_MAX_MHZ = 1e6
# Decades of storage (the longest optical memories hold light for about an hour);
# below it the 3 tau_mem time axis of the efficiency curve is a finite float.
TAU_MEM_MAX_NS = 1e18
# The fewest probe-grid points above half the acceptance's peak. At the bundled coupling a
# +-60 MHz grid with 5 there (33 points) gives the overlap of the bundled grid (321 there)
# within 0.02%; with 3 it is 0.6% off, and with 1 up to twice as large.
WINDOW_POINTS_MIN = 5


@dataclass(frozen=True)
class EITParams(Section):
    """Lambda-system parameters; all frequencies in ordinary MHz."""

    optical_depth: Annotated[float, Range(0, math.inf, "()")]
    rabi_coupling: Annotated[float, Range(0, RABI_COUPLING_MAX_MHZ)]
    gamma_e: Annotated[float, Range(0, LINEWIDTH_MAX_MHZ, "(]")] = GAMMA_E_D1_MHZ
    gamma_g: Annotated[float, Range(0, LINEWIDTH_MAX_MHZ)] = 0.03
    probe_grid_mhz: tuple[float, float, int] = (-60.0, 60.0, 2401)

    def __post_init__(self):
        super().__post_init__()
        lo, hi, n = self.probe_grid_mhz
        if not (-PROBE_GRID_MAX_MHZ <= lo < hi <= PROBE_GRID_MAX_MHZ and 3 <= n <= 1_000_000):
            raise ValidationError(
                f"probe_grid_mhz must be (lo, hi, n) with -{PROBE_GRID_MAX_MHZ:g} <= lo < hi <= "
                f"{PROBE_GRID_MAX_MHZ:g} MHz and 3 <= n <= 1e6"
            )

    @property
    def probe_detuning_grid(self) -> np.ndarray:
        """The probe detunings (MHz): n points evenly spaced from lo to hi."""
        return np.linspace(*self.probe_grid_mhz)


@dataclass(frozen=True)
class MemoryDecayParams(Section):
    """Storage-time decay law: gaussian exp(-(t/tau)^2) or exponential."""

    model: str = "gaussian"
    tau_mem: Annotated[float, Range(0, TAU_MEM_MAX_NS, "(]")] = 150.0
    eta_peak: Annotated[float, Range(0, 1, "(]")] = 0.9

    def __post_init__(self):
        super().__post_init__()
        if self.model not in ("gaussian", "exponential"):
            raise ValidationError(f"unknown decay model {self.model!r}")


@dataclass(frozen=True)
class MemoryNoiseParams(Section):
    """Noise added by the storage process.

    p_depol is the depolarizing probability applied to the retrieved qubit;
    background_flux is the uncorrelated arm-2 count probability per
    coincidence gate during retrieval.
    """

    p_depol: Annotated[float, Range(0, 1)] = 0.0
    background_flux: Annotated[float, Range(0, math.inf, "[)")] = 0.0


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
    """FWHM of the central transparency peak of the EIT spectrum, 0 without one.

    The peak height is measured from the absorption floor (the minima on
    each side of delta = 0); the width is where the transmission crosses
    halfway between floor and peak.  Without a peak above the floor (no
    coupling, or one so strong that the grid shows no absorption) it reads 0.
    """

    grid, t = eit_transmission(eit)
    i0 = int(np.argmin(np.abs(grid)))
    t_peak = t[i0]
    floor = max(t[: i0 + 1].min(), t[i0:].min())
    if t_peak - floor < 1e-6:
        return 0.0
    half = floor + 0.5 * (t_peak - floor)

    def _cross(xs, ys):
        # the first half crossing outward from the peak: each side starts above half
        # and falls to the floor or below it, so every side has one inside the grid
        above = ys - half
        k = np.flatnonzero((above[:-1] * above[1:] <= 0) & (above[:-1] >= 0))[0]
        (x0, x1), (y0, y1) = xs[k : k + 2], ys[k : k + 2]
        return x1 if y1 == y0 else x0 + (half - y0) * (x1 - x0) / (y1 - y0)

    x_right = _cross(grid[i0:], t[i0:])
    x_left = _cross(grid[: i0 + 1][::-1], t[: i0 + 1][::-1])
    return float(x_right - x_left)


def window_acceptance(eit: EITParams) -> tuple[np.ndarray, np.ndarray]:
    """Acceptance w(delta) = T(delta) * D(delta) for the overlap integral.

    D is the normalized transparency excess over the coupling-off spectrum,
    clipped to [0, 1]; outside the absorption line both spectra transmit
    and nothing is captured, so D -> 0 there.  A window that falls between
    the grid points, weighed wrongly by the trapezoid rule, is rejected.
    """

    grid, t = eit_transmission(eit)
    _, t_bg = eit_transmission(replace(eit, rabi_coupling=0.0))
    depth = 1.0 - t_bg
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(depth > 1e-9, np.clip(t - t_bg, 0.0, None) / depth, 0.0)
    w = np.clip(t * d, 0.0, 1.0)
    peak = w.max()
    resolved = np.count_nonzero(w > peak / 2)
    if peak > 0 and resolved < WINDOW_POINTS_MIN:
        raise ValidationError(
            f"eit.probe_grid_mhz {eit.probe_grid_mhz} is too coarse for the memory's acceptance "
            f"window: {resolved} grid point(s) above its half maximum, below {WINDOW_POINTS_MIN}"
        )
    return grid, w


def spectral_overlap(fwhm: float, eit: EITParams) -> float:
    """Overlap integral of the signal photon's spectrum with the window acceptance.

    The spectrum is a Gaussian of the given FWHM (MHz), normalized by the
    trapezoid rule on a grid wide enough for both the line and the probe
    grid, then interpolated onto the probe grid (zero past its ends).
    """
    _, hi, n = eit.probe_grid_mhz
    half = max(4.0 * fwhm, 2.5 * abs(hi))
    wide = np.linspace(-half, half, max(1601, n))
    sigma = gaussian_fwhm_sigma(fwhm)
    density = np.exp(-0.5 * (wide / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
    norm = np.trapezoid(density, wide)
    if not norm > 0:  # a line far narrower than the grid step falls between its nodes
        raise ValidationError(
            f"a source.s2_spectral_fwhm {fwhm:g} MHz line falls between the nodes of the spectrum "
            f"grid that eit.probe_grid_mhz {eit.probe_grid_mhz} sets: its trapezoid mass is 0"
        )
    grid = eit.probe_detuning_grid
    s = np.interp(grid, wide, density / norm, left=0.0, right=0.0)
    # Sampled too coarsely, the line holds more than all its light and the memory more than
    # it could capture.
    mass = np.trapezoid(s, grid)
    if mass > 1 + 1e-6:
        raise ValidationError(
            f"eit.probe_grid_mhz {eit.probe_grid_mhz} is too coarse for a source.s2_spectral_fwhm "
            f"{fwhm:g} MHz line: the line's trapezoid mass on it is {mass:.4g}, above 1"
        )
    _, w = window_acceptance(eit)
    return float(np.trapezoid(s * w, grid))


def efficiency(
    overlap: float, decay: MemoryDecayParams, t_storage: float | Sequence[float]
) -> float | np.ndarray:
    """eta_peak * overlap * decay(t) in [0, 1]; a float or an array, as t (ns) is."""
    t = np.asarray(t_storage, dtype=float)
    if np.any(t < 0):
        raise ValidationError("storage time must be >= 0")
    with np.errstate(over="ignore"):  # t/tau or its square past the float range: nothing is left
        x = t / decay.tau_mem
        factor = np.exp(-(x**2) if decay.model == "gaussian" else -x)
    eta = np.clip(decay.eta_peak * overlap * factor, 0.0, 1.0)
    return float(eta) if eta.ndim == 0 else eta


def apply_memory(rho: np.ndarray, noise: MemoryNoiseParams) -> np.ndarray:
    """Conditional storage channel on the Signal-2 slot, on a state or each of a stack.

    Post-selected on retrieval, so the retrieval efficiency does not enter:
    the retrieved state is depolarized on the Signal-2 qubit with probability
    p_depol, i.e. rho -> (1-p) rho + p (Tr_2 rho) (x) I/2.
    """

    p = noise.p_depol
    mixed_s2 = np.kron(reduced_signal1(rho), np.eye(2, dtype=np.complex128) / 2)
    return physical((1.0 - p) * rho + p * mixed_s2)
