"""Balancing interferometer with an attenuation plate on the Signal-2 arm.

The plate attenuates only the horizontally polarized Signal-2 component,
so it can rebalance the source state exactly when the |V_S1 H_S2> term
dominates (tan eta_f >= 1).  The storage-path polarization plumbing is
modeled as the identity channel on the Signal-2 qubit; any common path
efficiency is carried by the loss budget, never by this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import Range, Section, ValidationError
from .qstate import physical


@dataclass(frozen=True)
class AttenuatorSetting(Section):
    """Amplitude transmittance for the horizontal Signal-2 component.

    balanced is False when the requested mixing angle cannot be balanced
    by attenuating H (tan eta_f < 1 would require attenuating V instead,
    which the physical plate cannot do).
    """

    t_h: Annotated[float, Range(0, 1, "(]")]
    balanced: bool = True


def balance_attenuation(eta_f: float) -> AttenuatorSetting:
    """Plate setting that balances the source state, if geometry allows.

    For tan(eta_f) >= 1 returns t_h = cot(eta_f); otherwise returns the
    identity setting flagged as unbalanced.
    """

    if not 0.0 < eta_f < np.pi / 2:
        raise ValidationError(f"eta_f={eta_f} outside (0, pi/2)")
    t = np.tan(eta_f)
    if t >= 1.0:
        return AttenuatorSetting(t_h=float(1.0 / t), balanced=True)
    return AttenuatorSetting(t_h=1.0, balanced=False)


def apply_attenuator(rho: np.ndarray, setting: AttenuatorSetting) -> tuple[np.ndarray, float]:
    """Post-selected amplitude filter K = I (x) diag(t_h, 1) on Signal 2.

    Returns the renormalized output state and the success probability
    Tr(K rho K+).
    """

    k2 = np.diag([setting.t_h, 1.0]).astype(np.complex128)
    kraus = np.kron(np.eye(2, dtype=np.complex128), k2)
    filtered = kraus @ rho @ kraus.conj().T
    success = float(np.real(np.trace(filtered)))
    if success < 1e-12:
        raise ValidationError("attenuator filtered out the entire state")
    return physical(filtered / success), success
