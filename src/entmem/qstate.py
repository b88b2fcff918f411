"""Exact linear algebra for one- and two-qubit polarization states.

Basis order is fixed globally as (HH, HV, VH, VV): the first letter is the
Signal-1 polarization, the second letter the Signal-2 (or atomic) one.
Every downstream formula in the package relies on this ordering; the JSON
serialization records it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

BASIS_LABELS = ("HH", "HV", "VH", "VV")
BASIS_STRING = ",".join(BASIS_LABELS)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9


@dataclass(frozen=True)
class PolarizationKet:
    """Single-photon polarization state with H/V amplitudes.

    Amplitudes are normalized on construction; a near-zero input vector is
    rejected rather than silently rescaled from noise.
    """

    amp_h: complex
    amp_v: complex

    def __post_init__(self):
        norm = np.sqrt(abs(self.amp_h) ** 2 + abs(self.amp_v) ** 2)
        if norm < 1e-9:
            raise ValidationError("polarization ket has (near-)zero norm")
        object.__setattr__(self, "amp_h", complex(self.amp_h) / norm)
        object.__setattr__(self, "amp_v", complex(self.amp_v) / norm)

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.amp_h, self.amp_v], dtype=np.complex128)


def ket_h() -> PolarizationKet:
    return PolarizationKet(1.0, 0.0)


def ket_v() -> PolarizationKet:
    return PolarizationKet(0.0, 1.0)


def ket_d() -> PolarizationKet:
    """(|H> + |V>)/sqrt(2)."""
    return PolarizationKet(1.0, 1.0)


def ket_a() -> PolarizationKet:
    """(|H> - |V>)/sqrt(2)."""
    return PolarizationKet(1.0, -1.0)


def ket_r() -> PolarizationKet:
    """(|H> - i|V>)/sqrt(2)."""
    return PolarizationKet(1.0, -1.0j)


def ket_l() -> PolarizationKet:
    """(|H> + i|V>)/sqrt(2)."""
    return PolarizationKet(1.0, 1.0j)


def ket_linear(theta: float) -> PolarizationKet:
    """Linear polarization at angle theta from H, cos(theta)|H> + sin(theta)|V>."""
    return PolarizationKet(np.cos(theta), np.sin(theta))


KET_BY_LABEL = {
    "H": ket_h,
    "V": ket_v,
    "D": ket_d,
    "A": ket_a,
    "R": ket_r,
    "L": ket_l,
}


def _check_hermitian(m: np.ndarray, tol: float, what: str) -> None:
    if np.max(np.abs(m - m.conj().T)) > tol:
        raise ValidationError(f"{what} is not Hermitian within {tol:g}")


def matrix_json(m: np.ndarray) -> dict:
    """JSON form of a 4x4 matrix: the basis order and nested [re, im] pairs."""
    return {
        "basis": BASIS_STRING,
        "rho": [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)],
    }


@dataclass(frozen=True)
class TwoQubitState:
    """4x4 density matrix in the (HH, HV, VH, VV) basis.

    Validated on construction: Hermitian within 1e-10, unit trace within
    1e-10, positive semidefinite within 1e-9.  Eigenvalues in [-1e-9, 0)
    are clamped to zero and the matrix rebuilt exactly Hermitian and
    renormalized, so slightly unphysical matrices from linear tomography can
    still flow through; anything more negative is an error.
    """

    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=np.complex128)
        if rho.shape != (4, 4):
            raise ValidationError(f"density matrix must be 4x4, got {rho.shape}")
        _check_hermitian(rho, HERMITICITY_TOL, "density matrix")
        tr = np.trace(rho)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"density matrix trace {tr} differs from 1")
        vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
        if vals.min() < -PSD_TOL:
            raise ValidationError(
                f"density matrix has eigenvalue {vals.min():.3e} below -{PSD_TOL:g}"
            )
        if vals.min() < 0:
            vals = np.clip(vals, 0.0, None)
            rho = (vecs * vals) @ vecs.conj().T
            rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_ket(cls, ket4: np.ndarray) -> "TwoQubitState":
        """Rank-1 state |psi><psi| from a 4-component amplitude vector."""
        v = np.asarray(ket4, dtype=np.complex128).reshape(4)
        norm = np.linalg.norm(v)
        if norm < 1e-9:
            raise ValidationError("two-qubit ket has (near-)zero norm")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    # -- queries ------------------------------------------------------

    def reduced_signal1(self) -> np.ndarray:
        """2x2 reduced state of the Signal-1 slot (trace over slot 2)."""
        r = self.rho.reshape(2, 2, 2, 2)
        return np.einsum("ikjk->ij", r)

    def reduced_signal2(self) -> np.ndarray:
        """2x2 reduced state of the Signal-2 slot (trace over slot 1)."""
        r = self.rho.reshape(2, 2, 2, 2)
        return np.einsum("kikj->ij", r)

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return matrix_json(self.rho)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Matrix square root of a PSD matrix via eigendecomposition.

    Eigenvalues are clamped at zero, with a relative floor so that the
    square root does not amplify 1e-16 eigensolver noise on exact zeros
    into 1e-8 artifacts.
    """

    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    floor = max(vals.max(), 0.0) * 1e-13
    vals = np.where(vals > floor, vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: TwoQubitState, sigma: TwoQubitState) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1].

    Evaluated as the squared trace norm of sqrt(rho) sqrt(sigma), which is
    the same quantity but keeps near-zero singular values at machine
    precision instead of square-rooting eigenvalue noise.
    """

    r = psd_sqrt(rho.rho)
    s = psd_sqrt(sigma.rho)
    singulars = np.linalg.svd(r @ s, compute_uv=False)
    f = float(np.sum(singulars) ** 2)
    return min(max(f, 0.0), 1.0)


# Common two-qubit states used throughout the package.

def bell_psi_plus(phase: float = 0.0) -> TwoQubitState:
    """(|HV> + e^{i phase}|VH>)/sqrt(2)."""
    v = np.zeros(4, dtype=np.complex128)
    v[1] = 1.0
    v[2] = np.exp(1j * phase)
    return TwoQubitState.from_ket(v / np.sqrt(2))

