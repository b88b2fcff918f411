"""Exact linear algebra for one- and two-qubit polarization states.

Basis order is fixed globally as (HH, HV, VH, VV): the first letter is the
Signal-1 polarization, the second letter the Signal-2 (or atomic) one.
Every downstream formula in the package relies on this ordering; the JSON
serialization asserts it explicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

BASIS_LABELS = ("HH", "HV", "VH", "VV")
BASIS_STRING = ",".join(BASIS_LABELS)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
KET_NORM_TOL = 1e-12


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

    def projector(self) -> np.ndarray:
        v = self.vector
        return np.outer(v, v.conj())

    def overlap(self, other: "PolarizationKet") -> complex:
        return complex(np.vdot(self.vector, other.vector))


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

    @classmethod
    def maximally_mixed(cls) -> "TwoQubitState":
        return cls(np.eye(4, dtype=np.complex128) / 4)

    # -- queries ------------------------------------------------------

    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.rho)).copy()

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

    @classmethod
    def from_json_dict(cls, d: dict) -> "TwoQubitState":
        if d.get("basis") != BASIS_STRING:
            raise ValidationError(
                f"density-matrix JSON basis {d.get('basis')!r} != {BASIS_STRING!r}"
            )
        rho = np.array(
            [[complex(re, im) for re, im in row] for row in d["rho"]],
            dtype=np.complex128,
        )
        return cls(rho)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, s: str) -> "TwoQubitState":
        return cls.from_json_dict(json.loads(s))


def tensor_product(a: PolarizationKet, b: PolarizationKet) -> TwoQubitState:
    """Pure product state |a (x) b><a (x) b| with slot 1 = Signal 1."""
    if abs(np.linalg.norm(a.vector) - 1) > KET_NORM_TOL:
        raise ValidationError("first ket not normalized")
    if abs(np.linalg.norm(b.vector) - 1) > KET_NORM_TOL:
        raise ValidationError("second ket not normalized")
    return TwoQubitState.from_ket(np.kron(a.vector, b.vector))


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


def expectation(rho: TwoQubitState, obs: np.ndarray) -> float:
    """Tr(rho * obs) for a Hermitian observable; the value must be real."""
    obs = np.asarray(obs, dtype=np.complex128)
    if obs.shape != (4, 4):
        raise ValidationError("observable must be 4x4")
    _check_hermitian(obs, HERMITICITY_TOL, "observable")
    val = np.trace(rho.rho @ obs)
    if abs(val.imag) > 1e-10:
        raise ValidationError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2)||a - b||_1 for Hermitian matrices."""
    vals = np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))
    return 0.5 * float(np.sum(np.abs(vals)))


# Common two-qubit states used throughout the package.

def bell_psi_plus(phase: float = 0.0) -> TwoQubitState:
    """(|HV> + e^{i phase}|VH>)/sqrt(2)."""
    v = np.zeros(4, dtype=np.complex128)
    v[1] = 1.0
    v[2] = np.exp(1j * phase)
    return TwoQubitState.from_ket(v / np.sqrt(2))


PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
