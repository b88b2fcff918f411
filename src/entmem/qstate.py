"""Exact linear algebra for one- and two-qubit polarization states.

Basis order is fixed globally as (HH, HV, VH, VV): the first letter is the
Signal-1 polarization, the second letter the Signal-2 (or atomic) one.
Every downstream formula in the package relies on this ordering; the JSON
serialization records it explicitly.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

BASIS_LABELS = ("HH", "HV", "VH", "VV")
BASIS_STRING = ",".join(BASIS_LABELS)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9


def ket(amp_h, amp_v) -> np.ndarray:
    """The polarization ket amp_h|H> + amp_v|V>, normalized, as a read-only (2,) array."""
    norm = np.sqrt(abs(amp_h) ** 2 + abs(amp_v) ** 2)
    k = np.array([complex(amp_h) / norm, complex(amp_v) / norm], dtype=np.complex128)
    k.setflags(write=False)
    return k


# The six analyzer states: D, A = (|H> +- |V>)/sqrt(2), R, L = (|H> -+ i|V>)/sqrt(2).
KETS = {
    "H": ket(1.0, 0.0),
    "V": ket(0.0, 1.0),
    "D": ket(1.0, 1.0),
    "A": ket(1.0, -1.0),
    "R": ket(1.0, -1.0j),
    "L": ket(1.0, 1.0j),
}


def ket_linear(theta: float) -> np.ndarray:
    """Linear polarization at angle theta from H, cos(theta)|H> + sin(theta)|V>."""
    return ket(np.cos(theta), np.sin(theta))


def physical(rho) -> np.ndarray:
    """A 4x4 density matrix in the (HH, HV, VH, VV) basis, or a (..., 4, 4) stack of them,
    checked and returned as a read-only copy.

    Each must be Hermitian within 1e-10, of unit trace within 1e-10 and positive
    semidefinite within 1e-9, all checked by one stacked eigh.  Eigenvalues in
    [-1e-9, 0) are clamped to zero and the matrix rebuilt exactly Hermitian and
    renormalized, so slightly unphysical matrices from linear tomography can
    still flow through; anything more negative is an error.
    """
    rho = np.array(rho, dtype=np.complex128)  # a copy: the caller's array stays writeable
    if rho.shape[-2:] != (4, 4):
        raise ValidationError(f"density matrix must be 4x4, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().mT), initial=0.0) > HERMITICITY_TOL:  # 0: an empty stack
        raise ValidationError(f"density matrix is not Hermitian within {HERMITICITY_TOL:g}")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0) > TRACE_TOL
    if off.any():
        raise ValidationError(f"density matrix trace {tr[off].flat[0]} differs from 1")
    vals, vecs = np.linalg.eigh((rho + rho.conj().mT) / 2)
    lowest = vals[..., 0]  # eigh sorts ascending
    if (lowest < -PSD_TOL).any():
        raise ValidationError(
            f"density matrix has eigenvalue {lowest.min():.3e} below -{PSD_TOL:g}"
        )
    clamp = lowest < 0
    if clamp.any():
        vals = np.clip(vals, 0.0, None)
        fixed = (vecs * vals[..., None, :]) @ vecs.conj().mT
        trace = np.trace(fixed, axis1=-2, axis2=-1).real[..., None, None]
        fixed = (fixed + fixed.conj().mT) / (2 * trace)
        rho = np.where(clamp[..., None, None], fixed, rho)
    rho.setflags(write=False)
    return rho


def reduced_signal1(rho: np.ndarray) -> np.ndarray:
    """2x2 reduced state of the Signal-1 slot (trace over slot 2), one per matrix of a stack."""
    return np.einsum("...ikjk->...ij", rho.reshape(*rho.shape[:-2], 2, 2, 2, 2))


def reduced_signal2(rho: np.ndarray) -> np.ndarray:
    """2x2 reduced state of the Signal-2 slot (trace over slot 1), one per matrix of a stack."""
    return np.einsum("...kikj->...ij", rho.reshape(*rho.shape[:-2], 2, 2, 2, 2))


def matrix_json(m: np.ndarray) -> dict:
    """JSON form of a 4x4 matrix: the basis order and nested [re, im] pairs."""
    return {
        "basis": BASIS_STRING,
        "rho": [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)],
    }


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Matrix square root of a PSD matrix, or of each in a stack, via eigendecomposition.

    Eigenvalues are clamped at zero, with a relative floor so that the
    square root does not amplify 1e-16 eigensolver noise on exact zeros
    into 1e-8 artifacts.
    """

    vals, vecs = np.linalg.eigh((m + m.conj().mT) / 2)
    floor = np.maximum(vals.max(axis=-1, keepdims=True), 0.0) * 1e-13
    vals = np.where(vals > floor, vals, 0.0)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().mT


def fidelity(rho, sigma):
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1].

    Evaluated as the squared trace norm of sqrt(rho) sqrt(sigma), which is
    the same quantity but keeps near-zero singular values at machine
    precision instead of square-rooting eigenvalue noise.  States or (..., 4, 4)
    stacks that broadcast give one value per pair, NaN where either holds a NaN
    (a failed fit, which would fail numpy's stacked eigh for the whole stack).
    """

    a, b = np.asarray(rho), np.asarray(sigma)
    ok = ~np.isnan(a).any(axis=(-2, -1)) & ~np.isnan(b).any(axis=(-2, -1))
    f = np.full(ok.shape, np.nan)
    if ok.any():
        a, b = (m if m.ndim == 2 else np.broadcast_to(m, (*ok.shape, 4, 4))[ok] for m in (a, b))
        singulars = np.linalg.svd(psd_sqrt(a) @ psd_sqrt(b), compute_uv=False)
        # float ** 2 of each trace norm, as for one pair: the array square can round differently
        f[ok] = np.clip([float(x) ** 2 for x in np.atleast_1d(singulars.sum(axis=-1))], 0.0, 1.0)
    return float(f) if f.ndim == 0 else f


# Common two-qubit states used throughout the package.

def bell_psi_plus(phase: float = 0.0) -> np.ndarray:
    """(|HV> + e^{i phase}|VH>)/sqrt(2)."""
    v = np.zeros(4, dtype=np.complex128)
    v[1] = 1.0
    v[2] = np.exp(1j * phase)
    v = v / np.sqrt(2)
    v = v / np.linalg.norm(v)
    return physical(np.outer(v, v.conj()))
