from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from entmem.errors import ValidationError
from entmem.qstate import ket, physical
from entmem.scenario import Scenario

KET_NORM_TOL = 1e-12


def maximally_mixed() -> np.ndarray:
    return physical(np.eye(4, dtype=np.complex128) / 4)


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ rho)))


def populations(rho: np.ndarray) -> np.ndarray:
    return np.real(np.diag(rho)).copy()


def pure_state(ket4: np.ndarray) -> np.ndarray:
    """Rank-1 state |psi><psi| of a 4-component amplitude vector, normalized first."""
    v = np.asarray(ket4, dtype=np.complex128).reshape(4)
    v = v / np.linalg.norm(v)
    return physical(np.outer(v, v.conj()))


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pure product state |a (x) b><a (x) b| of two (2,) kets, with slot 1 = Signal 1."""
    if abs(np.linalg.norm(a) - 1) > KET_NORM_TOL:
        raise ValidationError("first ket not normalized")
    if abs(np.linalg.norm(b) - 1) > KET_NORM_TOL:
        raise ValidationError("second ket not normalized")
    return pure_state(np.kron(a, b))


def float_bits(values) -> list:
    """The float64 bit patterns of a float, or of each element of an array or list."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2)||a - b||_1 for Hermitian matrices."""
    vals = np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))
    return 0.5 * float(np.sum(np.abs(vals)))


def classicalize(scenario: Scenario) -> Scenario:
    """Classical twin: full white noise and coherent-light correlations."""
    return replace(
        scenario,
        source=replace(scenario.source, p_white=1.0),
        correlations=replace(
            scenario.correlations,
            pair_correlated=False,
            g2_autocorr_s1=1.0,
            g2_autocorr_s2_pre=1.0,
            g2_autocorr_s2_post=1.0,
        ),
    )


def random_density_matrix(rng: np.random.Generator, rank: int = 4) -> np.ndarray:
    """Ginibre-ensemble random state: G G+ normalized."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    return physical(m / np.trace(m).real)


def random_pure_ket(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


@pytest.fixture
def rng():
    return np.random.default_rng(17)


@st.composite
def polarization_kets(draw):
    re_h = draw(st.floats(-1, 1, allow_nan=False))
    im_h = draw(st.floats(-1, 1, allow_nan=False))
    re_v = draw(st.floats(-1, 1, allow_nan=False))
    im_v = draw(st.floats(-1, 1, allow_nan=False))
    norm2 = re_h**2 + im_h**2 + re_v**2 + im_v**2
    if norm2 < 1e-6:
        re_h = 1.0
    return ket(complex(re_h, im_h), complex(re_v, im_v))


@st.composite
def density_matrices(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rank = draw(st.integers(min_value=1, max_value=4))
    return random_density_matrix(np.random.default_rng(seed), rank=rank)
