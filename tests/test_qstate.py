import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    density_matrices,
    maximally_mixed,
    polarization_kets,
    populations,
    pure_state,
    purity,
    random_density_matrix,
    random_pure_ket,
    tensor_product,
    trace_distance,
)
from entmem.errors import ValidationError
from entmem.qstate import (
    KETS,
    bell_psi_plus,
    fidelity,
    ket,
    ket_linear,
    matrix_json,
    physical,
    psd_sqrt,
)


class TestPolarizationKet:
    def test_normalizes_on_construction(self):
        k = ket(3.0, 4.0)
        assert abs(abs(k[0]) ** 2 + abs(k[1]) ** 2 - 1.0) < 1e-12

    @given(polarization_kets())
    def test_always_unit_norm(self, k):
        assert abs(np.linalg.norm(k) - 1.0) < 1e-12


class TestTensorProduct:
    def test_h_v_basis_product(self):
        rho = tensor_product(KETS["H"], KETS["V"])
        diag = populations(rho)
        assert diag[1] == pytest.approx(1.0, abs=1e-12)
        assert abs(rho).sum() == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_uniform_for_dd(self):
        rho = tensor_product(KETS["D"], KETS["D"])
        assert np.allclose(rho, np.full((4, 4), 0.25), atol=1e-12)

    def test_eta_pi_over_3_product(self):
        # (cos eta|H> + sin eta|V>) (x) |H>, eta = pi/3
        rho = tensor_product(ket_linear(np.pi / 3), KETS["H"])
        assert np.allclose(populations(rho), [0.25, 0.0, 0.75, 0.0], atol=1e-12)

    def test_output_is_valid_state_for_random_kets(self, rng):
        for _ in range(1000):
            a = ket(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
            b = ket(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
            rho = tensor_product(a, b)
            assert abs(np.trace(rho) - 1) < 1e-10
            assert purity(rho) == pytest.approx(1.0, abs=1e-9)


class TestPhysical:
    def test_non_hermitian_rejected(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.5
        with pytest.raises(ValidationError, match="Hermitian"):
            physical(m)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValidationError, match="trace"):
            physical(np.eye(4, dtype=complex) / 2)

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        with pytest.raises(ValidationError, match="eigenvalue"):
            physical(m)

    @pytest.mark.parametrize("shape", [(4,), (2, 2), (3, 3), (4, 3), (2, 4, 2), (4, 4, 2)])
    def test_not_4x4_rejected(self, shape):
        with pytest.raises(ValidationError, match="4x4"):
            physical(np.zeros(shape, dtype=complex))

    def test_tiny_negative_eigenvalue_clamped(self):
        eps = 5e-10
        m = np.diag([0.5 + eps, 0.5, eps, -eps]).astype(complex)
        rho = physical(m / np.trace(m).real)
        vals = np.linalg.eigvalsh(rho)
        assert vals.min() >= 0
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_clamped_state_exactly_hermitian(self, rng):
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            m = (q * [0.6, 0.3, 0.1, -1e-12]) @ q.conj().T
            rho = physical((m + m.conj().T) / 2)
            assert np.array_equal(rho, rho.conj().T)

    def test_returns_a_read_only_array(self, rng):
        clamped = np.diag([0.5, 0.5, 5e-10, -5e-10])  # the clamp path builds a new array
        for m in (np.eye(4) / 4, clamped, np.array(random_density_matrix(rng))):
            rho = physical(m)
            assert m.flags.writeable  # the caller's array is not frozen
            assert isinstance(rho, np.ndarray) and rho.dtype == np.complex128
            assert not rho.flags.writeable
            with pytest.raises(ValueError):
                rho[0, 0] = 1.0
        stack = physical(np.stack([np.eye(4) / 4] * 3))
        assert not stack.flags.writeable and not stack[1].flags.writeable

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), size=st.integers(0, 8))
    def test_stack_is_each_state_bit_for_bit(self, seed, size):
        """Clamped (lowest eigenvalue in [-1e-9, 0)) and unclamped matrices, validated as one stack."""
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(size):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            low = rng.choice([rng.uniform(0.0, 0.3), -rng.uniform(0.0, 9e-10)])
            vals = np.concatenate([[low], rng.dirichlet(np.ones(3)) * (1 - low)])
            m = (q * vals) @ q.conj().T
            mats.append((m + m.conj().T) / (2 * np.trace(m).real))
        stacked = physical(np.array(mats).reshape(size, 4, 4))
        assert stacked.shape == (size, 4, 4)
        assert [s.tolist() for s in stacked] == [physical(m).tolist() for m in mats]
        assert all(not s.flags.writeable for s in stacked)

    def test_stack_applies_every_rule(self):
        good = np.eye(4, dtype=complex) / 4
        skew = good.copy()
        skew[0, 1] = 0.5
        bad_psd = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        for bad, match in ((bad_psd, "eigenvalue"), (2 * good, "trace"), (skew, "Hermitian")):
            with pytest.raises(ValidationError, match=match):
                physical([good, bad])


class TestFidelity:
    def test_identity_case(self, rng):
        rho = random_density_matrix(rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_bell_vs_maximally_mixed(self):
        assert fidelity(bell_psi_plus(), maximally_mixed()) == pytest.approx(
            0.25, abs=1e-10
        )

    def test_orthogonal_pure_states(self):
        hv = tensor_product(KETS["H"], KETS["V"])
        vh = tensor_product(KETS["V"], KETS["H"])
        assert fidelity(hv, vh) == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_overlap_oracle(self, rng):
        # closed form |<psi|phi>|^2 for pure states
        for _ in range(1000):
            a, b = random_pure_ket(rng), random_pure_ket(rng)
            expected = abs(np.vdot(a, b)) ** 2
            f = fidelity(pure_state(a), pure_state(b))
            assert f == pytest.approx(expected, abs=1e-10)

    @given(density_matrices(), density_matrices())
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_bounded(self, rho, sigma):
        f1, f2 = fidelity(rho, sigma), fidelity(sigma, rho)
        assert 0.0 <= f1 <= 1.0
        assert f1 == pytest.approx(f2, abs=1e-9)

    def test_pure_reference_reduces_to_expectation(self, rng):
        psi = bell_psi_plus()
        rho = random_density_matrix(rng)
        direct = float(np.real(np.trace(rho @ psi)))
        assert fidelity(rho, psi) == pytest.approx(direct, abs=1e-10)


def test_psd_sqrt_squares_back(rng):
    for _ in range(50):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        r = psd_sqrt(m)
        assert np.max(np.abs(r @ r - m)) < 1e-8 * max(1.0, np.max(np.abs(m)))


def test_trace_distance_basics():
    hv = tensor_product(KETS["H"], KETS["V"])
    vh = tensor_product(KETS["V"], KETS["H"])
    assert trace_distance(hv, hv) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(hv, vh) == pytest.approx(1.0, abs=1e-10)


class TestSerialization:
    """The report's density-matrix JSON carries every bit of the matrix."""

    @staticmethod
    def _parse(text):
        d = json.loads(text)
        return d["basis"], np.array([[complex(re, im) for re, im in row] for row in d["rho"]])

    def test_round_trip_bit_stable(self):
        rho = bell_psi_plus(phase=0.25)
        basis, back = self._parse(json.dumps(matrix_json(rho)))
        assert np.array_equal(back, rho)
        assert basis == "HH,HV,VH,VV"

    @given(density_matrices())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random_states(self, rho):
        _, back = self._parse(json.dumps(matrix_json(rho)))
        assert np.max(np.abs(back - rho)) < 1e-15
