import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import density_matrices, polarization_kets, random_density_matrix, random_pure_ket
from entmem.errors import ValidationError
from entmem.qstate import (
    PAULI_X,
    PAULI_Z,
    PolarizationKet,
    TwoQubitState,
    bell_psi_plus,
    expectation,
    fidelity,
    ket_d,
    ket_h,
    ket_linear,
    ket_v,
    psd_sqrt,
    tensor_product,
    trace_distance,
)


class TestPolarizationKet:
    def test_normalizes_on_construction(self):
        k = PolarizationKet(3.0, 4.0)
        assert abs(abs(k.amp_h) ** 2 + abs(k.amp_v) ** 2 - 1.0) < 1e-12

    def test_zero_norm_rejected(self):
        with pytest.raises(ValidationError):
            PolarizationKet(0.0, 0.0)

    @given(polarization_kets())
    def test_always_unit_norm(self, ket):
        assert abs(np.linalg.norm(ket.vector) - 1.0) < 1e-12


class TestTensorProduct:
    def test_h_v_basis_product(self):
        rho = tensor_product(ket_h(), ket_v())
        diag = rho.populations()
        assert diag[1] == pytest.approx(1.0, abs=1e-12)
        assert abs(rho.rho).sum() == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_uniform_for_dd(self):
        rho = tensor_product(ket_d(), ket_d())
        assert np.allclose(rho.rho, np.full((4, 4), 0.25), atol=1e-12)

    def test_eta_pi_over_3_product(self):
        # (cos eta|H> + sin eta|V>) (x) |H>, eta = pi/3
        rho = tensor_product(ket_linear(np.pi / 3), ket_h())
        assert np.allclose(rho.populations(), [0.25, 0.0, 0.75, 0.0], atol=1e-12)

    def test_output_is_valid_state_for_random_kets(self, rng):
        for _ in range(1000):
            a = PolarizationKet(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
            b = PolarizationKet(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
            rho = tensor_product(a, b)
            assert abs(np.trace(rho.rho) - 1) < 1e-10
            assert rho.purity() == pytest.approx(1.0, abs=1e-9)


class TestTwoQubitStateValidation:
    def test_non_hermitian_rejected(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.5
        with pytest.raises(ValidationError, match="Hermitian"):
            TwoQubitState(m)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValidationError, match="trace"):
            TwoQubitState(np.eye(4, dtype=complex) / 2)

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        with pytest.raises(ValidationError, match="eigenvalue"):
            TwoQubitState(m)

    def test_tiny_negative_eigenvalue_clamped(self):
        eps = 5e-10
        m = np.diag([0.5 + eps, 0.5, eps, -eps]).astype(complex)
        rho = TwoQubitState(m / np.trace(m).real)
        vals = np.linalg.eigvalsh(rho.rho)
        assert vals.min() >= 0
        assert np.trace(rho.rho).real == pytest.approx(1.0, abs=1e-12)

    def test_clamped_state_exactly_hermitian(self, rng):
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            m = (q * [0.6, 0.3, 0.1, -1e-12]) @ q.conj().T
            rho = TwoQubitState((m + m.conj().T) / 2).rho
            assert np.array_equal(rho, rho.conj().T)


class TestFidelity:
    def test_identity_case(self, rng):
        rho = random_density_matrix(rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_bell_vs_maximally_mixed(self):
        assert fidelity(bell_psi_plus(), TwoQubitState.maximally_mixed()) == pytest.approx(
            0.25, abs=1e-10
        )

    def test_orthogonal_pure_states(self):
        hv = tensor_product(ket_h(), ket_v())
        vh = tensor_product(ket_v(), ket_h())
        assert fidelity(hv, vh) == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_overlap_oracle(self, rng):
        # closed form |<psi|phi>|^2 for pure states
        for _ in range(1000):
            a, b = random_pure_ket(rng), random_pure_ket(rng)
            expected = abs(np.vdot(a, b)) ** 2
            f = fidelity(TwoQubitState.from_ket(a), TwoQubitState.from_ket(b))
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
        direct = float(np.real(np.trace(rho.rho @ psi.rho)))
        assert fidelity(rho, psi) == pytest.approx(direct, abs=1e-10)


class TestExpectation:
    def test_traceless_on_maximally_mixed(self):
        zz = np.kron(PAULI_Z, PAULI_Z)
        assert expectation(TwoQubitState.maximally_mixed(), zz) == pytest.approx(0.0, abs=1e-12)

    def test_bell_zz_anticorrelated(self):
        zz = np.kron(PAULI_Z, PAULI_Z)
        assert expectation(bell_psi_plus(), zz) == pytest.approx(-1.0, abs=1e-10)

    def test_bell_xx_correlated(self):
        xx = np.kron(PAULI_X, PAULI_X)
        assert expectation(bell_psi_plus(), xx) == pytest.approx(1.0, abs=1e-10)

    def test_non_hermitian_observable_rejected(self):
        obs = np.zeros((4, 4), dtype=complex)
        obs[0, 1] = 1.0
        with pytest.raises(ValidationError):
            expectation(bell_psi_plus(), obs)


def test_psd_sqrt_squares_back(rng):
    for _ in range(50):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        r = psd_sqrt(m)
        assert np.max(np.abs(r @ r - m)) < 1e-8 * max(1.0, np.max(np.abs(m)))


def test_trace_distance_basics():
    hv = tensor_product(ket_h(), ket_v())
    vh = tensor_product(ket_v(), ket_h())
    assert trace_distance(hv.rho, hv.rho) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(hv.rho, vh.rho) == pytest.approx(1.0, abs=1e-10)


class TestSerialization:
    def test_round_trip_bit_stable(self):
        rho = bell_psi_plus(phase=0.25)
        text = rho.to_json()
        back = TwoQubitState.from_json(text)
        assert np.array_equal(back.rho, rho.rho)
        assert json.loads(text)["basis"] == "HH,HV,VH,VV"

    def test_wrong_basis_rejected(self):
        d = bell_psi_plus().to_json_dict()
        d["basis"] = "VV,VH,HV,HH"
        with pytest.raises(ValidationError):
            TwoQubitState.from_json_dict(d)

    @given(density_matrices())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random_states(self, rho):
        back = TwoQubitState.from_json(rho.to_json())
        assert np.max(np.abs(back.rho - rho.rho)) < 1e-15
