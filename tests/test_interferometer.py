import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import density_matrices, maximally_mixed, populations, tensor_product
from entmem.errors import ValidationError
from entmem.interferometer import AttenuatorSetting, apply_attenuator, balance_attenuation
from entmem.qstate import bell_psi_plus, fidelity, physical
from entmem.source import SourceParams, eta_from_tan2, two_photon_state


class TestBalanceAttenuation:
    def test_tan2_1p5_gives_cot_eta(self):
        setting = balance_attenuation(eta_from_tan2(1.5))
        assert setting.t_h == pytest.approx(1 / np.sqrt(1.5), abs=1e-12)
        assert setting.balanced

    def test_already_balanced(self):
        setting = balance_attenuation(np.pi / 4)
        assert setting.t_h == pytest.approx(1.0)

    def test_pi_over_3(self):
        setting = balance_attenuation(np.pi / 3)
        assert setting.t_h == pytest.approx(1 / np.tan(np.pi / 3), abs=1e-12)

    def test_under_unity_tan_flags_imbalance(self):
        # the plate only attenuates H, so tan(eta) < 1 cannot be balanced
        setting = balance_attenuation(np.pi / 8)
        assert setting.t_h == 1.0
        assert not setting.balanced

    def test_domain_validated(self):
        with pytest.raises(ValidationError):
            balance_attenuation(0.0)
        with pytest.raises(ValidationError):
            balance_attenuation(np.pi / 2)


class TestApplyAttenuator:
    def test_identity_setting(self):
        psi = bell_psi_plus()
        out, prob = apply_attenuator(psi, AttenuatorSetting(1.0))
        assert prob == pytest.approx(1.0)
        assert np.allclose(out, psi, atol=1e-12)

    def test_balances_tan2_1p5_with_prob_0p8(self):
        rho = two_photon_state(SourceParams(eta_f=eta_from_tan2(1.5)))
        out, prob = apply_attenuator(rho, balance_attenuation(eta_from_tan2(1.5)))
        assert prob == pytest.approx(0.8, abs=1e-12)
        assert fidelity(out, bell_psi_plus()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_half_filter(self):
        out, prob = apply_attenuator(maximally_mixed(), AttenuatorSetting(0.5))
        assert prob == pytest.approx(0.625, abs=1e-12)
        assert np.allclose(populations(out), [0.1, 0.4, 0.1, 0.4], atol=1e-12)

    @given(density_matrices(), st.floats(0.05, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_preserves_state_invariants(self, rho, t_h):
        out, prob = apply_attenuator(rho, AttenuatorSetting(t_h))
        assert 0.0 < prob <= 1.0 + 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-10
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(out).min() > -1e-10

    @given(density_matrices(), st.floats(0.1, 1.0), st.floats(0.1, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_composition_multiplies(self, rho, t1, t2):
        one, p1 = apply_attenuator(rho, AttenuatorSetting(t1))
        two, p2 = apply_attenuator(one, AttenuatorSetting(t2))
        direct, p12 = apply_attenuator(rho, AttenuatorSetting(t1 * t2))
        assert p12 == pytest.approx(p1 * p2, abs=1e-10)
        assert np.max(np.abs(two - direct)) < 1e-10

    @given(
        st.floats(np.pi / 4, np.pi / 2 - 0.02),
        st.floats(-np.pi, np.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_phase_untouched_by_balancing(self, eta, phi):
        rho = two_photon_state(SourceParams(eta_f=eta, phi_f=phi))
        out, _ = apply_attenuator(rho, balance_attenuation(eta))
        assert fidelity(out, bell_psi_plus(phase=phi)) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_filter_rejected(self):
        hv = physical(np.diag([1.0, 0, 0, 0]).astype(complex))
        with pytest.raises(ValidationError):
            apply_attenuator(hv, AttenuatorSetting(1e-9))


def test_storage_path_polarization_symmetry():
    """The storage plumbing is the identity channel: without depolarization
    every input polarization is retrieved unchanged."""
    from entmem.memory import MemoryNoiseParams, apply_memory
    from entmem.qstate import KETS

    for label in ("H", "V", "D", "R"):
        rho = tensor_product(KETS["H"], KETS[label])
        out = apply_memory(rho, MemoryNoiseParams(p_depol=0.0))
        assert np.max(np.abs(out - rho)) < 1e-12
