import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import populations, purity
from entmem.errors import ValidationError
from entmem.memory import EITParams, spectral_overlap, window_acceptance
from entmem.qstate import bell_psi_plus, fidelity
from entmem.source import (
    SourceParams,
    eta_from_tan2,
    tan2_eta_from_detuning,
    two_photon_state,
)


class TestTan2EtaInterpolation:
    def test_anchor_point_exact(self):
        assert tan2_eta_from_detuning(-20.0, [(-20.0, 1.5)]) == 1.5

    def test_midpoint_of_segment(self):
        assert tan2_eta_from_detuning(-20.0, [(-30.0, 2.0), (-10.0, 1.0)]) == pytest.approx(1.5)

    def test_exact_at_every_node(self):
        calib = [(-40.0, 3.0), (-20.0, 1.5), (0.0, 1.0), (20.0, 0.7)]
        for d, v in calib:
            assert tan2_eta_from_detuning(d, calib) == pytest.approx(v, abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="outside anchor range"):
            tan2_eta_from_detuning(-35.0, [(-30.0, 2.0), (-10.0, 1.0)])

    def test_non_increasing_anchors_rejected(self):
        with pytest.raises(ValidationError):
            tan2_eta_from_detuning(-20.0, [(-10.0, 1.0), (-30.0, 2.0)])

    def test_monotone_between_monotone_anchors(self):
        calib = [(-40.0, 3.0), (-25.0, 2.0), (-10.0, 1.2), (5.0, 0.9)]
        grid = np.linspace(-40.0, 5.0, 901)
        vals = [tan2_eta_from_detuning(float(d), calib) for d in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestTwoPhotonState:
    def test_balanced_noiseless_is_bell(self):
        rho = two_photon_state(SourceParams(eta_f=np.pi / 4))
        assert fidelity(rho, bell_psi_plus()) == pytest.approx(1.0, abs=1e-12)

    def test_tan2_1p5_populations(self):
        rho = two_photon_state(SourceParams(eta_f=eta_from_tan2(1.5)))
        assert np.allclose(populations(rho), [0.0, 0.4, 0.6, 0.0], atol=1e-12)

    def test_full_white_noise_is_maximally_mixed(self):
        rho = two_photon_state(SourceParams(eta_f=np.pi / 4, p_white=1.0))
        assert np.allclose(rho, np.eye(4) / 4, atol=1e-12)

    def test_white_corner_populations(self):
        p = 0.2
        rho = two_photon_state(SourceParams(eta_f=np.pi / 4, p_white=p))
        pops = populations(rho)
        assert pops[0] == pytest.approx(p / 4, abs=1e-14)
        assert pops[3] == pytest.approx(p / 4, abs=1e-14)

    @given(st.floats(0.05, np.pi / 2 - 0.05), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_purity_one_iff_noiseless(self, eta, p_white):
        rho = two_photon_state(SourceParams(eta_f=eta, p_white=p_white))
        if p_white == 0.0:
            assert purity(rho) == pytest.approx(1.0, abs=1e-10)
        else:
            assert purity(rho) < 1.0 - 1e-10 or p_white < 1e-9

    @given(st.floats(0.05, np.pi / 2 - 0.05), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_coherence_magnitude_closed_form(self, eta, p_white):
        rho = two_photon_state(SourceParams(eta_f=eta, p_white=p_white))
        coh = abs(rho[1, 2])
        assert coh == pytest.approx((1 - p_white) * np.cos(eta) * np.sin(eta), abs=1e-12)

    @given(st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_phase_only_moves_coherence_phase(self, phi):
        base = two_photon_state(SourceParams(eta_f=1.0, phi_f=0.0, p_white=0.3))
        rot = two_photon_state(SourceParams(eta_f=1.0, phi_f=phi, p_white=0.3))
        assert np.allclose(np.diag(base), np.diag(rot), atol=1e-14)
        assert abs(rot[1, 2]) == pytest.approx(abs(base[1, 2]), abs=1e-14)
        assert np.angle(rot[2, 1]) == pytest.approx(phi, abs=1e-12)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            SourceParams(eta_f=0.0)
        with pytest.raises(ValidationError):
            SourceParams(eta_f=1.0, p_white=1.5)
        with pytest.raises(ValidationError):
            SourceParams(eta_f=1.0, pair_prob=0.6)


# Coupled far past the absorption line's width, the window accepts all of a
# +-30 MHz probe grid to within 3e-9, so the overlap is the share of the signal
# photon's spectrum that lies on the grid.
FLAT_WINDOW = EITParams(
    optical_depth=50.0, rabi_coupling=1e4, gamma_g=0.0, probe_grid_mhz=(-30.0, 30.0, 2401)
)


class TestWavepacketSpectrum:
    """The signal photon's Gaussian spectrum, read through the memory's overlap."""

    def test_peak_value_closed_form(self):
        # a line far wider than the grid is flat on it, at its peak density
        fwhm = 1e4
        grid, w = window_acceptance(FLAT_WINDOW)
        peak = 2 * np.sqrt(np.log(2) / np.pi) / fwhm
        assert spectral_overlap(fwhm, FLAT_WINDOW) == pytest.approx(
            peak * np.trapezoid(w, grid), rel=1e-4
        )

    def test_unit_integral(self):
        assert spectral_overlap(5.0, FLAT_WINDOW) == pytest.approx(1.0, abs=1e-6)

    def test_half_max_at_half_fwhm(self):
        # the grid spans +-FWHM/2, which holds erf(sqrt(ln 2)) of a Gaussian line
        overlap = spectral_overlap(60.0, FLAT_WINDOW)
        assert overlap == pytest.approx(math.erf(math.sqrt(math.log(2))), rel=1e-5)
