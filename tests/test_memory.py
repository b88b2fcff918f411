from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import density_matrices
from entmem.calibrate import calibrate
from entmem.errors import CalibrationError, ValidationError
from entmem.memory import (
    EITParams,
    MemoryDecayParams,
    MemoryNoiseParams,
    apply_memory,
    eit_transmission,
    g2_vs_storage_time,
    spectral_overlap,
    storage_efficiency,
    transparency_window_fwhm,
    window_acceptance,
)
from entmem.qstate import TwoQubitState, bell_psi_plus, fidelity
from entmem.scenario import load_bundled_scenario
from entmem.source import wavepacket_spectrum


def _fit_window(eit, target_mhz):
    scenario = replace(load_bundled_scenario(), eit=eit)
    return calibrate(scenario, {"eit_window": target_mhz})[0].eit


def _calibrated_eit(gamma_g=0.03):
    return _fit_window(EITParams(optical_depth=50.0, rabi_coupling=10.0, gamma_g=gamma_g), 20.0)


class TestEITTransmission:
    def test_two_level_resonant_absorption(self):
        eit = EITParams(optical_depth=50.0, rabi_coupling=0.0, gamma_g=0.0)
        grid, t = eit_transmission(eit)
        t0 = t[np.argmin(np.abs(grid))]
        assert t0 == pytest.approx(np.exp(-50.0), rel=1e-9)

    def test_perfect_transparency_without_ground_decoherence(self):
        eit = EITParams(optical_depth=50.0, rabi_coupling=8.0, gamma_g=0.0)
        grid, t = eit_transmission(eit)
        assert t[np.argmin(np.abs(grid))] == pytest.approx(1.0, abs=1e-12)

    def test_bounded_and_symmetric(self):
        eit = _calibrated_eit()
        grid, t = eit_transmission(eit)
        assert np.all(t >= 0.0) and np.all(t <= 1.0)
        assert np.max(np.abs(t - t[::-1])) < 1e-9  # symmetric grid

    def test_window_fwhm_calibrates_to_20mhz(self):
        eit = _calibrated_eit()
        assert transparency_window_fwhm(eit) == pytest.approx(20.0, rel=0.001)
        # acceptance tolerance is much looser
        assert 15.0 <= transparency_window_fwhm(eit) <= 25.0

    def test_local_maximum_at_zero(self):
        eit = _calibrated_eit()
        grid, t = eit_transmission(eit)
        i0 = np.argmin(np.abs(grid))
        assert t[i0] >= t[i0 - 5] and t[i0] >= t[i0 + 5]

    def test_unreachable_window_raises(self):
        eit = EITParams(optical_depth=50.0, rabi_coupling=1.0)
        with pytest.raises(CalibrationError) as err:
            _fit_window(eit, 5000.0)
        assert err.value.parameter == "rabi_coupling"

    def test_non_positive_window_target_raises(self):
        # a coupling too weak for a peak reads as a 0 MHz window, not a fit
        eit = EITParams(optical_depth=50.0, rabi_coupling=1.0)
        with pytest.raises(CalibrationError) as err:
            _fit_window(eit, 0.0)
        assert err.value.parameter == "eit_window"


class TestStorageEfficiency:
    def test_narrow_line_limit(self):
        # delta-like line inside the window, no decoherence, no decay
        eit = _calibrated_eit(gamma_g=0.0)
        spec = wavepacket_spectrum(2.0, np.linspace(-10, 10, 801))
        decay = MemoryDecayParams(model="gaussian", tau_mem=100.0, eta_peak=1.0)
        eta = storage_efficiency(spec, eit, decay, 0.0)
        assert eta == pytest.approx(1.0, abs=0.02)

    def test_calibrated_100ns_point_in_band(self):
        eit = _calibrated_eit()
        spec = wavepacket_spectrum(150.0, np.linspace(-400, 400, 1601))
        overlap = spectral_overlap(spec, eit)
        tau = 100.0 / np.sqrt(np.log(0.9 * overlap / 0.06))
        decay = MemoryDecayParams(model="gaussian", tau_mem=tau, eta_peak=0.9)
        eta = storage_efficiency(spec, eit, decay, 100.0)
        assert 0.04 <= eta <= 0.08

    def test_doubling_fwhm_halves_efficiency(self):
        eit = _calibrated_eit()
        decay = MemoryDecayParams(model="gaussian", tau_mem=150.0, eta_peak=0.9)
        grid = np.linspace(-900, 900, 3601)
        eta100 = storage_efficiency(wavepacket_spectrum(100.0, grid), eit, decay, 0.0)
        eta200 = storage_efficiency(wavepacket_spectrum(200.0, grid), eit, decay, 0.0)
        assert 1.6 <= eta100 / eta200 <= 2.4

    def test_monotone_in_storage_time(self):
        eit = _calibrated_eit()
        spec = wavepacket_spectrum(150.0, np.linspace(-400, 400, 1601))
        for model in ("gaussian", "exponential"):
            decay = MemoryDecayParams(model=model, tau_mem=170.0, eta_peak=0.9)
            etas = [storage_efficiency(spec, eit, decay, t) for t in np.linspace(0, 600, 25)]
            assert all(a >= b - 1e-15 for a, b in zip(etas, etas[1:]))
            assert all(0.0 <= e <= 1.0 for e in etas)

    def test_monotone_in_spectral_fwhm(self):
        eit = _calibrated_eit()
        decay = MemoryDecayParams(tau_mem=170.0, eta_peak=0.9)
        grid = np.linspace(-1200, 1200, 4801)
        etas = [
            storage_efficiency(wavepacket_spectrum(f, grid), eit, decay, 0.0)
            for f in (50.0, 100.0, 150.0, 200.0, 250.0)
        ]
        assert all(a >= b for a, b in zip(etas, etas[1:]))

    def test_window_acceptance_bounded(self):
        grid, w = window_acceptance(_calibrated_eit())
        assert np.all(w >= 0.0) and np.all(w <= 1.0)


class TestApplyMemory:
    def test_noiseless_identity(self):
        psi = bell_psi_plus()
        out, prob = apply_memory(psi, 0.42, MemoryNoiseParams(p_depol=0.0))
        assert prob == 0.42
        assert np.allclose(out.rho, psi.rho, atol=1e-12)

    def test_full_depolarization_of_bell(self):
        out, _ = apply_memory(bell_psi_plus(), 1.0, MemoryNoiseParams(p_depol=1.0))
        assert np.allclose(out.rho, np.eye(4) / 4, atol=1e-12)

    def test_partial_depolarization_fidelity(self):
        out, _ = apply_memory(bell_psi_plus(), 1.0, MemoryNoiseParams(p_depol=0.1))
        assert fidelity(out, bell_psi_plus()) == pytest.approx(0.925, abs=1e-10)

    @given(density_matrices(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_composition_law(self, rho, p1, p2):
        once, _ = apply_memory(rho, 1.0, MemoryNoiseParams(p_depol=p1))
        twice, _ = apply_memory(once, 1.0, MemoryNoiseParams(p_depol=p2))
        combined = 1.0 - (1.0 - p1) * (1.0 - p2)
        direct, _ = apply_memory(rho, 1.0, MemoryNoiseParams(p_depol=combined))
        assert np.max(np.abs(twice.rho - direct.rho)) < 1e-10

    @given(density_matrices(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_preserves_invariants_and_eta_passthrough(self, rho, p, eta):
        out, prob = apply_memory(rho, eta, MemoryNoiseParams(p_depol=p))
        assert prob == eta
        assert np.trace(out.rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(out.rho).min() > -1e-10

    def test_eta_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            apply_memory(bell_psi_plus(), 1.2, MemoryNoiseParams())


class TestG2VsStorageTime:
    def test_lossless_limit(self):
        g2 = g2_vs_storage_time(150.0, lambda t: 1.0, background=1e-12)
        assert g2(0.0) == pytest.approx(150.0, rel=1e-9)

    def test_background_dominated_limit(self):
        g2 = g2_vs_storage_time(150.0, lambda t: 1e-9, background=0.5)
        assert g2(100.0) == pytest.approx(1.0, abs=1e-5)

    def test_calibrated_post_storage_point(self):
        # background solved so the 100 ns point lands on the anchor
        eta = 0.06
        target = 14.0
        b = ((150.0 - 1.0) * eta / (target - 1.0) - eta) / (1.0 - eta)
        g2 = g2_vs_storage_time(150.0, lambda t: eta, b)
        assert g2(100.0) == pytest.approx(target, rel=1e-9)
        assert abs(g2(100.0) - 14.0) / 14.0 < 0.30

    def test_strictly_decreasing_with_eta(self):
        decay = MemoryDecayParams(model="gaussian", tau_mem=170.0, eta_peak=0.08)
        curve = g2_vs_storage_time(
            150.0, lambda t: 0.08 * np.exp(-((t / 170.0) ** 2)), background=0.3
        )
        ts = np.linspace(0, 500, 26)
        vals = [curve(float(t)) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v >= 1.0 for v in vals)

    def test_validation(self):
        with pytest.raises(ValidationError):
            g2_vs_storage_time(0.9, lambda t: 0.5, 0.1)
        with pytest.raises(ValidationError):
            g2_vs_storage_time(10.0, lambda t: 0.5, 0.0)
