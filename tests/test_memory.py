import warnings
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
    efficiency,
    eit_transmission,
    spectral_overlap,
    transparency_window_fwhm,
    window_acceptance,
)
from entmem.qstate import bell_psi_plus, fidelity
from entmem.scenario import load_bundled_scenario


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

    @pytest.mark.parametrize("rabi_coupling", [0.0, 1e5])
    def test_window_without_a_peak_reads_zero(self, rabi_coupling):
        # no coupling leaves the bare absorption line; 1e5 MHz makes all of +-60 MHz transparent
        eit = EITParams(optical_depth=50.0, rabi_coupling=rabi_coupling)
        assert transparency_window_fwhm(eit) == 0.0

    @given(
        st.floats(-100.0, 100.0),
        st.floats(0.5, 100.0),
        st.integers(3, 3000),
        st.floats(0.1, 200.0),
        st.floats(0.0, 300.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_window_lies_inside_any_grid(self, lo, span, n, optical_depth, rabi_coupling):
        """Each side of the peak falls from above half maximum to the floor or below it,
        so both half crossings lie on the grid, however it cuts the line."""
        eit = EITParams(optical_depth, rabi_coupling, probe_grid_mhz=(lo, lo + span, n))
        hi = eit.probe_grid_mhz[1]
        assert 0.0 <= transparency_window_fwhm(eit) <= (hi - lo) * (1 + 1e-12)

    def test_unreachable_window_raises(self):
        eit = EITParams(optical_depth=50.0, rabi_coupling=1.0)
        with pytest.raises(CalibrationError, match="rabi_coupling"):
            _fit_window(eit, 5000.0)

    def test_non_positive_window_target_raises(self):
        # a coupling too weak for a peak reads as a 0 MHz window, not a fit
        eit = EITParams(optical_depth=50.0, rabi_coupling=1.0)
        with pytest.raises(CalibrationError, match="eit_window"):
            _fit_window(eit, 0.0)


class TestStorageEfficiency:
    def test_narrow_line_limit(self):
        # delta-like line inside the window, no decoherence, no decay
        eit = _calibrated_eit(gamma_g=0.0)
        decay = MemoryDecayParams(model="gaussian", tau_mem=100.0, eta_peak=1.0)
        eta = efficiency(spectral_overlap(2.0, eit), decay, 0.0)
        assert eta == pytest.approx(1.0, abs=0.02)

    def test_calibrated_100ns_point_in_band(self):
        eit = _calibrated_eit()
        overlap = spectral_overlap(150.0, eit)
        tau = 100.0 / np.sqrt(np.log(0.9 * overlap / 0.06))
        decay = MemoryDecayParams(model="gaussian", tau_mem=tau, eta_peak=0.9)
        eta = efficiency(spectral_overlap(150.0, eit), decay, 100.0)
        assert 0.04 <= eta <= 0.08

    def test_doubling_fwhm_halves_efficiency(self):
        eit = _calibrated_eit()
        decay = MemoryDecayParams(model="gaussian", tau_mem=150.0, eta_peak=0.9)
        eta100 = efficiency(spectral_overlap(100.0, eit), decay, 0.0)
        eta200 = efficiency(spectral_overlap(200.0, eit), decay, 0.0)
        assert 1.6 <= eta100 / eta200 <= 2.4

    def test_monotone_in_storage_time(self):
        eit = _calibrated_eit()
        for model in ("gaussian", "exponential"):
            decay = MemoryDecayParams(model=model, tau_mem=170.0, eta_peak=0.9)
            etas = efficiency(spectral_overlap(150.0, eit), decay, np.linspace(0, 600, 25))
            assert all(a >= b - 1e-15 for a, b in zip(etas, etas[1:]))
            assert all(0.0 <= e <= 1.0 for e in etas)

    def test_monotone_in_spectral_fwhm(self):
        eit = _calibrated_eit()
        decay = MemoryDecayParams(tau_mem=170.0, eta_peak=0.9)
        fwhms = (50.0, 100.0, 150.0, 200.0, 250.0)
        etas = [efficiency(spectral_overlap(f, eit), decay, 0.0) for f in fwhms]
        assert all(a >= b for a, b in zip(etas, etas[1:]))

    @pytest.mark.parametrize("model", ["gaussian", "exponential"])
    def test_an_array_of_times_gives_each_time_alone_bit_for_bit(self, model):
        eit = load_bundled_scenario().eit
        decay = MemoryDecayParams(model=model, tau_mem=170.0, eta_peak=0.9)
        times = np.linspace(0.0, 3.0 * decay.tau_mem, 121)  # from t = 0 to 3 tau_mem
        overlap = spectral_overlap(150.0, eit)
        alone = [efficiency(overlap, decay, float(t)) for t in times]
        assert all(type(eta) is float for eta in alone)
        assert efficiency(overlap, decay, times).tolist() == alone

    @pytest.mark.parametrize("model", ["gaussian", "exponential"])
    @pytest.mark.parametrize("tau_mem", [1e-310, 1e-160])
    def test_a_time_whose_decay_overflows_keeps_nothing_without_a_warning(self, model, tau_mem):
        # t / tau_mem overflows at 1e-310, and its square at 1e-160
        overlap = spectral_overlap(150.0, load_bundled_scenario().eit)
        decay = MemoryDecayParams(model=model, tau_mem=tau_mem)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert efficiency(overlap, decay, 100.0) == 0.0
            assert efficiency(overlap, decay, [0.0, 100.0])[1] == 0.0

    def test_a_negative_time_is_rejected(self):
        overlap = spectral_overlap(150.0, load_bundled_scenario().eit)
        for t in (-1.0, [0.0, -1.0]):
            with pytest.raises(ValidationError, match="storage time must be >= 0"):
                efficiency(overlap, MemoryDecayParams(), t)

    def test_window_acceptance_bounded(self):
        grid, w = window_acceptance(_calibrated_eit())
        assert np.all(w >= 0.0) and np.all(w <= 1.0)


def _two_grid_overlap(fwhm, eit):
    """The overlap as a normalized spectrum on its own grid, then read on the probe grid."""
    _, hi, n = eit.probe_grid_mhz
    half = max(4.0 * fwhm, 2.5 * abs(hi))
    spectrum_grid = np.linspace(-half, half, max(1601, n))
    sigma = fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    density = np.exp(-0.5 * (spectrum_grid / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
    density = density / np.trapezoid(density, spectrum_grid)
    grid, w = window_acceptance(eit)
    s = np.interp(grid, spectrum_grid, density, left=0.0, right=0.0)
    return float(np.trapezoid(s * w, grid))


@pytest.mark.parametrize(
    "fwhm, probe_grid",
    [
        (150.0, None),  # the bundled spectrum: its grid spans 4 FWHM
        (2.0, None),  # a line narrower than the probe grid: its grid spans 2.5 |hi|
        (150.0, (-20.0, 20.0, 4001)),  # more probe points than the 1601 of the spectrum grid
        (30.0, (-50.0, 10.0, 301)),  # an asymmetric probe grid narrower than 4 FWHM
        # grids that hold the whole line: its trapezoid mass is 1 and 1 + 2e-16
        (150.0, (-1e3, 1e3, 2001)),
        (150.0, (-1e6, 1e6, 1_000_000)),
    ],
)
def test_spectral_overlap_matches_the_two_grid_computation(fwhm, probe_grid):
    eit = load_bundled_scenario().eit
    if probe_grid is not None:
        eit = replace(eit, probe_grid_mhz=probe_grid)
    assert spectral_overlap(fwhm, eit) == _two_grid_overlap(fwhm, eit)


@pytest.mark.parametrize("probe_grid", [(-1e4, 1e4, 11), (-1e6, 1e6, 3)])
def test_probe_grid_that_overcounts_the_line_is_rejected(probe_grid):
    """On these grids the 150 MHz line's trapezoid mass is 12.5 and 320, not at most 1."""
    eit = replace(load_bundled_scenario().eit, probe_grid_mhz=probe_grid)
    with pytest.raises(ValidationError, match=r"eit\.probe_grid_mhz .* source\.s2_spectral_fwhm"):
        spectral_overlap(150.0, eit)


@pytest.mark.parametrize("n", [5, 13, 25])
def test_probe_grid_that_underresolves_the_window_is_rejected(n):
    """+-60 MHz grids of 5, 13 and 25 points hold 1, 1 and 3 points above the acceptance's half
    maximum; their overlaps are 0.183, 0.0906 and 0.0948 against 0.0943 on the bundled grid."""
    eit = replace(load_bundled_scenario().eit, probe_grid_mhz=(-60.0, 60.0, n))
    with pytest.raises(ValidationError, match=r"eit\.probe_grid_mhz .* acceptance window"):
        spectral_overlap(150.0, eit)


@pytest.mark.parametrize(
    "rabi_coupling, probe_grid, overlap",
    [
        (None, (-60.0, 60.0, 33), 0.09430),  # 5 points above half maximum
        (1e5, (-60.0, 60.0, 2401), 0.65377),  # all 2401: the whole grid is transparent
        (0.0, (-60.0, 60.0, 2401), 0.0),  # no window: nothing is captured
    ],
)
def test_a_resolved_or_absent_window_is_accepted(rabi_coupling, probe_grid, overlap):
    eit = replace(load_bundled_scenario().eit, probe_grid_mhz=probe_grid)
    if rabi_coupling is not None:
        eit = replace(eit, rabi_coupling=rabi_coupling)
    assert spectral_overlap(150.0, eit) == pytest.approx(overlap, abs=5e-5)


def test_a_line_between_the_spectrum_grid_nodes_is_rejected():
    """A 1e-3 MHz line between the 5 MHz steps of a +-2.5e6 MHz grid has trapezoid mass 0."""
    eit = replace(load_bundled_scenario().eit, probe_grid_mhz=(-1e6, 1e6, 1_000_000))
    with pytest.raises(ValidationError, match=r"source\.s2_spectral_fwhm .* eit\.probe_grid_mhz"):
        spectral_overlap(1e-3, eit)


class TestApplyMemory:
    def test_noiseless_identity(self):
        psi = bell_psi_plus()
        out = apply_memory(psi, MemoryNoiseParams(p_depol=0.0))
        assert np.allclose(out, psi, atol=1e-12)

    def test_full_depolarization_of_bell(self):
        out = apply_memory(bell_psi_plus(), MemoryNoiseParams(p_depol=1.0))
        assert np.allclose(out, np.eye(4) / 4, atol=1e-12)

    def test_partial_depolarization_fidelity(self):
        out = apply_memory(bell_psi_plus(), MemoryNoiseParams(p_depol=0.1))
        assert fidelity(out, bell_psi_plus()) == pytest.approx(0.925, abs=1e-10)

    @given(density_matrices(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_composition_law(self, rho, p1, p2):
        once = apply_memory(rho, MemoryNoiseParams(p_depol=p1))
        twice = apply_memory(once, MemoryNoiseParams(p_depol=p2))
        combined = 1.0 - (1.0 - p1) * (1.0 - p2)
        direct = apply_memory(rho, MemoryNoiseParams(p_depol=combined))
        assert np.max(np.abs(twice - direct)) < 1e-10

    @given(density_matrices(), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_preserves_invariants(self, rho, p):
        out = apply_memory(rho, MemoryNoiseParams(p_depol=p))
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(out).min() > -1e-10

