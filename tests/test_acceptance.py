"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line; the calibrated-scenario criteria
share one 100-seed batch through a module-scoped fixture so the whole
module stays well inside its runtime budgets.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    classicalize,
    maximally_mixed,
    pure_state,
    random_density_matrix,
    random_pure_ket,
    tensor_product,
    trace_distance,
)
from entmem.calibrate import calibrate
from entmem.detection import (
    CountRecord,
    born_probabilities,
    sample_counts,
)
from entmem.errors import EstimationError
from entmem.estimators import (
    TomographySettingSet,
    cauchy_schwarz_R,
    chsh_S_analytic,
    tomo_counts,
    tomo_mle,
)
from entmem.experiment import memory_efficiency
from entmem.interferometer import AttenuatorSetting, apply_attenuator
from entmem.memory import (
    MemoryNoiseParams,
    apply_memory,
    transparency_window_fwhm,
)
from entmem.pipeline import run_experiment, seed_ensemble
from entmem.qstate import KETS, bell_psi_plus, fidelity
from entmem.scenario import MeasurementPlan, load_bundled_scenario

CHSH_ANGLES = MeasurementPlan().chsh_angles


def _verdict(name: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {name}"


@pytest.fixture(scope="module")
def calibrated():
    scenario, _ = calibrate(load_bundled_scenario())
    return scenario


@pytest.fixture(scope="module")
def hundred_run_means(calibrated):
    """Means over 100 seeded full runs of both stages, plus elapsed time."""
    t0 = time.time()
    figures = seed_ensemble(calibrated, 100)
    elapsed = time.time() - t0
    return {k: float(np.mean(v)) for k, v in figures.items()}, elapsed


def test_criterion_1_analytic_chsh():
    t0 = time.time()
    s_bell = chsh_S_analytic(bell_psi_plus(), CHSH_ANGLES)
    s_mixed = chsh_S_analytic(maximally_mixed(), CHSH_ANGLES)
    elapsed = time.time() - t0
    ok = abs(s_bell - 2 * np.sqrt(2)) < 1e-9 and abs(s_mixed) < 1e-12 and elapsed < 1.0
    print(f"\n  S(bell)={s_bell!r}, S(I/4)={s_mixed!r}, {elapsed:.3f}s")
    _verdict("1 analytic CHSH", ok)


def test_criterion_2_tomography_self_consistency():
    settings = TomographySettingSet.standard()
    rng = np.random.default_rng(202)
    t0 = time.time()
    worst_td = 0.0
    fids = []
    for trial in range(200):
        rho = random_density_matrix(rng)
        probs = born_probabilities(rho, settings.settings)[0]
        # exact Born frequencies at high resolution
        exact = [
            CountRecord(label, 4 * 10**9, 4 * 10**9, int(round(p * 1e9)), 0, 1.0, 0)
            for label, p in zip(settings.settings[0], probs)
        ]
        est = tomo_mle(*tomo_counts(exact))
        worst_td = max(worst_td, trace_distance(est, rho))
        # Poisson statistics at N = 1e5 per basis group
        noisy = [
            CountRecord(label, 4 * 10**6, 4 * 10**6, int(rng.poisson(p * 1e5)), 0, 1.0, 0)
            for label, p in zip(settings.settings[0], probs)
        ]
        fids.append(fidelity(tomo_mle(*tomo_counts(noisy)), rho))
    elapsed = time.time() - t0
    mean_f = float(np.mean(fids))
    ok = worst_td < 1e-6 and mean_f > 0.995 and elapsed < 120.0
    print(f"\n  worst trace distance={worst_td:.2e}, mean fidelity={mean_f:.5f}, {elapsed:.1f}s")
    _verdict("2 tomography self-consistency", ok)


def test_criterion_3_fidelity_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        a, b = random_pure_ket(rng), random_pure_ket(rng)
        f = fidelity(pure_state(a), pure_state(b))
        worst = max(worst, abs(f - abs(np.vdot(a, b)) ** 2))
    ok = worst < 1e-10
    print(f"\n  worst |F - |<psi|phi>|^2| = {worst:.2e}")
    _verdict("3 fidelity oracle", ok)


def test_criterion_4_calibrated_reproduction(hundred_run_means):
    means, elapsed = hundred_run_means
    bands = {
        "F_pre": (0.881, 0.052),
        "F_post": (0.888, 0.088),
        "S_pre": (2.49, 0.12),
        "S_post": (2.38, 0.24),
        "V_pre": (0.883, 0.054),
        "V_post": (0.812, 0.080),
    }
    ok = elapsed < 600.0
    for key, (center, half) in bands.items():
        inside = center - half <= means[key] <= center + half
        print(f"\n  {key}: mean={means[key]:.4f} band={center}+-{half} {'ok' if inside else 'OUT'}")
        ok = ok and inside
    print(f"  elapsed {elapsed:.1f}s")
    _verdict("4 calibrated reproduction", ok)


def test_criterion_5_correlation_anchors(hundred_run_means):
    means, _ = hundred_run_means
    ok = 150 * 0.8 <= means["g2_pre"] <= 150 * 1.2
    ok = ok and 14 * 0.7 <= means["g2_post"] <= 14 * 1.3
    r_pre = cauchy_schwarz_R(150.0, 1.2, 1.38)
    r_post = cauchy_schwarz_R(14.0, 1.2, 2.0)
    ok = ok and round(r_pre) == 13587 and round(r_post) == 82
    ok = ok and 0.02 <= means["alpha_pre"] <= 0.06
    ok = ok and 0.2 <= means["alpha_post"] <= 0.4
    print(
        f"\n  g2_pre={means['g2_pre']:.1f}, g2_post={means['g2_post']:.2f}, "
        f"R_pre={r_pre:.0f}, R_post={r_post:.1f}, "
        f"alpha_pre={means['alpha_pre']:.4f}, alpha_post={means['alpha_post']:.3f}"
    )
    _verdict("5 correlation anchors", ok)


def test_criterion_6_eit_and_storage(calibrated):
    fwhm = transparency_window_fwhm(calibrated.eit)
    eta = memory_efficiency(calibrated, 100.0)
    ok = abs(fwhm - 20.0) <= 0.25 * 20.0 and calibrated.eit.optical_depth == 50.0
    ok = ok and 0.04 <= eta <= 0.08
    ok = ok and calibrated.source.s2_spectral_fwhm == 150.0
    print(f"\n  window FWHM={fwhm:.2f} MHz at OD 50, eta(100ns)={eta:.4f}")
    _verdict("6 EIT and storage physics", ok)


def test_criterion_7_property_suites(calibrated):
    rng = np.random.default_rng(7)
    ok = True

    # PSD / trace preservation through attenuator and memory channel
    for _ in range(50):
        rho = random_density_matrix(rng)
        out, _ = apply_attenuator(rho, AttenuatorSetting(float(rng.uniform(0.1, 1.0))))
        rng.uniform(0, 1)  # a retrieval efficiency: the post-selected channel never reads one
        out = apply_memory(out, MemoryNoiseParams(p_depol=float(rng.uniform(0, 1))))
        vals = np.linalg.eigvalsh(out)
        ok = ok and vals.min() > -1e-10 and abs(np.trace(out).real - 1) < 1e-10

    # attenuator composition
    rho = random_density_matrix(rng)
    a, pa = apply_attenuator(rho, AttenuatorSetting(0.7))
    b, pb = apply_attenuator(a, AttenuatorSetting(0.6))
    c, pc = apply_attenuator(rho, AttenuatorSetting(0.42))
    ok = ok and abs(pa * pb - pc) < 1e-10 and np.max(np.abs(b - c)) < 1e-10

    # memory-channel composition
    m1 = apply_memory(rho, MemoryNoiseParams(p_depol=0.3))
    m2 = apply_memory(m1, MemoryNoiseParams(p_depol=0.5))
    m12 = apply_memory(rho, MemoryNoiseParams(p_depol=1 - 0.7 * 0.5))
    ok = ok and np.max(np.abs(m2 - m12)) < 1e-10

    # polarization independence of retrieval: without depolarization the
    # retrieved state is the input, whatever its polarization
    for label in ("H", "V", "D", "R"):
        state = tensor_product(KETS["H"], KETS[label])
        out = apply_memory(state, MemoryNoiseParams(p_depol=0.0))
        ok = ok and np.max(np.abs(out - state)) < 1e-12

    # Poisson seed determinism
    means = [1e3 * 5.0, 2e3 * 5.0, 50.0 * 5.0]
    draws = [sample_counts([means], seed=99, labels=["det"]) for _ in range(3)]
    ok = ok and draws[0] == draws[1] == draws[2]

    # Cauchy-Schwarz classical boundary
    ok = ok and cauchy_schwarz_R(1.0, 1.0, 1.0) == 1.0

    _verdict("7 property suites", ok)


def test_criterion_8_nonclassicality_gates(calibrated):
    classical = classicalize(replace(calibrated, plan=replace(calibrated.plan, error_bars=False)))
    from entmem.experiment import stage_state

    rho = stage_state(classical, "pre_storage").rho
    s_analytic = chsh_S_analytic(rho, CHSH_ANGLES)

    res = run_experiment(classical, "pre_storage")
    s_hat = res.chsh_S.value
    v_hat = res.visibility.estimate.value
    r_hat = res.cauchy_schwarz["R"]
    sigma_r = res.cauchy_schwarz["sigma"]

    ok = s_analytic <= 2.0 + 1e-9
    ok = ok and s_hat <= 2.0 + 1e-9
    ok = ok and v_hat <= 1 / np.sqrt(2) + 0.05
    ok = ok and r_hat <= 1.0 + max(5 * sigma_r, 0.05)
    ok = ok and not res.cauchy_schwarz["nonclassical"]
    ok = ok and not res.visibility.nonclassical
    print(
        f"\n  S_analytic={s_analytic:.2e}, S_hat={s_hat:.3f}, "
        f"V_hat={v_hat:.3f}, R_hat={r_hat:.3f}+-{sigma_r:.3f}"
    )
    _verdict("8 nonclassicality gates", ok)
